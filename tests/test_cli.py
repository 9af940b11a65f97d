import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polyanet
from polyanet.cli import main
from polyanet import graph
from polyanet.graph import load_network


P5_MATRIX = "5\n0 1 0 0 0\n1 0 1 0 0\n0 1 0 1 0\n0 0 1 0 1\n0 0 0 1 0\n"
P3_MATRIX = "3\n0 1 0\n1 0 1\n0 1 0\n"


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.adj"
    path.write_text(P5_MATRIX)
    return path


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.adj"
    path.write_text(P3_MATRIX)
    return path


GEN_INSPECT = """from polyanet.cli import main
out = {tmp!r} + "/ba.edges"
assert main(["gen", "--nodes", "60", "--m", "2", "--seed", "1", "--out", out, "--format", "edges"]) == 0
assert main(["inspect", "--net", out, "--out", out + ".json"]) == 0
with open({tmp!r} + "/split.edges", "w") as fh:
    fh.write("1 2\\n2 3\\n4 5\\n")
assert main(["inspect", "--net", {tmp!r} + "/split.edges", "--largest-component",
             "--out", out + ".json"]) == 0
"""


@pytest.mark.parametrize("code", [
    pytest.param("import polyanet.cli", id="cli-import"),
    pytest.param("import polyanet.cli; from polyanet.graph import *; "
                 "net = generate_barabasi_albert(70, 2, 1); "
                 "closeness_centrality(net); all_pairs_distances(net)", id="distances"),
    pytest.param(GEN_INSPECT, id="gen-inspect"),
])
def test_cli_import_leaves_heavy_scipy_modules_unloaded(code, tmp_path):
    """Every CLI start pays for what ``polyanet.cli`` imports.  The graph
    layer never imports scipy: only the first sparse product does, through
    ``Network.closed_adjacency``, so ``gen`` and ``inspect`` run without it."""
    src = str(Path(polyanet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = code.format(tmp=str(tmp_path)) + (
        "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_import_leaves_process_pools_unloaded():
    """``concurrent.futures.process`` and ``multiprocessing`` load only when a
    run splits its trials across processes."""
    src = str(Path(polyanet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, polyanet, polyanet.cli; print(sorted(m for m in sys.modules "
            "if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_gen_writes_expected_edge_count(tmp_path, capsys):
    out = tmp_path / "ba.adj"
    assert main(["gen", "--nodes", "100", "--m", "1", "--seed", "7", "--out", str(out)]) == 0
    assert load_network(out).edge_count == 99
    assert "99 edges" in capsys.readouterr().out


def test_inspect_reports_structure(p5_file, capsys):
    assert main(["inspect", "--net", str(p5_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outer"] == [1, 5]
    assert payload["inner"] == [2, 3, 4]
    assert payload["layered_targets"] == [2, 4]
    assert payload["dense_targets"] == [2, 3, 4]
    assert payload["dense_targets_pruned"] == [2, 4]
    assert payload["closeness"][2] == pytest.approx(1 / 6)


def test_exact_prints_infection_rate(p3_file, capsys):
    assert main(["exact", "--net", str(p3_file), "--red", "1,1,1",
                 "--black", "1,0,1", "--n", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["infection_rate"] == pytest.approx(29 / 45, abs=1e-12)
    assert f"{payload['infection_rate']:.6f}".startswith("0.644444")


def test_exact_exposure_needs_vectors(p3_file, capsys):
    assert main(["exact", "--net", str(p3_file), "--red", "uniform:1",
                 "--black", "uniform:1", "--exposure"]) == 1
    assert main(["exact", "--net", str(p3_file), "--red", "uniform:1",
                 "--black", "uniform:1", "--exposure",
                 "--x", "uniform:1", "--y", "uniform:1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "expected_exposure" in payload
    assert len(payload["exposure_grad_curing"]) == 3


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["gen", "--nodes", "10"]) == 1
    assert main([]) == 1


def test_runtime_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.adj"
    assert main(["inspect", "--net", str(missing)]) == 2
    bad = tmp_path / "bad.adj"
    bad.write_text("2\n0 1\n0 0\n")
    assert main(["inspect", "--net", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_game_solves_tiny_instance(p3_file, capsys):
    assert main(["game", "--net", str(p3_file), "--red", "uniform:10",
                 "--black", "uniform:10", "--budget-b", "6", "--budget-r", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"]
    assert sum(payload["curing"]) == pytest.approx(6.0, rel=1e-9)
    assert sum(payload["infection"]) == pytest.approx(6.0, rel=1e-9)
    assert payload["exploitability"] < 1e-4


def test_game_solves_budgets_far_above_the_urn_masses(p3_file, capsys):
    """A curing budget over 10^4 times every super-urn total is a valid game."""
    assert main(["game", "--net", str(p3_file), "--red", "uniform:10",
                 "--black", "uniform:10", "--budget-b", "1e6", "--budget-r", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert sum(payload["curing"]) == pytest.approx(1e6, rel=1e-9)
    assert sum(payload["infection"]) == pytest.approx(6.0, rel=1e-9)


def test_game_warns_when_not_converged(p3_file, capfd):
    args = ["game", "--net", str(p3_file), "--red", "uniform:10", "--black", "uniform:10",
            "--budget-b", "6", "--budget-r", "6"]
    assert main(args) == 0
    assert capfd.readouterr().err == ""
    assert main(args + ["--rounds", "1", "--tol", "1e-30"]) == 0
    out, err = capfd.readouterr()
    payload = json.loads(out)
    assert payload["converged"] is False
    assert err.startswith(
        f"warning: not converged (exploitability {payload['exploitability']:.3g}")


CONFIG = """
[network]
file = {net}

[run]
steps = 2
trials = 8
seed = 3
red_budget = 5
init_budget = 5
delta = 1.0

[arm:uniform]
init = ii

[arm:inner]
init = iii
"""


def test_init_run_and_compare(p5_file, tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG.format(net=p5_file))
    out = tmp_path / "out.csv"
    assert main(["init-run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,strategy,mean_infection,stderr,trials"
    assert len(lines) == 1 + 2 * 2  # two arms, two steps
    capsys.readouterr()
    assert main(["init-run", "--config", str(cfg), "--arm", "inner",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["series"][0]["strategy"] == "inner"
    assert main(["init-run", "--config", str(cfg), "--arm", "missing"]) == 1
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5


def test_cure_run(p5_file, tmp_path):
    cfg = tmp_path / "cure.ini"
    cfg.write_text(f"""
[network]
file = {p5_file}

[run]
steps = 2
trials = 5
seed = 1
red_budget = 10
red_step_budget = 10
cure_budget = 10

[arm:inner]
cure = iv
""")
    out = tmp_path / "cure.csv"
    assert main(["cure-run", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_gen_then_inspect_pipeline(tmp_path, capsys):
    out = tmp_path / "net.edges"
    assert main(["gen", "--nodes", "12", "--m", "2", "--seed", "5",
                 "--out", str(out), "--format", "edges"]) == 0
    capsys.readouterr()
    assert main(["inspect", "--net", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == 12


def test_readme_config_runs_as_written(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cfg = tmp_path / "readme.ini"
    cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    out = tmp_path / "out.csv"
    assert main(["compare", "--config", str(cfg), "--trials", "20", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 50


def test_unknown_config_key_is_usage_error(p5_file, tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text(CONFIG.format(net=p5_file).replace("init = iii", "init = iii\ninit_budgte = 5"))
    assert main(["init-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "init_budgte" in err and "inner" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["steps", "trials"])
def test_missing_run_length_is_usage_error(p5_file, tmp_path, capsys, key):
    cfg = tmp_path / "short.ini"
    text = CONFIG.format(net=p5_file)
    cfg.write_text(re.sub(rf"^{key} = .*\n", "", text, flags=re.M))
    assert main(["compare", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"missing key '{key}'" in err and "uniform" in err
    assert "Traceback" not in err
    capsys.readouterr()
    assert main(["compare", "--config", str(cfg), f"--{key}", "2"]) == 0


def test_unknown_network_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "net-typo.ini"
    cfg.write_text(CONFIG.format(net="unused").replace("file = unused", "ba_nodes = 20\nba_mm = 5"))
    assert main(["compare", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "ba_mm" in err and "[network]" in err
    assert "Traceback" not in err


def test_config_without_arms_is_usage_error(p5_file, tmp_path, capsys):
    cfg = tmp_path / "no-arms.ini"
    cfg.write_text(CONFIG.format(net=p5_file).split("[arm:")[0])
    out = tmp_path / "out.csv"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "[arm:NAME]" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_empty_network_section_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "empty-net.ini"
    cfg.write_text(CONFIG.format(net="unused").replace("file = unused", ""))
    assert main(["compare", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "[network]" in err
    assert "Traceback" not in err


def keep(text):
    return text


@pytest.mark.parametrize("edit, words, flags", [
    (lambda text: re.sub(r"\[network\]\nfile = .*\n", "", text), ["[network]"], []),
    (lambda text: text.replace("[run]", "[run]\nred_values = 1,2"),
     ["red_values", "2 values", "5 nodes"], []),
    (lambda text: text.replace("[run]", "[run]\nblack_values = 1,1,1"),
     ["black_values", "3 values", "5 nodes"], []),
    (lambda text: text.replace("steps = 2", "steps = abc"), ["steps", "'abc'"], []),
    (lambda text: text.replace("delta = 1.0", "delta = nan"),
     ["delta", "finite", "'uniform'"], []),
    (lambda text: text.replace("delta = 1.0", "delta = inf"),
     ["delta", "finite", "'uniform'"], []),
    (lambda text: text.replace("delta = 1.0", "delta = -1"), ["delta", "nonnegative"], []),
    (lambda text: text.replace("red_budget = 5", "red_budget = nan"),
     ["red_budget", "finite"], []),
    (lambda text: re.sub(r"file = .*", "ba_nodes = abc", text), ["ba_nodes", "'abc'"], []),
    (lambda text: re.sub(r"file = .*", "ba_nodes = 9\nba_seed = 1.5", text),
     ["ba_seed", "'1.5'"], []),
    (lambda text: re.sub(r"file = .*", "ba_nodes = 9\nba_seed = -1", text),
     ["ba_seed", "nonnegative", "-1"], []),
    (lambda text: re.sub(r"file = .*", "ba_nodes = 9\nba_m = -2", text),
     ["ba_m", "nonnegative", "-2"], []),
    (lambda text: re.sub(r"file = .*", "ba_nodes = 9\nba_m = 0", text),
     ["ba_m", "at least 1", "got 0"], []),
    (lambda text: re.sub(r"file = .*", "ba_nodes = 9\nba_m = 9", text),
     ["ba_m", "below ba_nodes = 9", "got 9"], []),
    (lambda text: text.replace("[run]", "[run]\ndescent_iterations = -3"),
     ["descent_iterations", "'uniform'"], []),
    (keep, ["--jobs must be at least 1, got -4"], ["--jobs", "-4"]),
    (keep, ["--jobs must be at least 1, got 0"], ["--jobs", "0"]),
    (lambda text: text.replace("red_budget = 5\n", ""),
     ["red_values or red_budget", "'uniform'"], []),
    (lambda text: text.replace("init = iii", "init = zz"),
     ["unknown strategy family 'zz'", "'inner'"], []),
    (keep, ["no arm named 'nope'"], ["--arm", "nope"]),
    # a step source that another key would override, so it would never run
    (lambda text: text.replace("init = ii\n", "init = ii\ncure = ii\ncure_budget = 5\n"),
     ["delta and cure_strategy", "'uniform'"], []),
    (lambda text: text.replace("[run]", "[run]\ndelta_r = 2"), ["delta and delta_r"], []),
    (lambda text: text.replace("[run]", "[run]\ndelta_b = 2"), ["delta and delta_b"], []),
    (lambda text: text.replace("[run]", "[run]\nred_step_budget = 2"),
     ["delta and red_step_budget"], []),
    (lambda text: text.replace("delta = 1.0", "delta_r = 1\nred_step_budget = 2\ndelta_b = 1"),
     ["delta_r and red_step_budget"], []),
    (lambda text: text.replace("delta = 1.0", "delta_r = 1\ndelta_b = 1\ncure = vi\n"
                               "cure_budget = 5"),
     ["delta_b and cure_strategy"], []),
], ids=["no-network", "red-length", "black-length", "unparsed", "delta-nan", "delta-inf",
        "delta-negative", "budget-nan", "ba-nodes-unparsed", "ba-seed-unparsed",
        "ba-seed-negative", "ba-m-negative", "ba-m-zero", "ba-m-not-below-nodes",
        "descent-iterations-negative", "jobs-negative", "jobs-zero", "no-red",
        "family-unknown", "arm-unknown",
        "delta-with-cure", "delta-with-delta-r", "delta-with-delta-b",
        "delta-with-red-step-budget", "delta-r-with-red-step-budget", "delta-b-with-cure"])
def test_bad_config_is_usage_error(p5_file, tmp_path, capsys, edit, words, flags):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(edit(CONFIG.format(net=p5_file)))
    assert main(["init-run", "--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and all(w in err for w in words)
    assert "Traceback" not in err


BAD_MASSES = [("--red", "uniform:abc"), ("--black", "uniform:nan"), ("--red", "uniform:inf"),
              ("--black", "budget:-3"), ("--red", "1,2"), ("--black", "1,x,1"),
              ("--red", "1,-1,1")]


@pytest.mark.parametrize("flag, value", [
    ("--budget-b", "-1"), ("--budget-b", "nan"), ("--budget-r", "inf"),
    ("--rounds", "0"), ("--tol", "-1"), ("--tol", "nan"), *BAD_MASSES,
])
def test_game_bad_flag_is_usage_error(p3_file, capsys, flag, value):
    args = {"--budget-b": "6", "--budget-r": "6", flag: value}
    argv = ["game", "--net", str(p3_file), "--red", "uniform:10", "--black", "uniform:10"]
    assert main(argv + [tok for item in args.items() for tok in item]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage error: {flag} ")


@pytest.mark.parametrize("flag, value", [
    *BAD_MASSES, ("--x", "uniform:nan"), ("--x", "uniform:inf"), ("--x", "uniform:-1"),
    ("--y", "1,2,abc"), ("--y", "1"), ("--delta", "-1"), ("--delta", "nan"),
    ("--delta", "inf"), ("--n", "0"), ("--cap", "-1"),
])
def test_exact_bad_flag_is_usage_error(p3_file, capsys, flag, value):
    args = {"--red": "uniform:1", "--black": "uniform:1", "--x": "uniform:1",
            "--y": "uniform:1", flag: value}
    argv = ["exact", "--net", str(p3_file), "--exposure"]
    assert main(argv + [tok for item in args.items() for tok in item]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage error: {flag} ")


@pytest.mark.parametrize("flag, value", [
    ("--m", "0"), ("--m", "-1"), ("--nodes", "1"), ("--nodes", "0"), ("--seed", "-1"),
])
def test_gen_bad_flag_is_usage_error(tmp_path, capsys, flag, value):
    args = {"--nodes": "10", "--m": "1", flag: value}
    argv = ["gen", "--out", str(tmp_path / "net.adj")]
    assert main(argv + [tok for item in args.items() for tok in item]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage error: {flag} ")
    assert not (tmp_path / "net.adj").exists()


@pytest.mark.parametrize("edit, line, reason", [
    (lambda text: "seed = 1\n" + text, 1, "no [section] header above this line"),
    (lambda text: text + "[run]\n", 18, "section [run] given twice"),
    (lambda text: text.replace("seed = 3", "seed = 3\nseed = 4"), 9,
     "key 'seed' given twice in [run]"),
    (lambda text: text.replace("seed = 3", "seed"), 8, "neither a [section] header nor key = value"),
], ids=["no-section-header", "section-twice", "key-twice", "no-equals"])
def test_unreadable_config_is_usage_error(p5_file, tmp_path, capsys, edit, line, reason):
    """A config configparser cannot read exits 1 with one line naming the
    file and the line."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(edit(CONFIG.format(net=p5_file)))
    assert main(["compare", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"usage error: {cfg}, line {line}: {reason}\n"


def test_config_percent_is_literal(p5_file, tmp_path, capsys):
    cfg = tmp_path / "percent.ini"
    cfg.write_text(CONFIG.format(net=p5_file).replace("red_budget = 5", "red_budget = 5%(x)s"))
    assert main(["compare", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "usage error: cannot parse red_budget = '5%(x)s'\n"


@pytest.mark.parametrize("argv, name", [
    (["gen", "--nodes", "4000000000", "--m", "1", "--out", "never.adj"], "generate_barabasi_albert"),
    (["inspect", "--net", "{p5}"], "_reach_levels"),
], ids=["gen", "inspect-closeness"])
def test_out_of_memory_exits_2(p5_file, monkeypatch, capsys, argv, name):
    """Running out of memory exits 2 with one line naming the subcommand;
    the allocation is made to fail, never made."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(graph, name, exhausted)
    assert main([arg.format(p5=p5_file) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {argv[0]} ran out of memory\n"


@pytest.mark.parametrize("ids, message", [
    ("2 99999999999999999999", "99999999999999999999 nodes exceed the 3037000499 a network can hold"),
    ("2 3000000000", "node 3 is on no edge (2999999997 of nodes 1..3000000000 are on none)"),
], ids=["beyond-int64", "gapped"])
def test_edge_list_with_a_huge_id_exits_2(tmp_path, capsys, ids, message):
    path = tmp_path / "huge.edges"
    path.write_text(f"1 2\n{ids}\n")
    assert main(["inspect", "--net", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
