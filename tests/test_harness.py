import configparser
import dataclasses
import hashlib
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyanet.harness as harness
from polyanet.cli import main
from polyanet.graph import Network, generate_barabasi_albert
from polyanet.harness import (
    ExperimentConfig,
    SummarySeries,
    build_configs,
    emit,
    load_config_file,
    run_arms,
    run_experiment,
    trial_generator,
)
from polyanet.oracle import infection_rate_time1
from polyanet.policies import FAMILIES

from support import parse_summary_csv



def single_node():
    return Network(np.zeros((1, 1), dtype=bool))


BASE = dict(steps=4, trials=200, seed=11, red_values=(1.0, 1.0, 1.0),
            black_values=(1.0, 1.0, 1.0), delta=1.0)


def test_config_validation():
    with pytest.raises(ValueError, match="steps"):
        ExperimentConfig(steps=0, trials=1, red_budget=1.0, delta=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ExperimentConfig(steps=1, trials=1, red_budget=-1.0, delta=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be finite"):
            ExperimentConfig(steps=1, trials=1, red_budget=1.0, delta=bad)
        with pytest.raises(ValueError, match="cure_budget must be finite"):
            ExperimentConfig(steps=1, trials=1, red_budget=1.0, cure_budget=bad)
        with pytest.raises(ValueError, match="black_values must be finite"):
            ExperimentConfig(steps=1, trials=1, red_budget=1.0, black_values=(1.0, bad))
    with pytest.raises(ValueError, match="red_values or red_budget"):
        ExperimentConfig(steps=1, trials=1, delta=1.0)
    with pytest.raises(ValueError, match="red side"):
        ExperimentConfig(steps=1, trials=1, red_budget=1.0, delta_b=1.0)
    with pytest.raises(ValueError, match="black side"):
        ExperimentConfig(steps=1, trials=1, red_budget=1.0, delta_r=1.0)
    with pytest.raises(ValueError, match="init_budget"):
        ExperimentConfig(steps=1, trials=1, red_budget=1.0, delta=1.0,
                         init_strategy="ii")
    with pytest.raises(ValueError, match="descent_iterations must be >= 1"):
        ExperimentConfig(steps=1, trials=1, red_budget=1.0, delta=1.0, descent_iterations=0)
    for key in ("trials", "steps"):  # rejected before anything is allocated
        with pytest.raises(ValueError, match=rf"trials \* steps = .*{10**20}.* overflows"):
            ExperimentConfig(**{"steps": 1, "trials": 1, key: 10**20}, red_budget=1.0, delta=1.0)
    with pytest.raises(ValueError, match="overflows an array"):
        ExperimentConfig(steps=2**31, trials=2**31, red_budget=1.0, delta=1.0)


def test_mass_overflow_stops_the_run_naming_the_arm(p3, monkeypatch):
    """Reinforcement that overflows the masses fails after the last step of
    each block, here on two threads of one-trial blocks, rather than
    drawing black from NaN proportions."""
    monkeypatch.setattr(harness, "_BLOCK_CELLS", p3.node_count)
    monkeypatch.setattr(harness, "_threads_per_process", lambda processes: 2)
    cfg = ExperimentConfig(steps=3, trials=4, label="huge", red_budget=3.0, delta=1e308)
    with pytest.raises(ValueError, match="^arm 'huge': masses overflow by step 3$"):
        run_experiment(p3, cfg)


def test_trial_streams_are_scheduling_independent(p3):
    cfg = ExperimentConfig(**BASE)
    whole = run_experiment(p3, cfg)
    from polyanet.harness import _simulate, resolve_initialization
    red, black = resolve_initialization(p3, cfg)
    first = _simulate(p3, cfg, red, black, range(0, 120), 0)
    second = _simulate(p3, cfg, red, black, range(120, 200), 0)
    assert (np.concatenate([first, second]) == whole.per_trial_means).all()


def test_parallel_equals_sequential(p3):
    cfg = ExperimentConfig(**BASE)
    seq = run_experiment(p3, cfg, n_jobs=1)
    par = run_experiment(p3, cfg, n_jobs=2)
    assert (seq.per_trial_means == par.per_trial_means).all()
    assert (seq.mean_infection == par.mean_infection).all()
    assert (seq.stderr == par.stderr).all()
    for bad in (0, -4):
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            run_experiment(p3, cfg, n_jobs=bad)
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            run_arms(p3, [cfg], n_jobs=bad)


# sha256 of per_trial_means.tobytes(): the Monte Carlo outputs are pinned
# byte for byte, so that any change to how uniforms are drawn or urns are
# advanced shows here even when it keeps the one-trial reference intact.
PINNED_RUNS = [
    ((100, 1, 7), dict(steps=23, trials=700, seed=11, red_budget=1000.0, init_strategy="ii",
                       init_budget=1000.0, delta=5.0),
     "f0e6041d7bac267e6f8e38cef1bdf4cb3b07b2ea0e116a915c655d8fbfb6ee6d"),
    ((100, 1, 7), dict(steps=23, trials=50, seed=11, red_budget=1000.0, init_strategy="iv",
                       init_budget=1000.0, red_step_budget=100.0, cure_strategy="vi",
                       cure_budget=100.0),
     "36d2cc96ac9e6e98054919546790971241743a1ed16a648e8651e68b08e4eaaf"),
    ((200, 3, 5), dict(steps=23, trials=400, seed=11, red_budget=2000.0, init_strategy="vi",
                       init_budget=1000.0, delta_r=2.0, delta_b=3.0),
     "b9c2bbd2539ebea03987423034049605acde98f4d0422c4d7b27f8948cd5e5e3"),
]


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("ba, kw, digest", PINNED_RUNS, ids=["init-ii", "cure-vi", "dr-ne-db"])
def test_per_trial_means_are_pinned(ba, kw, digest, n_jobs, monkeypatch):
    """Blocks run on two threads per process, whatever the CPU count."""
    monkeypatch.setattr(harness, "_threads_per_process", lambda processes: 2)
    net = generate_barabasi_albert(*ba)
    means = run_experiment(net, ExperimentConfig(**kw), n_jobs=n_jobs).per_trial_means
    assert hashlib.sha256(means.tobytes()).hexdigest() == digest


def test_rerun_is_byte_identical(p3, tmp_path):
    cfg = ExperimentConfig(**BASE)
    a = emit(run_experiment(p3, cfg), "csv", tmp_path / "a.csv")
    b = emit(run_experiment(p3, cfg, n_jobs=2), "csv", tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_empirical_rate_tracks_exact_time1(p3):
    cfg = ExperimentConfig(steps=1, trials=4000, seed=5,
                           red_values=(1.0, 1.0, 1.0), black_values=(1.0, 0.0, 1.0),
                           delta=1.0)
    series = run_experiment(p3, cfg)
    exact, _ = infection_rate_time1(p3, np.ones(3), np.array([1.0, 0.0, 1.0]))
    assert abs(series.mean_infection[0] - exact) <= 3 * series.stderr[0]


def test_symmetric_single_node_stays_at_half():
    cfg = ExperimentConfig(steps=5, trials=3000, seed=9, red_values=(10.0,),
                           black_values=(10.0,), delta=5.0)
    series = run_experiment(single_node(), cfg)
    assert (np.abs(series.mean_infection - 0.5) <= 3 * series.stderr + 1e-12).all()


TWO_UNIFORM_ARMS = (dict(steps=3, trials=50, seed=2, red_budget=3.0, init_budget=3.0,
                         delta=1.0), [("a", {"init": "ii"}), ("b", {"init": "ii"})])


def test_identical_arms_share_uniform_streams(p3):
    result = run_arms(p3, build_configs(*TWO_UNIFORM_ARMS))
    a, b = result.arms
    assert (a.per_trial_means == b.per_trial_means).all()
    diff = result.difference(0, 1)
    assert (diff.mean_difference == 0).all()
    assert (diff.stderr_paired == 0).all()


def test_independent_arms_differ(p3):
    result = run_arms(p3, build_configs(*TWO_UNIFORM_ARMS), independent=True)
    a, b = result.arms
    assert not (a.per_trial_means == b.per_trial_means).all()


def test_inner_targeting_beats_uniform_at_time1(p5):
    """At time 1 the exact rates are ordered; the paired empirical series
    agrees within noise."""
    budget = 5.0
    run = dict(steps=1, trials=3000, seed=21, red_budget=budget, init_budget=budget, delta=1.0)
    result = run_arms(p5, build_configs(run, [("uniform", {"init": "ii"}),
                                              ("inner", {"init": "iii"})]))
    uniform, inner = result.arms
    red = np.full(5, 1.0)
    exact_uniform, _ = infection_rate_time1(p5, red, np.full(5, 1.0))
    inner_alloc = np.array([0.0, budget / 3, budget / 3, budget / 3, 0.0])
    exact_inner, _ = infection_rate_time1(p5, red, inner_alloc)
    assert exact_inner < exact_uniform
    diff = result.difference(0, 1)
    expected = exact_uniform - exact_inner
    assert abs(diff.mean_difference[0] - expected) <= 3 * diff.stderr_paired[0]


def test_cure_strategy_runs_and_spends_budget(p5):
    cfg = ExperimentConfig(steps=3, trials=20, seed=4, red_budget=5.0,
                           black_values=(1.0, 1.0, 1.0, 1.0, 1.0),
                           red_step_budget=5.0, cure_strategy="iv", cure_budget=5.0)
    series = run_experiment(p5, cfg)
    assert series.mean_infection.shape == (3,)


def test_optimizer_backed_curing_in_the_loop(p3, monkeypatch):
    """Its per-row descents are Python-bound and run slower on threads, so
    its blocks stay on the calling thread whatever the thread count."""
    cfg = ExperimentConfig(steps=2, trials=3, seed=8, red_budget=3.0,
                           black_values=(1.0, 1.0, 1.0), red_step_budget=3.0,
                           cure_strategy="i", cure_budget=3.0, descent_iterations=40)
    series = run_experiment(p3, cfg)
    assert series.mean_infection.shape == (2,)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", p3.node_count)
    monkeypatch.setattr(harness, "_threads_per_process", lambda processes: 3)
    callers = set()
    build = harness.cure_allocator

    def recording_allocator(spec, net, budget):
        policy = build(spec, net, budget)

        def record_caller(t, state, infection_step):
            callers.add(threading.current_thread())
            return policy(t, state, infection_step)
        return record_caller

    monkeypatch.setattr(harness, "cure_allocator", recording_allocator)
    again = run_experiment(p3, cfg)
    assert (series.per_trial_means == again.per_trial_means).all()
    assert callers == {threading.current_thread()}


THREADED_CURE = """
[network]
ba_nodes = 12
ba_seed = 3

[run]
steps = 40
trials = 5
seed = 6
red_budget = 12
black_values = 1,1,1,1,1,1,1,1,1,1,1,1
red_step_budget = 12
cure_budget = 12

[arm:weighted]
cure = vi
"""


def test_thread_count_honours_a_cpu_quota(tmp_path, monkeypatch):
    """A cgroup v2 ``cpu.max`` caps the CPUs at ceil(quota / period);
    ``max``, a missing file or one that does not parse sets no cap."""
    cpu_max = tmp_path / "cpu.max"
    for text, quota in (("max 100000\n", None), ("150000 100000\n", 2), ("50000 100000\n", 1),
                        ("400000 100000\n", 4), ("100000\n", None), ("x 100000\n", None)):
        cpu_max.write_text(text)
        assert harness._cpu_quota(cpu_max) == quota, text
    assert harness._cpu_quota(tmp_path / "missing") is None
    monkeypatch.setattr(harness, "_CPU_MAX", cpu_max)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    cpu_max.write_text("250000 100000\n")
    assert [harness._threads_per_process(p) for p in (1, 2, 4)] == [3, 1, 1]
    cpu_max.write_text("max 100000\n")
    assert [harness._threads_per_process(p) for p in (1, 2, 4)] == [8, 4, 2]
    cpu_max.unlink()
    assert harness._threads_per_process(1) == 8


def test_threaded_blocks_join_and_pass_a_block_error_on(tmp_path, capsys, monkeypatch):
    """Blocks of 2, 2 and 1 trials on three threads, which may outnumber
    the CPUs, switching often: the run equals the one-thread run.  An error
    that the cure policy raises at the first step of the one-trial block,
    while the other blocks wait there for it, reaches the caller and the
    CLI (exit 2) as itself, and the other blocks stop soon after instead of
    running their 40 steps.  No thread outlives any run."""
    path = tmp_path / "cure.ini"
    path.write_text(THREADED_CURE)
    _, run, arms = load_config_file(path)
    net = generate_barabasi_albert(12, 1, 3)
    (cfg,) = build_configs(run, arms)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 2 * net.node_count)
    monkeypatch.setattr(harness, "_threads_per_process", lambda processes: 1)
    serial = run_experiment(net, cfg).per_trial_means
    monkeypatch.setattr(harness, "_threads_per_process", lambda processes: 3)
    error = ValueError("cure policy failed in one block")
    build = harness.cure_allocator
    calls = []  # per run, policy calls of each two-trial block's state

    def failing_allocator(spec, net, budget):
        policy = build(spec, net, budget)
        failed = threading.Event()
        calls.append({})

        def fail_on_one_row(t, state, infection_step):
            if state.red.shape[0] == 1:
                failed.set()
                raise error
            calls[-1][id(state)] = calls[-1].get(id(state), 0) + 1
            assert failed.wait(timeout=30)
            return policy(t, state, infection_step)
        return fail_on_one_row

    started = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert (run_experiment(net, cfg).per_trial_means == serial).all()
        assert threading.active_count() == started
        monkeypatch.setattr(harness, "cure_allocator", failing_allocator)
        with pytest.raises(ValueError) as raised:
            run_experiment(net, cfg)
        assert raised.value is error
        assert threading.active_count() == started
        capsys.readouterr()
        assert main(["compare", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {error}\n"
        assert threading.active_count() == started
        for counts in calls:
            assert len(counts) == 2 and max(counts.values()) < cfg.steps // 2
    finally:
        sys.setswitchinterval(interval)


def test_emit_csv_roundtrip_and_schema(p3, tmp_path):
    cfg = ExperimentConfig(label="demo", **BASE)
    series = run_experiment(p3, cfg)
    path = emit(series, "csv", tmp_path / "out.csv")
    text = path.read_text()
    assert text.splitlines()[0] == "time,strategy,mean_infection,stderr,trials"
    back = parse_summary_csv(text)
    assert len(back) == 1
    assert back[0].label == "demo"
    assert (back[0].mean_infection == series.mean_infection).all()
    assert (back[0].stderr == series.stderr).all()


def test_emit_json_mirrors_csv(p3):
    cfg = ExperimentConfig(label="demo", **BASE)
    series = run_experiment(p3, cfg)
    payload = json.loads(emit(series, "json"))
    assert payload["series"][0]["strategy"] == "demo"
    points = payload["series"][0]["points"]
    assert [p["time"] for p in points] == [1, 2, 3, 4]
    assert points[0]["mean_infection"] == series.mean_infection[0]


def test_emit_empty_series_is_header_only():
    assert emit([], "csv") == "time,strategy,mean_infection,stderr,trials\r\n"
    empty = SummarySeries("x", np.array([], dtype=int), np.array([]), np.array([]), 1)
    assert emit(empty, "csv").count("\r\n") == 1


def test_emit_rejects_unknown_format(p3):
    with pytest.raises(ValueError, match="format"):
        emit([], "xml")


CONFIG_TEXT = """
[network]
ba_nodes = 12
ba_m = 1
ba_seed = 3

[run]
steps = 3
trials = 10
seed = 7
red_budget = 12
init_budget = 12
delta = 1.0

[arm:uniform]
init = ii

[arm:inner]
init = iii
trials = 20
"""


def test_config_file_loading(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    net, run, arms = load_config_file(path)
    assert net.edges() == generate_barabasi_albert(12, 1, 3).edges()
    assert run["trials"] == 10
    configs = build_configs(run, arms)
    assert [c.label for c in configs] == ["uniform", "inner"]
    assert configs[0].init_strategy == "ii"
    assert configs[1].trials == 20  # arm override
    overridden = build_configs(run, arms, trials=5, seed=None)
    assert all(c.trials == 5 for c in overridden)


FLOATS = st.floats(0, 1e300)  # finite and nonnegative; str reads back exactly
VALUES = st.lists(FLOATS, min_size=1, max_size=4).map(tuple)


@st.composite
def experiment_configs(draw):
    """Any valid ExperimentConfig, every optional field set or not."""
    def maybe(values):
        return draw(st.none() | values)

    kw = dict(steps=draw(st.integers(1, 5)), trials=draw(st.integers(1, 5)),
              seed=draw(st.integers(0, 2**64)), label=draw(st.text("ab_-1.", max_size=6)),
              red_values=maybe(VALUES), black_values=maybe(VALUES),
              init_strategy=maybe(st.sampled_from(FAMILIES)),
              descent_iterations=maybe(st.integers(1, 50)))
    kw["red_budget"] = draw(FLOATS) if kw["red_values"] is None else maybe(FLOATS)
    kw["init_budget"] = draw(FLOATS) if kw["init_strategy"] else maybe(FLOATS)
    if draw(st.booleans()):
        kw["delta"] = draw(FLOATS)
    else:
        kw[draw(st.sampled_from(["delta_r", "red_step_budget"]))] = draw(FLOATS)
        kw["cure_strategy"] = maybe(st.sampled_from(FAMILIES))
        kw["cure_budget"] = draw(FLOATS) if kw["cure_strategy"] else maybe(FLOATS)
        if kw["cure_strategy"] is None:
            kw["delta_b"] = draw(FLOATS)
    return ExperimentConfig(**kw)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(cfg=experiment_configs())
def test_config_round_trips_through_a_file(cfg, tmp_path_factory):
    """Every set field, written as a key of one [arm:NAME] section, reads
    back by its annotation to the same config."""
    lines = ["[network]", "ba_nodes = 5", "[arm:a]"]
    for field in dataclasses.fields(cfg):
        v = getattr(cfg, field.name)
        if v is not None:
            text = ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
            lines.append(f"{field.name} = {text}")
    path = tmp_path_factory.getbasetemp() / "round-trip.ini"
    path.write_text("\n".join(lines) + "\n")
    net, run, arms = load_config_file(path)
    assert net.node_count == 5 and run == {}
    assert build_configs(run, arms) == [cfg]


def test_config_file_requires_network(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[run]\nsteps = 1\n")
    with pytest.raises(ValueError, match="network"):
        load_config_file(path)


def test_config_error_without_a_line_names_the_file(tmp_path, monkeypatch):
    """A configparser error that carries no line still becomes one
    ConfigError line naming the file."""
    def fails(self, filenames, encoding=None):
        raise configparser.Error("cannot read\nsecond line")

    monkeypatch.setattr(configparser.ConfigParser, "read", fails)
    with pytest.raises(harness.ConfigError) as exc:
        load_config_file(tmp_path / "x.ini")
    assert str(exc.value) == f"{tmp_path / 'x.ini'}: cannot read"


def test_trial_generator_streams_are_distinct():
    a = trial_generator(1, 0).random(8)
    b = trial_generator(1, 1).random(8)
    c = trial_generator(2, 0).random(8)
    d = trial_generator(1, 0, arm=1).random(8)
    assert not (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()
    assert (a == trial_generator(1, 0).random(8)).all()
