#!/usr/bin/env python3
"""polyanet benchmark.

One run of one workload, from the root of a checkout:

    python3 bench/run.py --workload mc-ba100 --seed 1 --seconds 15 --trace 0

prints a JSON detail line (environment, every operation with its time and
outcome, workload figures) and then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.

Steadiness mode runs every workload k times, each in a fresh interpreter,
and prints each end-to-end metric's median, quartiles and spread against
its bound:

    python3 bench/run.py --steady 10 --seed 1

``--write-inputs DIR`` writes the networks and the CLI config of every
workload to DIR.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)  # inherited by the CLI subprocesses too

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("mc-ba100", "structure-ba1363", "optimize-game")

# Workload figures printed on the detail line: name -> operations summed.
FIGURES = {
    "mc-ba100": {"cli_compare_s": ["cli compare --jobs 2"]},
    "structure-ba1363": {"cli_inspect_s": ["cli inspect BA(1363,1)", "cli inspect BA(1363,10)"]},
    "optimize-game": {
        "init_opt_s": ["optimize_init BA(100,1)"],
        "exposure_build_s": ["ExposureObjective BA(100,1)"],
        "cure_step_s": ["optimize_cure_step BA(30,1)"],
        "game_s": ["nash_solve BA(30,1)"],
    },
}


def load_spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else {}


def parse_args(argv=None):
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.get("run_seconds", 15))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="K",
                   help="run each workload K times (seeds SEED..SEED+K-1) and report spreads")
    p.add_argument("--write-inputs", metavar="DIR",
                   help="write every workload's networks and CLI config to DIR")
    args = p.parse_args(argv)
    if not (args.workload or args.steady or args.write_inputs):
        p.error("need --workload, --steady or --write-inputs")
    return args


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def environment():
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "polyanet").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": NPROC, "git_sha": git_sha(),
            "src_sha256": src_hash.hexdigest()}


def git_sha():
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_name = text[5:]
    loose = ROOT / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return None


def measure(sess, workload, inp, refs, seed, seconds, max_rounds=None, cli=True):
    """Whole rounds until the next one would end past ``seconds`` (at least one)."""
    t_start = perf_counter()
    while True:
        sess.new_round()
        t0 = perf_counter()
        workload.round(sess, inp, refs, seed, cli=cli)
        last = perf_counter() - t0
        if max_rounds is not None and len(sess.rounds) >= max_rounds:
            return
        if perf_counter() - t_start + last > seconds:
            return


def round_figures(rounds):
    """Per round: run_s, cli_s and the Monte Carlo node-steps per second.

    An operation that a round repeats counts the median over its repeats:
    the k-th repeat of every operation name makes sample k, ``cli_s`` is
    the median over samples of their CLI wall time, and the node-steps rate
    the median over samples of node-steps over ``run_experiment`` time.  A
    round without repeats is one sample.  ``run_s`` is the whole round.
    """
    run_s, cli_s, mc_rate = [], [], []
    for ops in rounds:
        run_s.append(sum(op.seconds for op in ops))
        samples, seen = [], {}
        for op in ops:
            k = seen[op.name] = seen.get(op.name, -1) + 1
            if k == len(samples):
                samples.append([])
            samples[k].append(op)
        clis = [c for c in (sum(op.parts.get("cli", 0.0) for op in sample)
                            for sample in samples) if c > 0]
        cli_s.append(statistics.median(clis) if clis else 0.0)
        rates = []
        for sample in samples:
            steps = sum(op.node_steps for op in sample)
            secs = sum(op.parts.get("run_experiment", 0.0) for op in sample)
            if steps and secs > 0:
                rates.append(steps / secs)
        mc_rate.append(statistics.median(rates) if rates else 0.0)
    return run_s, cli_s, mc_rate


def op_details(rounds):
    out = {}
    for ops in rounds:
        for op in ops:
            rec = out.setdefault(op.name, {"seconds": [], "failed": None, "info": op.info})
            rec["seconds"].append(op.seconds)
            rec["failed"] = rec["failed"] or op.failed
    for rec in out.values():
        rec["seconds"] = statistics.median(rec["seconds"])
    return out


def tail(durations):
    """Median, and for >= 40 samples the highest percentile with ten beyond it."""
    import numpy as np

    d = np.asarray(durations)
    out = {"n": int(d.shape[0]), "p50": float(np.median(d))}
    if d.shape[0] >= 40:
        q = 1.0 - 10.0 / d.shape[0]
        out[f"p{100 * q:.6g}"] = float(np.quantile(d, q))
    return out


def cli_startup_s():
    """Interpreter start plus ``import polyanet.cli``, median of 3."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import polyanet.cli"], env=env, check=True,
                       timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


IMPORT_PROBE = ("from time import perf_counter as c; t = c(); "
                "import polyanet, polyanet.cli; print(c() - t)")


def import_s():
    """Import time of polyanet in a fresh interpreter, median of SETUP_REPEATS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                  capture_output=True, text=True, timeout=60).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def in_process_s(rounds, names):
    """Median over rounds of the time of the operations named in ``names``."""
    return statistics.median(sum(op.seconds for op in ops if op.name in names)
                             for ops in rounds)


def op_info(sess, op_name, key):
    """Median over rounds of one figure an operation recorded (0 if none)."""
    values = [op.info[key] for ops in sess.rounds for op in ops
              if op.name == op_name and key in op.info]
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, sess, before, after):
    """Per-layer metrics of the traced rounds, per round.

    ``before`` is the untraced warm-up round and ``after`` the untraced round
    that follows the traced one, both without the operations that run or
    read a CLI subprocess.  The overhead compares the traced round's time
    in the operations ``after`` also ran with ``after``'s, so both sides
    run warm and the same work; CLI time is left out because spans inside
    the subprocesses are not recorded.
    """
    summary = tracer.summary()
    layers = tracer.layer_self()
    r = len(sess.rounds)

    def count(*names):
        return sum(summary[nm]["count"] for nm in names if nm in summary) / r

    def total(name):
        return summary[name]["total_s"] / r if name in summary else 0.0

    def p50(name):
        return tail(summary[name]["durations"])["p50"] if name in summary else 0.0

    def tail_q(name):
        """The tail percentile of ``tail`` (0 below 40 samples)."""
        t = tail(summary[name]["durations"]) if name in summary else {}
        return next((v for k, v in t.items() if k not in ("n", "p50")), 0.0)

    shared = {op.name for ops in after for op in ops}
    traced_s, base_s = in_process_s(sess.rounds, shared), in_process_s(after, shared)
    figures = {k: statistics.median(v) for k, v in sess.figures.items()}
    init_iterations = sum(op_info(sess, f"optimize_init BA(100,{m})", "iterations")
                          for m in (1, 10))
    init_evals = tracer.count_within("oracle.infection_rate_time1", "optimize.optimize_init") / r
    metrics = {
        "graph.self_s": (layers.get("graph", 0.0) / r, "s"),
        "graph.outer_nodes_s": (p50("graph.outer_nodes"), "s"),
        "graph.closeness_s": (p50("graph.closeness_centrality"), "s"),
        "graph.target_layered_s": (p50("graph.target_set_layered"), "s"),
        "graph.target_dense_s": (p50("graph.target_set_dense"), "s"),
        "graph.closeness_calls": (count("graph.closeness_centrality"), "count"),
        "policies.self_s": (layers.get("policies", 0.0) / r, "s"),
        "policies.init_allocation_s": (total("policies.init_allocation"), "s"),
        "policies.cure_allocator_build_s": (total("policies.cure_allocator"), "s"),
        "policies.cure_policy_call_us_p50": (p50("policies.cure_policy") * 1e6, "us"),
        "policies.cure_policy_call_us_tail": (tail_q("policies.cure_policy") * 1e6, "us"),
        "engine.self_s": (layers.get("engine", 0.0) / r, "s"),
        "engine.step_us_p50": (p50("engine.UrnState.step") * 1e6, "us"),
        "engine.step_us_tail": (tail_q("engine.UrnState.step") * 1e6, "us"),
        "engine.steps": (count("engine.UrnState.step"), "count"),
        "harness.self_s": (layers.get("harness", 0.0) / r, "s"),
        "harness.run_experiment_s": (total("harness.run_experiment"), "s"),
        "harness.trial_loop_self_s": (summary["harness.run_experiment"]["self_s"] / r
                                      if "harness.run_experiment" in summary else 0.0, "s"),
        "harness.emit_s": (total("harness.emit"), "s"),
        "oracle.self_s": (layers.get("oracle", 0.0) / r, "s"),
        "oracle.calls": (count(*[nm for nm in summary if nm.startswith("oracle.")]), "count"),
        "oracle.infection_rate_time1_us_p50": (p50("oracle.infection_rate_time1") * 1e6, "us"),
        "oracle.infection_rate_time1_us_tail": (tail_q("oracle.infection_rate_time1") * 1e6,
                                                "us"),
        "oracle.infection_rate_time1_calls": (count("oracle.infection_rate_time1"), "count"),
        "oracle.exposure_build_s": (total("oracle.ExposureObjective.__init__"), "s"),
        "oracle.exposure_rows": (figures.get("oracle.exposure_rows", 0), "count"),
        "oracle.exposure_nnz": (figures.get("oracle.exposure_nnz", 0), "count"),
        "oracle.exposure_bytes": (figures.get("oracle.exposure_bytes", 0), "B"),
        "oracle.exposure_value_grad_ms": (p50("oracle.ExposureObjective.value_and_gradients")
                                          * 1e3, "ms"),
        "oracle.exposure_calls": (count("oracle.ExposureObjective.value",
                                        "oracle.ExposureObjective.value_and_gradients"), "count"),
        "optimize.self_s": (layers.get("optimize", 0.0) / r, "s"),
        "optimize.calls": (count("optimize.optimize_init", "optimize.optimize_cure_step",
                                 "optimize.nash_solve"), "count"),
        "optimize.fw_iterations": (tracer.fw_iterations / r, "count"),
        "optimize.init_iterations": (op_info(sess, "optimize_init BA(100,1)", "iterations"),
                                     "count"),
        "optimize.init_gap": (op_info(sess, "optimize_init BA(100,1)", "gap"), "1"),
        "optimize.evals_per_iteration": (init_evals / init_iterations if init_iterations else 0.0,
                                         "count"),
        "optimize.cure_step_iterations": (op_info(sess, "optimize_cure_step BA(30,1)",
                                                  "iterations"), "count"),
        "optimize.nash_rounds": (op_info(sess, "nash_solve BA(30,1)", "rounds"), "count"),
        "optimize.nash_exploitability": (op_info(sess, "nash_solve BA(30,1)", "exploitability"),
                                         "1"),
        "cli.wall_s": (statistics.median(round_figures(sess.rounds)[1]), "s"),
        "trace.overhead_pct": (100.0 * (traced_s / base_s - 1.0), "%"),
        "trace.spans": (len(tracer.start) / r, "count"),
    }
    spans = {nm: {"count": rec["count"], "self_s": rec["self_s"] / r, **tail(rec["durations"])}
             for nm, rec in summary.items()}
    return metrics, {"layer_self_s": {k: v / r for k, v in layers.items()}, "spans": spans,
                     "in_process_s": {"warm_up": in_process_s(before, shared), "traced": traced_s,
                                      "untraced": base_s}}


def run_one(args):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import numpy as np
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            d = work / f"setup{k}"
            d.mkdir(parents=True)
            t0 = perf_counter()
            inp = workload.setup(d)
            setup_times.append(perf_counter() - t0)
        imports = import_s()
        refs = workload.references(inp)
        sess = workloads.Session()
        measure(sess, workload, inp, refs, args.seed, args.seconds,
                max_rounds=1 if args.trace else None, cli=not args.trace)
        # A traced run counts and reports its traced round; the untraced
        # rounds around it are checked but not counted.
        measured, support = sess.rounds, []
        detail = {}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.active = True
            d = work / "setup-traced"
            d.mkdir()
            workload.setup(d)
            tracer.active = False
            setup_spans = tracer.summary()
            tracer.clear()
            traced = workloads.Session(tracer)
            measure(traced, workload, inp, refs, args.seed, args.seconds, max_rounds=1)
            tracer.uninstall()
            after = workloads.Session()
            measure(after, workload, inp, refs, args.seed, args.seconds, max_rounds=1,
                    cli=False)
            measured, support = traced.rounds, sess.rounds + after.rounds
            metrics, detail = layer_metrics(tracer, traced, sess.rounds, after.rounds)
            for metric, span in (("graph.generate_s", "graph.generate_barabasi_albert"),
                                 ("graph.load_s", "graph.load_network")):
                metrics[metric] = (float(np.median(setup_spans[span]["durations"])), "s")
            metrics["cli.startup_s"] = (cli_startup_s(), "s")
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.npz"
            tracer.save(trace_path)
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            run_s, cli_s, mc_rate = round_figures(sess.rounds)
            metrics = {
                "setup_s": (imports + statistics.median(setup_times), "s"),
                "run_s": (statistics.median(run_s), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "mc_node_steps_per_s": (statistics.median(mc_rate), "1/s"),
                "cli_s": (statistics.median(cli_s), "s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for ops in measured for op in ops]
    details = op_details(measured)
    figures = {name: sum(details[o]["seconds"] for o in names)
               for name, names in FIGURES[args.workload].items()}
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(measured) + len(support), "env": environment(), "import_s": imports,
        "setup_inputs_s": setup_times, "figures": figures, "ops": details,
    })
    result = {
        "correct": not any(op.kind in ("check", "raised")
                           for ops in measured + support for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed is not None for op in ops),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(detail, default=float))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Steadiness mode
# ---------------------------------------------------------------------------

def run_subprocess(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def steady(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    report = {}
    for workload in WORKLOAD_NAMES:
        runs = []
        for k in range(args.steady):
            t0 = perf_counter()
            detail, result = run_subprocess(workload, args.seed + k, args.seconds)
            runs.append((detail, result))
            print(f"{workload} seed {args.seed + k} ({perf_counter() - t0:.1f} s): "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                  flush=True)
        rows = {}
        names = list(runs[0][1]["metrics"]) + [f"figure:{f}" for f in runs[0][0]["figures"]]
        for name in names:
            if name.startswith("figure:"):
                values = [d["figures"][name[7:]] for d, _ in runs]
            else:
                values = [r["metrics"][name]["value"] for _, r in runs]
            med, q1, q3, s = spread(values)
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": s, "bound": bound,
                          "within_third": None if bound is None else s < bound / 3}
            print(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {s:7.4f}" + ("" if bound is None else f"  bound {bound}"))
        shares = sorted({r["failed"] / r["attempted"] for _, r in runs})
        print(f"  failed share(s): {shares}; all correct: {all(r['correct'] for _, r in runs)}")
        report[workload] = {"metrics": rows, "failed_shares": shares,
                            "correct": all(r["correct"] for _, r in runs)}
    print(json.dumps(report))
    return 0


def write_inputs(args):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        d = Path(args.write_inputs) / name
        d.mkdir(parents=True, exist_ok=True)
        workload.setup(d)
        print(d)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "polyanet" / "__init__.py").is_file():
        sys.stderr.write(f"error: no polyanet sources under {SRC}; run from a full checkout\n")
        return 2
    if args.steady:
        return steady(args)
    if args.write_inputs:
        return write_inputs(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
