"""The three benchmark workloads and the bookkeeping they share.

A workload has a set-up (networks, edge-list files, CLI config) and a round:
a fixed list of operations, each timed from outside around calls into the
public polyanet functions and then checked against ``reference``.  Every
round attempts the same operations, so the share of failed operations does
not depend on the seed or on how many rounds a run makes.  ``round(...,
cli=False)`` leaves out the operations that run or read a CLI subprocess;
a traced run uses it for the untraced rounds around the traced one.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from polyanet import graph, harness, optimize, oracle, policies
from polyanet.engine import UrnState

import reference as ref
from reference import CheckFailed, require

NET_SEED = 7  # every network is generate_barabasi_albert(N, m, seed=7)
SRC = Path(__file__).resolve().parents[1] / "src"


class Unconverged(Exception):
    """An optimizer asked for a tolerance returned ``converged=False``."""


class Op:
    """One attempted operation: timed parts, outcome and figures."""

    def __init__(self, session, name):
        self.session = session
        self.name = name
        self.parts: dict[str, float] = {}
        self.node_steps = 0
        self.failed: str | None = None
        self.kind: str | None = None  # "unconverged", "check" or "raised"
        self.info: dict = {}

    @property
    def seconds(self):
        return sum(self.parts.values())

    def time(self, part, fn, *args, **kwargs):
        """Call ``fn`` as one timed part of this operation (traced if on)."""
        tracer = self.session.tracer
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.parts[part] = self.parts.get(part, 0.0) + perf_counter() - t0
            if tracer is not None:
                tracer.active = False

    def cli(self, label, argv, repeats=1):
        """Run ``python -m polyanet.cli`` ``repeats`` times as a timed part
        that counts the median wall time; returns the last stdout."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-m", "polyanet.cli", *argv]
        walls = []
        for _ in range(repeats):
            t0 = perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170)
            t1 = perf_counter()
            walls.append(t1 - t0)
            if self.session.tracer is not None:
                self.session.tracer.record(f"cli.{label}", t0, t1)
            if proc.returncode != 0:
                raise RuntimeError(f"polyanet {argv[0]} exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-300:]}")
        self.parts["cli"] = self.parts.get("cli", 0.0) + statistics.median(walls)
        return proc.stdout


class Session:
    """Operations attempted by one run, round by round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.rounds: list[list[Op]] = []
        self.figures: dict[str, list] = {}

    def new_round(self):
        self.rounds.append([])

    def op(self, name):
        return _OpContext(self, name)

    def figure(self, name, value):
        self.figures.setdefault(name, []).append(value)


class _OpContext:
    def __init__(self, session, name):
        self.op = Op(session, name)

    def __enter__(self):
        self.op.session.rounds[-1].append(self.op)
        return self.op

    def __exit__(self, exc_type, exc, tb):
        if exc is None:
            return False
        op = self.op
        if isinstance(exc, Unconverged):
            op.kind = "unconverged"
        elif isinstance(exc, CheckFailed):
            op.kind = "check"
        elif isinstance(exc, Exception):
            op.kind = "raised"
        else:
            return False
        op.failed = f"{op.kind}: {exc}"
        return True


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def read_edge_list(path):
    """The benchmark's own parser for the 1-indexed edge lists it writes."""
    edges = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            i, j = line.split()
            edges.append((int(i) - 1, int(j) - 1))
    return edges


def make_networks(sizes, out_dir):
    """Generate the BA networks, write each as an edge list and load it back;
    the workloads run on the loaded networks, as the CLI does."""
    nets, files = {}, {}
    for n, m in sizes:
        net = graph.generate_barabasi_albert(n, m, seed=NET_SEED)
        files[n, m] = graph.save_network(net, Path(out_dir) / f"ba{n}_{m}.edges", "edges")
        nets[n, m] = graph.load_network(files[n, m])
    return nets, files


def reference_graphs(files, nets):
    graphs = {}
    for (n, m), path in files.items():
        g = ref.Graph(n, read_edge_list(path))
        want = m * (m - 1) // 2 + m * (n - m)
        edges = set(map(frozenset, g.edges))
        require(len(edges) == want,
                f"BA({n},{m}): {len(g.edges)} edges written, expected {want} distinct")
        loaded = nets[n, m]
        require(loaded.node_count == n and set(map(frozenset, loaded.edges())) == edges,
                f"BA({n},{m}): load_network differs from the edge list")
        graphs[n, m] = g
    return graphs


def label(n, m):
    return f"BA({n},{m})"


# ---------------------------------------------------------------------------
# Monte Carlo arms shared by the workloads
# ---------------------------------------------------------------------------

def mc_arm(sess, key, inp, refs, *, init_family, steps, trials, seed, red_budget,
           init_budget, delta=None, cure_family=None, step_budget=None,
           descent_iterations=None, series_out=None):
    """One in-process arm: init allocation, exact time-1 oracle, run_experiment.

    Checks the allocation, the oracle against the reference time-1 rate and
    gradient, the Monte Carlo time-1 mean against the exact rate, and (for a
    curing arm) one curing allocation at the initial state.
    """
    net, g = inp["nets"][key], refs["graphs"][key]
    n = g.n
    name = f"cure:{cure_family}" if cure_family else f"init:{init_family}"
    with sess.op(f"{name} {label(*key)}") as op:
        red = np.full(n, red_budget / n)
        spec = policies.StrategySpec("init", init_family)
        black = op.time("init_allocation", policies.init_allocation, spec, net, red,
                        init_budget)
        ref.check_allocation(f"init:{init_family}", black, init_budget)
        rate, grad = op.time("oracle", oracle.infection_rate_time1, net, red, black)
        want_rate, want_grad = g.time1_rate(red, black)
        ref.check_close("infection_rate_time1", rate, want_rate, rel=1e-12)
        ref.check_close("infection_rate_time1 gradient", grad, want_grad, rel=1e-9, abs_=1e-15)
        cfg = harness.ExperimentConfig(
            steps=steps, trials=trials, seed=seed, label=name, red_budget=red_budget,
            black_values=tuple(black), delta=delta, red_step_budget=step_budget,
            cure_strategy=cure_family, cure_budget=step_budget,
            descent_iterations=descent_iterations)
        series = op.time("run_experiment", harness.run_experiment, net, cfg)
        op.node_steps = n * trials * steps
        check_series(name, series, g, red, black, trials, steps)
        if cure_family is not None:
            descent = (optimize.DescentConfig(max_iterations=descent_iterations)
                       if descent_iterations else None)
            spec = policies.StrategySpec("cure", cure_family, descent=descent)
            alloc = policies.cure_allocator(spec, net, step_budget)(1, UrnState(net, red, black))
            ref.check_allocation(name, alloc, step_budget)
        if series_out is not None:
            series_out.append(series)


def check_series(name, series, g, red, black, trials, steps):
    require(series.trials == trials and series.mean_infection.shape == (steps,),
            f"{name}: series has {series.trials} trials, {series.mean_infection.shape} points")
    require(np.all((series.mean_infection >= 0) & (series.mean_infection <= 1)),
            f"{name}: mean infection outside [0, 1]")
    rate, _ = g.time1_rate(red, black)
    ref.check_time1_mean(name, float(series.mean_infection[0]), rate,
                         g.time1_stderr(red, black, trials))


def emit_op(sess, series, steps_total):
    with sess.op("emit csv") as op:
        text = op.time("emit", harness.emit, series, "csv")
        require(len(text.splitlines()) == 1 + steps_total,
                f"emit wrote {len(text.splitlines())} lines, expected {1 + steps_total}")


# ---------------------------------------------------------------------------
# mc-ba100
# ---------------------------------------------------------------------------

INIT_FAMILIES = ("ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")
CURE_FAMILIES = ("ii", "iv", "vi", "viii")

# The README compare example, without its inline comments.
COMPARE_INI = """\
[network]
ba_nodes = 100
ba_m = 1
ba_seed = 7

[run]
steps = 50
trials = 1000
seed = 13
red_budget = 1000
init_budget = 1000
delta = 5

[arm:uniform]
init = ii

[arm:inner]
init = iii
"""


class McBa100:
    """Static init and curing arms on the paper's 100-node BA networks, plus
    the README ``compare`` run through the CLI with two worker processes."""

    name = "mc-ba100"
    sizes = ((100, 1), (100, 10))
    arm = dict(steps=50, trials=60, red_budget=1000.0, init_budget=1000.0)
    cure_step_budget = 100.0
    compare_trials = 400  # README config runs 1000; --trials keeps three CLI runs short

    def setup(self, out_dir):
        nets, files = make_networks(self.sizes, out_dir)
        config = Path(out_dir) / "compare.ini"
        config.write_text(COMPARE_INI)
        return {"nets": nets, "files": files, "config": config, "dir": Path(out_dir)}

    def references(self, inp):
        return {"graphs": reference_graphs(inp["files"], inp["nets"])}

    def round(self, sess, inp, refs, seed, cli=True):
        # `compare` runs between the two networks' arms, so that the arms are
        # spread over the round: this machine's speed drifts over seconds,
        # and one slow stretch then weighs on only part of them.
        self.arms(sess, inp, refs, seed, (100, 1))
        if cli:
            self.compare_ops(sess, inp, refs, seed)
        self.arms(sess, inp, refs, seed, (100, 10))

    def compare_ops(self, sess, inp, refs, seed):
        """``compare --jobs 2`` through the CLI, then the same arms in-process
        with ``n_jobs=1``; the two CSVs must be byte-identical."""
        csv_path = inp["dir"] / "compare-cli.csv"
        csv_path.unlink(missing_ok=True)
        with sess.op("cli compare --jobs 2") as op:
            op.cli("compare", ["compare", "--config", str(inp["config"]), "--seed", str(seed),
                               "--trials", str(self.compare_trials), "--jobs", "2",
                               "--out", str(csv_path)], repeats=3)
        with sess.op("compare in-process n_jobs=1") as op:
            net = inp["nets"][100, 1]
            _, run, arms = op.time("load_config", harness.load_config_file, inp["config"])
            cfgs = op.time("build_configs", harness.build_configs, run, arms, seed=seed,
                           trials=self.compare_trials)
            series = [op.time("run_experiment", harness.run_experiment, net, cfg)
                      for cfg in cfgs]
            op.node_steps = sum(net.node_count * c.trials * c.steps for c in cfgs)
            text = op.time("emit", harness.emit, series, "csv")
            g = refs["graphs"][100, 1]
            for cfg, s in zip(cfgs, series):
                red, black = harness.resolve_initialization(net, cfg)
                ref.check_allocation(cfg.label, black, cfg.init_budget)
                check_series(cfg.label, s, g, red, black, cfg.trials, cfg.steps)
            require(csv_path.exists() and csv_path.read_bytes() == text.encode(),
                    "compare --jobs 2 CSV differs from emit of the in-process n_jobs=1 arms")

    def arms(self, sess, inp, refs, seed, key):
        for fam in INIT_FAMILIES:
            mc_arm(sess, key, inp, refs, init_family=fam, seed=seed, delta=5.0, **self.arm)
        for fam in CURE_FAMILIES:
            mc_arm(sess, key, inp, refs, init_family="ii", cure_family=fam, seed=seed,
                   step_budget=self.cure_step_budget, **self.arm)


# ---------------------------------------------------------------------------
# structure-ba1363
# ---------------------------------------------------------------------------

class StructureBa1363:
    """Structural analysis on the 1363-node stand-in for the Facebook network:
    ``polyanet inspect`` on BA(1363,1) and BA(1363,10), then weighted arms on
    BA(1363,1)."""

    name = "structure-ba1363"
    sizes = ((1363, 1), (1363, 10))
    arm = dict(steps=100, trials=200, red_budget=13630.0, init_budget=13630.0)
    cure_step_budget = 1363.0

    def setup(self, out_dir):
        nets, files = make_networks(self.sizes, out_dir)
        return {"nets": nets, "files": files, "dir": Path(out_dir)}

    def references(self, inp):
        graphs = reference_graphs(inp["files"], inp["nets"])
        return {"graphs": graphs,
                "closeness": {k: g.closeness() for k, g in graphs.items()},
                "outer": {k: g.outer_nodes() for k, g in graphs.items()}}

    def round(self, sess, inp, refs, seed, cli=True):
        series = []
        key = (1363, 1)

        def init_arm(fam):
            mc_arm(sess, key, inp, refs, init_family=fam, seed=seed, delta=5.0,
                   series_out=series, **self.arm)

        def cure_arm(fam):
            mc_arm(sess, key, inp, refs, init_family="ii", cure_family=fam, seed=seed,
                   step_budget=self.cure_step_budget, series_out=series, **self.arm)

        # The arms sit between the inspect runs, not after them, so that they
        # are spread over the round: this machine's speed drifts over
        # seconds, and one slow stretch then weighs on only part of them.
        init_arm("iv")
        if cli:
            self.inspect_op(sess, inp, refs, (1363, 1))
        init_arm("viii")
        cure_arm("iv")
        if cli:
            self.inspect_op(sess, inp, refs, (1363, 10))
        cure_arm("vi")
        emit_op(sess, series, 4 * self.arm["steps"])

    def inspect_op(self, sess, inp, refs, key):
        out = inp["dir"] / f"inspect{key[0]}_{key[1]}.json"
        out.unlink(missing_ok=True)
        with sess.op(f"cli inspect {label(*key)}") as op:
            op.cli("inspect", ["inspect", "--net", str(inp["files"][key]), "--out", str(out)])
            check_inspect(json.loads(out.read_text()), refs["graphs"][key],
                          refs["closeness"][key], refs["outer"][key])


def check_inspect(payload, g, closeness, outer):
    n = g.n
    require(payload["nodes"] == n and payload["edges"] == len(g.edges),
            f"inspect reports {payload['nodes']} nodes / {payload['edges']} edges")
    got_outer = np.array(payload["outer"], dtype=np.int64) - 1
    require(np.array_equal(got_outer, outer),
            f"outer nodes: {got_outer.shape[0]} reported, {outer.shape[0]} by containment")
    inner = np.setdiff1d(np.arange(n), outer)
    require(np.array_equal(np.array(payload["inner"], dtype=np.int64) - 1, inner),
            "inner nodes are not the complement of the outer nodes")
    ref.check_close("closeness", payload["closeness"], closeness, rel=1e-12)
    for key in ("layered_targets", "dense_targets", "dense_targets_pruned"):
        nodes = np.array(payload[key], dtype=np.int64) - 1
        require(nodes.shape[0] > 0 and g.dominated(nodes), f"{key} does not dominate the graph")
    require(set(payload["dense_targets_pruned"]) <= set(payload["dense_targets"]),
            "pruned dense set is not a subset of the dense set")


# ---------------------------------------------------------------------------
# optimize-game
# ---------------------------------------------------------------------------

def objective_size(obj):
    """Rows, stored nonzeros and bytes of an exposure objective, from its
    array attributes."""
    rows, nnz, nbytes = 0, 0, 0
    for val in vars(obj).values():
        if isinstance(val, np.ndarray):
            nbytes += val.nbytes
        elif hasattr(val, "indptr"):
            nbytes += val.data.nbytes + val.indices.nbytes + val.indptr.nbytes
            rows = max(rows, val.shape[0])
            nnz += val.nnz
    return rows, nnz, nbytes


class OptimizeGame:
    """Optimizer-backed allocations and the curing/infection game."""

    name = "optimize-game"
    sizes = ((100, 1), (100, 10), (30, 1))
    mass = 10.0           # red and black mass per node of every urn state here
    init_budget = 1000.0
    init_gap = 1e-5
    # Iteration caps: the default 5000 on BA(100,1), which converges after
    # 3868; 2000 on BA(100,10), which reaches only 4e-5 even at 5000, so
    # the operation that fails costs 5 s a round instead of 13 s.  A faster
    # descent shows as a pass here only once it reaches 1e-5 within 2000.
    init_caps = {(100, 1): 5000, (100, 10): 2000}
    cure_budget = 90.0    # optimize_cure_step; infection step cure_budget / N per node
    cure_gap = 1e-6
    game_budget = 75.0    # both players in nash_solve
    evaluations = 8       # value_and_gradients calls on the BA(100,1) objective
    loop_trials = 2       # per in-loop cure i arm; 2 steps each

    def setup(self, out_dir):
        nets, files = make_networks(self.sizes, out_dir)
        return {"nets": nets, "files": files, "dir": Path(out_dir)}

    def references(self, inp):
        graphs = reference_graphs(inp["files"], inp["nets"])
        exposure = {k: ref.ExposureReference(g, np.full(g.n, self.mass), np.full(g.n, self.mass))
                    for k, g in graphs.items() if k != (100, 10)}
        return {"graphs": graphs, "outer": {k: g.outer_nodes() for k, g in graphs.items()},
                "exposure": exposure}

    def state(self, net):
        n = net.node_count
        return UrnState(net, np.full(n, self.mass), np.full(n, self.mass))

    def round(self, sess, inp, refs, seed, cli=True):
        nets, graphs = inp["nets"], refs["graphs"]
        net30, exp30 = nets[30, 1], refs["exposure"][30, 1]
        series = []

        # The short operations, the in-loop cure i arm (~1 s) and `exact`
        # (~0.5 s, mostly interpreter start), run once after each long one.
        # This machine's speed changes over a few seconds, so five samples
        # spread over the round vary far less than five in one burst did,
        # and the round counts the median of the five (see round_figures).
        def short_ops():
            mc_arm(sess, (30, 1), inp, refs, init_family="ii", cure_family="i", seed=seed,
                   steps=2, trials=self.loop_trials, red_budget=30 * self.mass,
                   init_budget=30 * self.mass, step_budget=self.cure_budget,
                   descent_iterations=30, series_out=series)
            if cli:
                self.cli_exact_op(sess, inp["files"][30, 1], graphs[30, 1], exp30, seed)

        for key in ((100, 1), (100, 10)):
            self.init_op(sess, key, nets[key], graphs[key], refs["outer"][key])
            short_ops()
        self.exposure_ops(sess, nets[100, 1], refs["exposure"][100, 1], seed)
        short_ops()
        self.cure_step_op(sess, net30, exp30)
        short_ops()
        self.game_op(sess, net30, exp30)
        short_ops()
        emit_op(sess, series, 2 * len(series))

    def init_op(self, sess, key, net, g, outer):
        with sess.op(f"optimize_init {label(*key)}") as op:
            red = np.full(g.n, self.mass)
            cfg = optimize.DescentConfig(gap_tol=self.init_gap, max_iterations=self.init_caps[key])
            res = op.time("optimize", optimize.optimize_init, net, red, self.init_budget, cfg)
            op.info = {"gap": res.gap, "iterations": res.iterations}
            alloc = res.allocation
            ref.check_allocation(op.name, alloc, self.init_budget)
            value, grad = g.time1_rate(red, alloc)
            ref.check_close("optimize_init value", res.value, value, rel=1e-12)
            require(alloc[outer].sum() < 1e-3 * self.init_budget,
                    f"optimize_init puts {alloc[outer].sum():.3g} on outer nodes")
            gap = ref.simplex_gap(grad, alloc, self.init_budget)
            op.info["recomputed_gap"] = gap
            if not res.converged:
                # The reported gap is then not vouched for; it is kept in info.
                raise Unconverged(f"gap {res.gap:.3g} > {self.init_gap:g} after "
                                  f"{res.iterations} iterations")
            ref.check_close("optimize_init gap", res.gap, gap, rel=1e-6, abs_=1e-12)
            require(gap <= self.init_gap, f"converged with recomputed gap {gap:.3g}")

    def exposure_ops(self, sess, net, exp_ref, seed):
        n = net.node_count
        obj = None
        with sess.op("ExposureObjective BA(100,1)") as op:
            obj = op.time("exposure_build", oracle.ExposureObjective, self.state(net))
            rows, nnz, nbytes = objective_size(obj)
            sess.figure("oracle.exposure_rows", rows)
            sess.figure("oracle.exposure_nnz", nnz)
            sess.figure("oracle.exposure_bytes", nbytes)
        with sess.op(f"value_and_gradients x{self.evaluations} BA(100,1)") as op:
            require(obj is not None, "objective was not built")
            rng = np.random.default_rng(seed)
            points = [(rng.uniform(0.0, 20.0, n), rng.uniform(0.0, 20.0, n))
                      for _ in range(self.evaluations)]
            outs = [op.time("value_and_gradients", obj.value_and_gradients, x, y)
                    for x, y in points]
            del obj
            for k in (0, -1):
                (x, y), value = points[k], outs[k][0]
                ref.check_close("exposure value", value, exp_ref.value(x, y), rel=1e-9)
            (x, y), (_, gx, gy) = points[0], outs[0]
            hub = int(np.argmax([len(nb) for nb in exp_ref.graph.nbhd]))
            for j in {hub, *rng.choice(n, 4, replace=False).tolist()}:
                ref.check_close(f"exposure d/dx[{j}]", gx[j], exp_ref.partial(x, y, "x", j),
                                rel=1e-6, abs_=1e-13)
                ref.check_close(f"exposure d/dy[{j}]", gy[j], exp_ref.partial(x, y, "y", j),
                                rel=1e-6, abs_=1e-13)

    def cure_step_op(self, sess, net, exp_ref):
        n = net.node_count
        y = np.full(n, self.cure_budget / n)
        with sess.op("optimize_cure_step BA(30,1)") as op:
            res = op.time("optimize", optimize.optimize_cure_step, net, self.state(net),
                          self.cure_budget, y, optimize.DescentConfig(gap_tol=self.cure_gap))
            op.info = {"gap": res.gap, "iterations": res.iterations}
            x = res.allocation
            ref.check_allocation(op.name, x, self.cure_budget)
            ref.check_close("cure step value", res.value, exp_ref.value(x, y), rel=1e-9)
            gx = np.array([exp_ref.partial(x, y, "x", j) for j in range(n)])
            gap = ref.simplex_gap(gx, x, self.cure_budget)
            ref.check_close("cure step gap", res.gap, gap, rel=1e-3, abs_=1e-9)
            if not res.converged:
                raise Unconverged(f"gap {res.gap:.3g} after {res.iterations} iterations")
            require(gap <= self.cure_gap + 1e-9, f"converged with recomputed gap {gap:.3g}")

    def game_op(self, sess, net, exp_ref):
        b = self.game_budget
        with sess.op("nash_solve BA(30,1)") as op:
            sol = op.time("optimize", optimize.nash_solve, net, self.state(net), b, b,
                          optimize.DescentConfig(gap_tol=self.cure_gap))
            op.info = {"rounds": sol.rounds, "exploitability": sol.exploitability}
            x, y = sol.curing, sol.infection
            ref.check_allocation("curing", x, b)
            ref.check_allocation("infection", y, b)
            ref.check_close("game value", sol.value, exp_ref.value(x, y), rel=1e-9)
            gx, gy = exp_ref.gradients(x, y)
            eps = ref.simplex_gap(gx, x, b) + ref.simplex_gap(gy, y, b, maximize=True)
            op.info["certificate"] = eps
            require(eps <= 1e-3, f"first-order exploitability bound {eps:.3g} > 1e-3")
            if not sol.converged:
                raise Unconverged(f"exploitability {sol.exploitability:.3g} after "
                                  f"{sol.rounds} rounds")

    def cli_exact_op(self, sess, path, g, exp_ref, seed):
        n = g.n
        step = self.cure_budget / n
        with sess.op("cli exact --exposure BA(30,1)") as op:
            out = op.cli("exact", ["exact", "--net", str(path), "--red", f"uniform:{self.mass}",
                                   "--black", f"uniform:{self.mass}", "--n", "1", "--exposure",
                                   "--x", f"uniform:{step}", "--y", f"uniform:{step}"])
            payload = json.loads(out)
            red = black = np.full(n, self.mass)
            ref.check_close("exact infection_rate", payload["infection_rate"],
                            g.time1_rate(red, black)[0], rel=1e-12)
            x = y = np.full(n, step)
            ref.check_close("exact expected_exposure", payload["expected_exposure"],
                            exp_ref.value(x, y), rel=1e-9)
            rng = np.random.default_rng(seed)
            for j in rng.choice(n, 4, replace=False).tolist():
                ref.check_close(f"exact d/dx[{j}]", payload["exposure_grad_curing"][j],
                                exp_ref.partial(x, y, "x", j), rel=1e-6, abs_=1e-13)
                ref.check_close(f"exact d/dy[{j}]", payload["exposure_grad_infection"][j],
                                exp_ref.partial(x, y, "y", j), rel=1e-6, abs_=1e-13)


WORKLOADS = {w.name: w for w in (McBa100(), StructureBa1363(), OptimizeGame())}
