"""Properties checked against plain reference computations.

``run_experiment`` steps trials in blocks, draws each trial's uniforms
several steps at a time, runs blocks on threads and may split trials
across worker processes; its per-trial means must equal, bit for bit,
those of a loop that runs one :class:`UrnState` per trial on that trial's
own stream, one call per step.
Networks survive a save and parse in either file format, the array parse
of any text agrees with a line-by-line one, and the graph layer's array
code agrees with the definitions it implements.  The
exposure integral must equal the enumeration of every closed
neighbourhood's joint draws, and its colour swap must equal one minus it.  Swapping the colours and mirroring the
uniforms must flip every draw.  The simplex descent must converge and
certify its value by its duality gap, and every strategy must spend its
budget.
"""

import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import polyanet.harness as harness
from polyanet.engine import UrnState, iter_draws
from polyanet.graph import (DisconnectedGraphError, GraphFormatError, Network, load_network,
                            outer_nodes, parse_network, save_network, target_set_dense)
from polyanet.harness import ExperimentConfig, resolve_initialization, run_experiment, trial_generator
from polyanet.optimize import DescentConfig, optimize_cure_step, optimize_init
from polyanet.oracle import ExposureObjective, infection_rate_time1
from polyanet.policies import FAMILIES, StrategySpec, cure_allocator, init_allocation

from conftest import strict_draws
from support import greedy_dense_targets, reference_parse

CONTRACT = settings(derandomize=True, deadline=None, max_examples=6, database=None)
DESCENT = 5  # in-loop optimizer iterations of family i


@st.composite
def networks(draw, max_nodes=12, connected=True):
    """Random spanning tree on 2..max_nodes nodes plus a few extra edges;
    eight or more nodes take numpy's pairwise summation off its sequential
    path.  With ``connected=False`` each tree edge may be dropped, so the
    network may fall apart into components."""
    n = draw(st.integers(2, max_nodes))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if not connected:
        edges = {e for e in sorted(edges) if draw(st.booleans())}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return Network.from_edges(n, sorted(edges), require_connected=connected)


def reference_means(net, cfg, arm):
    """Per-trial node-mean draws, one trial at a time."""
    n = net.node_count
    red, black = resolve_initialization(net, cfg)
    allocator = None
    if cfg.delta is not None:
        red_step = black_step = np.full(n, float(cfg.delta))
    elif cfg.delta_b is not None:
        red_step, black_step = np.full(n, float(cfg.delta_r)), np.full(n, float(cfg.delta_b))
    else:
        red_step = np.full(n, cfg.red_step_budget / n)
        spec = StrategySpec("cure", cfg.cure_strategy,
                            descent=DescentConfig(max_iterations=cfg.descent_iterations))
        allocator = cure_allocator(spec, net, cfg.cure_budget)
    means = np.empty((cfg.trials, cfg.steps))
    for s in range(cfg.trials):
        rng = trial_generator(cfg.seed, s, arm)
        state = UrnState(net, red, black)
        for t in range(1, cfg.steps + 1):
            db = black_step if allocator is None else allocator(t, state, red_step)
            means[s, t - 1] = state.step(rng.random(n), red_step, db).mean()
    return means


@pytest.mark.parametrize("side", ["init", "init-split", "cure"])
@pytest.mark.parametrize("family", FAMILIES)
@CONTRACT
@given(net=networks(), trials=st.integers(1, 9), block_rows=st.integers(1, 4),
       steps=st.integers(1, 11), seed=st.integers(0, 2**32), arm=st.integers(0, 3),
       n_jobs=st.sampled_from([1, 2]), threads=st.sampled_from([1, 2, 3]))
def test_run_experiment_matches_one_trial_reference(side, family, net, trials, block_rows,
                                                    steps, seed, arm, n_jobs, threads):
    """Up to 11 steps cross several draw chunks and end on a short one;
    ``init-split`` reinforces the colours by different masses.  Blocks run
    on 1 to 3 threads per process, whatever the CPU count."""
    n = net.node_count
    if side == "init":
        cfg = ExperimentConfig(steps=steps, trials=trials, seed=seed, red_budget=2.0 * n,
                               init_strategy=family, init_budget=1.5 * n, delta=1.0,
                               descent_iterations=DESCENT)
    elif side == "init-split":
        cfg = ExperimentConfig(steps=steps, trials=trials, seed=seed, red_budget=2.0 * n,
                               init_strategy=family, init_budget=1.5 * n, delta_r=0.5,
                               delta_b=1.75, descent_iterations=DESCENT)
    else:
        cfg = ExperimentConfig(steps=steps, trials=trials, seed=seed, red_budget=2.0 * n,
                               black_values=(1.0,) * n, red_step_budget=1.0 * n,
                               cure_strategy=family, cure_budget=1.5 * n,
                               descent_iterations=DESCENT)
    # Blocks of block_rows trials, so that trial counts fall on both sides
    # of the block bound.
    with (mock.patch.object(harness, "_BLOCK_CELLS", block_rows * n),
          mock.patch.object(harness, "_threads_per_process", lambda processes: threads)):
        got = run_experiment(net, cfg, n_jobs=n_jobs, arm=arm).per_trial_means
    assert (got == reference_means(net, cfg, arm)).all()


def reference_file(net, fmt):
    """The text of a saved network, written one entry or edge at a time."""
    if fmt == "matrix":
        rows = [" ".join("1" if v else "0" for v in row) for row in net.adjacency]
        return f"{net.node_count}\n" + "\n".join(rows) + "\n"
    return "".join(f"{i + 1} {j + 1}\n" for i, j in net.edges())


@pytest.mark.parametrize("fmt", ["matrix", "edges"])
@settings(CONTRACT, max_examples=40)
@given(net=networks(), data=st.data())
def test_saved_network_parses_back(fmt, net, data):
    """``save_network`` writes the reference writer's bytes and
    ``load_network`` reads them back to the same arrays; so does
    ``parse_network`` with comment and blank lines, trailing blanks and
    ``\\r\\n`` or ``\\r`` line breaks added."""
    want = (net.indptr.tolist(), net.indices.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = save_network(net, Path(tmp) / ("net.adj" if fmt == "matrix" else "net.el"), fmt)
        assert path.read_bytes() == reference_file(net, fmt).encode()
        back = load_network(path)
    assert (back.indptr.tolist(), back.indices.tolist()) == want
    lines = []
    for line in reference_file(net, fmt).splitlines():
        lines += data.draw(st.lists(st.sampled_from(["", "  ", "#", "# a 1", "\t# 2 x"]),
                                    max_size=1))
        lines.append(line + data.draw(st.sampled_from(["", " ", "\t", " \t "])))
    eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    back = parse_network(eol.join(lines) + eol, fmt)
    assert (back.indptr.tolist(), back.indices.tolist()) == want


BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BLANKS = [" ", "\t", "\x1f", "\xa0", "\u3000"]
# Tokens no saved network holds: an id below 1, an entry outside {0,1}, a
# non-integer, an id over the node limit and one beyond int64.
WILD = ["0", "-1", "2", "x", "1.0", "#", "3037000500", "99999999999999999999",
        "-99999999999999999999"]
ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@st.composite
def network_texts(draw):
    """A saved network and the format to parse it as: its ids shifted now
    and then (leaving ids on no edge), its tokens respelled as ``int`` still
    reads them or swapped for wild ones, a line's tokens dropped, added or
    made a self-loop, comment and blank lines put in, and every blank and
    line break drawn from those of ``str.split`` and ``str.splitlines``."""
    net = draw(networks(max_nodes=7, connected=False))
    written = draw(st.sampled_from(["matrix", "edges"]))
    fmt = draw(st.sampled_from([None, None, written, "edges" if written == "matrix" else "matrix"]))
    if written == "matrix":
        rows = [[str(net.node_count)]] + [["1" if v else "0" for v in row] for row in net.adjacency]
    else:
        shift = draw(st.sampled_from([0, 0, 1]))
        rows = [[str(i + 1 + shift), str(j + 1 + shift)] for i, j in net.edges()]
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "#", "# 1 x", " \t#2", "#\u20281 2", *BLANKS]),
                               max_size=1))
        toks = []
        for tok in row:
            spellings = [tok, f"+{tok}", "0" * 19 + tok, f"0_{tok}", tok.translate(ARABIC)]
            kind = draw(st.integers(0, 59))
            toks.append(draw(st.sampled_from(WILD)) if kind == 0 else
                        draw(st.sampled_from(spellings)) if kind < 16 else tok)
        edit = draw(st.integers(0, 39))
        if edit == 0:
            toks = toks[:-1]
        elif edit == 1:
            toks.append(draw(st.sampled_from(["0", "1"])))
        elif edit == 2:
            toks = toks[:1] * 2
        gaps = [draw(st.sampled_from(["", " "] if k == 0 else BLANKS)) for k in range(len(toks))]
        lines.append("".join(g + t for g, t in zip(gaps, toks)) + draw(st.sampled_from(["", "\t"])))
    ends = [draw(st.sampled_from(BREAKS)) for _ in lines[:-1]] + [draw(st.sampled_from(BREAKS + [""]))]
    return "".join(line + end for line, end in zip(lines, ends)), fmt


def parse_outcome(parse, text, fmt, largest_component):
    try:
        net = parse(text, fmt, largest_component=largest_component)
    except DisconnectedGraphError as exc:
        return "disconnected", str(exc), exc.components
    except GraphFormatError as exc:
        return "format", str(exc)
    except OverflowError:
        return ("overflow",)
    return "network", net.indptr.tolist(), net.indices.tolist()


@settings(CONTRACT, max_examples=400)
@given(case=network_texts())
def test_parse_agrees_with_line_walk(case):
    """``parse_network`` returns the network, or raises the error, that the
    line-by-line reference does, with two fixes.  An id beyond int64, which
    the reference cannot store, reads as the first self-loop or, without
    one, as the largest id over the node limit.  An edge list that leaves
    an id up to its largest on no edge is rejected for it, and not as a
    network with isolated nodes; ``largest_component`` keeps it as before."""
    text, fmt = case
    data = [line.split() for line in text.splitlines() if line.strip()
            and not line.strip().startswith("#")]
    for largest in (False, True):
        want = parse_outcome(reference_parse, text, fmt, largest)
        if want == ("overflow",):
            ids = [tuple(map(int, line)) for line in data]
            loop = next((i for i, j in ids if i == j), None)
            want = "format", (f"self-loop on node {loop}" if loop is not None else
                              f"{max(map(max, ids))} nodes exceed the 3037000499 a network can hold")
        elif want[0] == "disconnected" and not largest and (
                fmt == "edges" or fmt is None and len(data[0]) != 1):
            named = {int(t) for line in data for t in line}
            missing = [v for v in range(1, max(named) + 1) if v not in named]
            if missing:
                want = "format", (f"node {missing[0]} is on no edge ({len(missing)} of nodes "
                                  f"1..{max(named)} are on none)")
        assert parse_outcome(parse_network, text, fmt, largest) == want, (text, fmt, largest)


@settings(CONTRACT, max_examples=80)
@given(net=st.one_of(networks(max_nodes=20), networks(max_nodes=20, connected=False)))
def test_graph_layer_matches_definitions(net):
    """Dense, sparse and edge-list input store the arrays scipy's CSR of
    A + I has; outer nodes are the strictly nested closed neighbourhoods; the
    dense target sets equal the one-node-at-a-time greedy."""
    n = net.node_count
    reference = sp.csr_matrix(net.adjacency) + sp.identity(n, format="csr")
    reference.sort_indices()
    for form in (net.adjacency, sp.coo_array(net.adjacency)):
        other = Network(form, require_connected=False)
        assert other.indptr.dtype == other.indices.dtype == reference.indices.dtype
        assert other.indptr.tolist() == reference.indptr.tolist()
        assert other.indices.tolist() == reference.indices.tolist()
    again = Network.from_edges(n, net.edges(), require_connected=False)
    assert again.indptr.tolist() == net.indptr.tolist()
    assert again.indices.tolist() == net.indices.tolist()
    closed = [set(c.tolist()) for c in net.closed_neighbors]
    nested = [i for i in range(n) if any(closed[i] < closed[j] for j in range(n))]
    assert outer_nodes(net).tolist() == nested
    if net.is_connected():
        for prune in (False, True):
            assert target_set_dense(net, prune) == greedy_dense_targets(net, prune)


@pytest.mark.parametrize("family", FAMILIES)
@CONTRACT
@given(net=networks(), rows=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_batched_cure_allocation_spends_budget_per_row(family, net, rows, seed):
    """Each row of a batched allocation spends the budget and equals the
    allocation of that row alone, including rows with no red mass, where
    the weighted families fall back to uniform."""
    n = net.node_count
    rng = np.random.default_rng(seed)
    red = rng.uniform(0.0, 2.0, (rows, n)) * (rng.random((rows, 1)) < 0.7)
    state = UrnState(net, red, rng.uniform(0.5, 2.0, (rows, n)))
    budget = float(rng.uniform(0.5, 10.0))
    spec = StrategySpec("cure", family, descent=DescentConfig(max_iterations=DESCENT))
    policy = cure_allocator(spec, net, budget)
    alloc = np.broadcast_to(policy(1, state, 1.0), (rows, n))
    assert np.allclose(alloc.sum(axis=1), budget, rtol=1e-12, atol=0)
    for k, row in enumerate(state.rows()):
        assert (alloc[k] == policy(1, row, 1.0)).all()


def enumerated_exposure(state, x, y):
    """Expected exposure and its gradients by enumerating the joint next
    draws of every closed neighbourhood."""
    net = state.net
    s, c, d = state.exposure, state.super_red, state.super_black
    value, grad_x, grad_y = 0.0, np.zeros(net.node_count), np.zeros(net.node_count)
    for i, nbrs in enumerate(net.closed_neighbors):
        red = np.array(list(itertools.product((False, True), repeat=nbrs.shape[0])))
        weight = np.prod(np.where(red, s[nbrs], 1.0 - s[nbrs]), axis=1)
        num = c[i] + (red * y[nbrs]).sum(axis=1)
        blk = d[i] + (~red * x[nbrs]).sum(axis=1)
        value += weight @ (num / (num + blk))
        grad_x[nbrs] -= (weight * num / (num + blk) ** 2) @ ~red
        grad_y[nbrs] += (weight * blk / (num + blk) ** 2) @ red
    n = net.node_count
    return value / n, grad_x / n, grad_y / n


def assert_exposure_matches_enumeration(state, x, y):
    value, grad_x, grad_y = ExposureObjective(state).value_and_gradients(x, y)
    want, want_x, want_y = enumerated_exposure(state, x, y)
    assert abs(value - want) <= 1e-12 * want
    assert np.linalg.norm(grad_x - want_x) <= 1e-9 * np.linalg.norm(want_x)
    assert np.linalg.norm(grad_y - want_y) <= 1e-9 * np.linalg.norm(want_y)


def per_node(draw, n, values):
    return np.array(draw(st.lists(values, min_size=n, max_size=n)))


# Ends of the ranges are drawn on their own too, so that examples reach the
# widest spreads of rates that the quadrature must cover.
MASSES = st.one_of(st.sampled_from([0.1, 1e3]), st.floats(-1.0, 3.0).map(lambda e: 10.0**e))
STEPS = st.one_of(st.sampled_from([0.0, 0.1, 100.0]),
                  st.floats(-1.0, 2.0).map(lambda e: 10.0**e))
# Curing steps also reach far above the super-urn totals, where the
# quadrature must stretch to rates a million or a billion times larger.
CURING_STEPS = st.one_of(STEPS, st.sampled_from([1e6, 1e9]),
                         st.floats(2.0, 9.0).map(lambda e: 10.0**e))


@pytest.mark.parametrize("x_steps, y_steps", [(CURING_STEPS, STEPS), (STEPS, CURING_STEPS)],
                         ids=["wide-curing", "wide-infection"])
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(net=networks(max_nodes=10), data=st.data())
def test_exposure_integral_matches_enumeration(x_steps, y_steps, net, data):
    """Either step, the curing or the infection one, reaches far above the
    super-urn totals."""
    n = net.node_count
    state = UrnState(net, per_node(data.draw, n, MASSES), per_node(data.draw, n, MASSES))
    x, y = per_node(data.draw, n, x_steps), per_node(data.draw, n, y_steps)
    assert_exposure_matches_enumeration(state, x, y)


@CONTRACT
@given(net=networks(), data=st.data())
def test_mirrored_exposure_swaps_the_colours(net, data):
    """The colour-swapped objective at ``(y, x)`` is ``1 - value`` with the
    gradients negated and exchanged."""
    n = net.node_count
    state = UrnState(net, per_node(data.draw, n, MASSES), per_node(data.draw, n, MASSES))
    x, y = per_node(data.draw, n, CURING_STEPS), per_node(data.draw, n, STEPS)
    obj = ExposureObjective(state)
    mirror = obj.mirrored()
    assert abs(obj.value(x, y) + mirror.value(y, x) - 1.0) <= 1e-15
    value, grad_x, grad_y = obj.value_and_gradients(x, y)
    m_value, m_grad_y, m_grad_x = mirror.value_and_gradients(y, x)
    assert m_value == mirror.value(y, x)
    assert (m_grad_y == -grad_y).all() and (m_grad_x == -grad_x).all()


def test_exposure_integral_matches_enumeration_with_one_colour_super_urns():
    """Nodes 1 and 2 see no red and nodes 5 and 6 no black, with steps far
    above the masses: the impossible colour must drop out at every t."""
    net = Network.from_edges(6, [(i, i + 1) for i in range(5)])
    state = UrnState(net, [0, 0, 0, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0, 0, 0])
    x = np.array([50.0, 50.0, 0.0, 50.0, 0.1, 0.1])
    y = np.array([0.1, 0.1, 0.0, 0.1, 50.0, 50.0])
    assert_exposure_matches_enumeration(state, x, y)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(net=networks(), data=st.data(), rows=st.integers(1, 3), steps=st.integers(1, 12),
       seed=st.integers(0, 2**32))
def test_colour_swap_mirrors_every_draw(net, data, rows, steps, seed):
    """Swapping the colours of the masses and the reinforcements and running
    on ``1 - u`` with the strict rule of ``strict_draws`` flips every draw of
    every step."""
    n = net.node_count
    red, black = per_node(data.draw, n, MASSES), per_node(data.draw, n, MASSES)
    dr, db = per_node(data.draw, n, STEPS), per_node(data.draw, n, STEPS)
    u = np.random.default_rng(seed).random((steps, rows, n))
    z = iter_draws(UrnState(net, np.broadcast_to(red, (rows, n)), black), (dr, db), u)
    swapped = strict_draws(UrnState(net, np.broadcast_to(black, (rows, n)), red), (db, dr),
                           1.0 - u)
    for t, (a, b) in enumerate(zip(z, swapped, strict=True)):
        assert (b == 1 - a).all(), f"step {t + 1}"


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


DESCENT_CONTRACT = settings(derandomize=True, deadline=None, max_examples=50, database=None)
CAPPED_RUNS = 30  # capped runs k = 0..CAPPED_RUNS checked for monotone values


def assert_descent_certified(res, fun, grad, budget, run_capped):
    """``res`` converged to an allocation on the budget simplex, reports the
    gap recomputed there, and by that gap bounds the objective from below at
    every vertex and at 50 Dirichlet points; runs capped after k = 0..K
    iterations have values that do not increase."""
    alloc = res.allocation
    n = alloc.shape[0]
    assert res.converged
    assert (alloc >= 0).all() and abs(alloc.sum() - budget) <= 1e-12 * budget
    assert res.value == fun(alloc)
    g = grad(alloc)
    assert res.gap == float(g @ alloc - budget * g.min())
    points = budget * np.vstack([np.eye(n), np.random.default_rng(n).dirichlet(np.ones(n), 50)])
    assert all(res.value - res.gap <= fun(p) + 1e-12 for p in points)
    values = [run_capped(DescentConfig(max_iterations=k)).value
              for k in range(min(res.iterations, CAPPED_RUNS) + 1)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


@DESCENT_CONTRACT
@given(net=networks(), data=st.data())
def test_init_descent_is_certified(net, data):
    red = per_node(data.draw, net.node_count, log_uniform(-1, 2))
    budget = data.draw(log_uniform(-1, 3))
    assert_descent_certified(optimize_init(net, red, budget),
                             lambda b: infection_rate_time1(net, red, b)[0],
                             lambda b: infection_rate_time1(net, red, b)[1], budget,
                             lambda cfg: optimize_init(net, red, budget, cfg))


@DESCENT_CONTRACT
@given(net=networks(), data=st.data())
def test_cure_descent_is_certified(net, data):
    n = net.node_count
    state = UrnState(net, per_node(data.draw, n, log_uniform(-3, 2)),
                     per_node(data.draw, n, log_uniform(-3, 2)))
    y = per_node(data.draw, n, log_uniform(-1, 1))
    budget = data.draw(st.one_of(st.just(1e6), log_uniform(-1, 6)))
    obj = ExposureObjective(state)
    assert_descent_certified(optimize_cure_step(net, state, budget, y),
                             lambda x: obj.value(x, y),
                             lambda x: obj.value_and_gradients(x, y)[1], budget,
                             lambda cfg: optimize_cure_step(net, state, budget, y, cfg))


@pytest.mark.parametrize("family", FAMILIES)
@CONTRACT
@given(net=networks(), data=st.data())
def test_init_family_spends_its_budget(family, net, data):
    red = per_node(data.draw, net.node_count, log_uniform(-1, 2))
    budget = data.draw(log_uniform(-1, 3))
    alloc = init_allocation(StrategySpec("init", family), net, red, budget)
    assert (alloc >= 0).all() and abs(alloc.sum() - budget) <= 1e-12 * budget
