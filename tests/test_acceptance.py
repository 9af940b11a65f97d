"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a PASS/FAIL line via the conftest report hook.  Statistical
checks run at pinned seeds, recorded here as regression fixtures.
"""

import time

import numpy as np
import pytest

from polyanet.engine import UrnState
from polyanet.graph import (
    Network,
    generate_barabasi_albert,
    outer_nodes,
    target_set_dense,
    target_set_layered,
)
from polyanet.harness import ExperimentConfig, build_configs, emit, run_arms, run_experiment
from polyanet.optimize import DescentConfig, nash_solve, optimize_init
from polyanet.oracle import (
    ExposureObjective,
    average_infection_rate,
    infection_rate_time1,
    partition_sanity,
)

from conftest import (
    cycle_network,
    eight_node_network,
    path_network,
    random_connected_network,
    random_tree,
    star_network,
    strict_draws,
    trial_draws,
)
from support import orbit_average


def single_node():
    return Network(np.zeros((1, 1), dtype=bool))


def test_criterion_01_oracle_monte_carlo_agreement():
    """Empirical infection rates on P3 match exact enumeration within three
    binomial standard errors at 1e5 trials, in under 30 seconds."""
    start = time.perf_counter()
    net = path_network(3)
    exact = np.array([
        average_infection_rate(net, [1, 1, 1], [1, 1, 1], (1.0, 1.0), n) for n in (1, 2, 3)
    ])
    cfg = ExperimentConfig(steps=3, trials=100_000, seed=101,
                           red_values=(1.0, 1.0, 1.0), black_values=(1.0, 1.0, 1.0),
                           delta=1.0)
    series = run_experiment(net, cfg)
    se = np.sqrt(exact * (1 - exact) / (3 * cfg.trials))
    assert (np.abs(series.mean_infection - exact) <= 3 * se).all()
    assert time.perf_counter() - start < 30.0


def test_criterion_02_closed_form_and_partition():
    """The 29/45 time-1 fixture holds to 1e-12 and every enumerable joint
    distribution sums to one within 1e-10."""
    p3 = path_network(3)
    assert average_infection_rate(p3, [1, 1, 1], [1, 0, 1], (1.0, 1.0), 1) == pytest.approx(
        29 / 45, abs=1e-12)
    rng = np.random.default_rng(2024)
    fixtures = [
        (single_node(), [2.0], [1.0], (1.0, 1.0), 4),
        (single_node(), [1.0], [1.0], (0.5, 2.0), 5),
        (path_network(2), rng.uniform(0.5, 2, 2), rng.uniform(0, 2, 2), (1.0, 1.0), 6),
        (p3, [1, 1, 1], [1, 0, 1], (1.0, 1.0), 3),
        (p3, rng.uniform(0.5, 2, 3), rng.uniform(0, 2, 3),
         (rng.uniform(0, 2, 3), rng.uniform(0, 2, 3)), 4),
        (path_network(4), rng.uniform(0.5, 2, 4), rng.uniform(0, 2, 4), (1.0, 2.0), 3),
        (star_network(5), rng.uniform(0.5, 2, 5), rng.uniform(0, 2, 5), (1.0, 1.0), 2),
        (random_connected_network(rng, 4), rng.uniform(0.5, 2, 4),
         rng.uniform(0, 2, 4), (2.0, 0.5), 4),
        (random_connected_network(rng, 8), rng.uniform(0.5, 2, 8),
         rng.uniform(0, 2, 8), (1.0, 1.0), 2),
    ]
    for net, red, black, sched, n in fixtures:
        assert net.node_count * n <= 16
        total = partition_sanity(net, red, black, sched, n)
        assert total == pytest.approx(1.0, abs=1e-10), (net.node_count, n)


def test_criterion_03_exchangeability_and_colour_symmetry():
    """Symmetric colour masses pin the exact infection rate at one half, and
    mirrored uniforms flip Monte Carlo draws exactly."""
    for n in range(1, 6):
        rate = average_infection_rate(single_node(), [3.0], [3.0], (2.0, 2.0), n)
        assert rate == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(6):
        nodes = int(rng.integers(2, 4))
        net = random_connected_network(rng, nodes)
        red = rng.uniform(0.5, 2, nodes)
        delta = rng.uniform(0.1, 2, nodes)
        for t in range(1, 4):
            rate = average_infection_rate(net, red, red, (delta, delta), t)
            assert rate == pytest.approx(0.5, abs=1e-12)
    # Monte Carlo side, beyond enumeration reach: swapping colours and
    # mirroring the uniforms flips every draw, so the empirical rate maps to
    # its complement exactly.
    net = generate_barabasi_albert(12, 1, seed=5)
    red = rng.uniform(0.5, 2, 12)
    black = rng.uniform(0.5, 2, 12)
    dr = rng.uniform(0.1, 2, 12)
    db = rng.uniform(0.1, 2, 12)
    for trial in range(50):
        uniforms = rng.random((12, 10))
        z = trial_draws(net, red, black, (dr, db), uniforms)
        z_swapped = trial_draws(net, black, red, (db, dr), 1.0 - uniforms, strict_draws)
        assert (z_swapped == 1 - z).all()
        assert int(z_swapped.sum()) == z.size - int(z.sum())  # rates are complementary


def test_criterion_04_pathwise_domination():
    """100 random instances, shared uniforms: adding black mass never turns
    a black draw red at any node or time."""
    rng = np.random.default_rng(44)
    for _ in range(100):
        nodes = int(rng.integers(2, 9))
        net = random_connected_network(rng, nodes, extra_edge_prob=float(rng.random()) * 0.5)
        red = rng.uniform(0.5, 2, nodes)
        black = rng.uniform(0.0, 2, nodes)
        bumped = black + rng.uniform(0, 2, nodes) * (rng.random(nodes) < 0.7)
        steps = int(rng.integers(2, 7))
        dr_tab = rng.uniform(0, 2, (steps, nodes))
        db_tab = rng.uniform(0, 2, (steps, nodes))
        schedule = lambda t, state: (dr_tab[t - 1], db_tab[t - 1])
        uniforms = rng.random((nodes, steps))
        z = trial_draws(net, red, black, schedule, uniforms)
        z_star = trial_draws(net, red, bumped, schedule, uniforms)
        assert (z_star <= z).all()


def test_criterion_05_optimizer_ignores_outer_nodes():
    """The initialization optimizer starves nested nodes on 50 random graphs
    and sends everything to a star's center, matching a 1-D sweep."""
    rng = np.random.default_rng(55)
    budget = 9.0
    cfg = DescentConfig(max_iterations=400, gap_tol=1e-9)
    produced = 0
    while produced < 50:
        nodes = int(rng.integers(3, 13))
        if produced % 2:
            net = random_tree(rng, nodes)
        else:
            net = random_connected_network(rng, nodes, extra_edge_prob=0.15)
        outer = outer_nodes(net)
        if outer.shape[0] == 0:
            continue
        res = optimize_init(net, rng.uniform(0.5, 2, nodes), budget, cfg)
        assert res.allocation[outer].sum() < 1e-3 * budget
        produced += 1

    net = star_network(5, center=2)
    budget = 10.0
    res = optimize_init(net, np.ones(5), budget)
    assert res.allocation[2] > 0.999 * budget

    def center_sweep(mass):
        alloc = np.full(5, (budget - mass) / 4)
        alloc[2] = mass
        return infection_rate_time1(net, np.ones(5), alloc)[0]

    grid = np.linspace(0, budget, 1001)
    best_mass = grid[int(np.argmin([center_sweep(m) for m in grid]))]
    assert abs(res.allocation[2] - best_mass) < 1e-3 * budget


def test_criterion_06_orbit_averaging_on_cycles():
    """On C4..C8 with uniform red mass, rotation-averaging any black
    allocation never raises the exact time-1 rate."""
    rng = np.random.default_rng(66)
    for nodes in range(4, 9):
        net = cycle_network(nodes)
        rotation = [(i + 1) % nodes for i in range(nodes)]
        red = np.full(nodes, 1.5)
        for _ in range(20):
            black = rng.uniform(0, 3, nodes)
            base, _ = infection_rate_time1(net, red, black)
            averaged, _ = infection_rate_time1(net, red, orbit_average(rotation, black))
            assert averaged <= base + 1e-12


def _random_state(rng, net, steps=2):
    nodes = net.node_count
    state = UrnState(net, rng.uniform(0.5, 2, nodes), rng.uniform(0.5, 2, nodes))
    for _ in range(steps):
        state.step(rng.random(nodes), rng.uniform(0, 2, nodes), rng.uniform(0, 2, nodes))
    return state


def test_criterion_07_convexity_and_gradients():
    """Midpoint convexity/concavity holds on 1000 random instances for both
    objectives; analytic gradients match central differences to 1e-6
    relative error on 100 instances."""
    rng = np.random.default_rng(77)
    for _ in range(1000):
        nodes = int(rng.integers(2, 6))
        net = random_connected_network(rng, nodes)
        red = rng.uniform(0.5, 2, nodes)
        black = rng.uniform(0, 2, nodes)
        b1, b2 = rng.uniform(0, 2, nodes), rng.uniform(0, 2, nodes)
        f = lambda b: infection_rate_time1(net, red, b)[0]
        assert f((b1 + b2) / 2) <= (f(b1) + f(b2)) / 2 + 1e-12
        r1, r2 = rng.uniform(0.5, 2, nodes), rng.uniform(0.5, 2, nodes)
        g = lambda r: infection_rate_time1(net, r, black)[0]
        assert g((r1 + r2) / 2) >= (g(r1) + g(r2)) / 2 - 1e-12
        obj = ExposureObjective(_random_state(rng, net, steps=1))
        x1, x2 = rng.uniform(0, 2, nodes), rng.uniform(0, 2, nodes)
        y1, y2 = rng.uniform(0, 2, nodes), rng.uniform(0, 2, nodes)
        assert obj.value((x1 + x2) / 2, y1) <= (obj.value(x1, y1) + obj.value(x2, y1)) / 2 + 1e-12
        assert obj.value(x1, (y1 + y2) / 2) >= (obj.value(x1, y1) + obj.value(x1, y2)) / 2 - 1e-12

    for _ in range(100):
        nodes = int(rng.integers(2, 6))
        net = random_connected_network(rng, nodes)
        red = rng.uniform(0.5, 2, nodes)
        black = rng.uniform(0.1, 2, nodes)
        _, grad = infection_rate_time1(net, red, black)
        h = 1e-6
        fd = np.empty(nodes)
        for j in range(nodes):
            e = np.zeros(nodes)
            e[j] = h
            fd[j] = (infection_rate_time1(net, red, black + e)[0]
                     - infection_rate_time1(net, red, black - e)[0]) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6

        obj = ExposureObjective(_random_state(rng, net))
        x = rng.uniform(0.1, 2, nodes)
        y = rng.uniform(0.1, 2, nodes)
        _, gx, gy = obj.value_and_gradients(x, y)
        fdx, fdy = np.empty(nodes), np.empty(nodes)
        for j in range(nodes):
            e = np.zeros(nodes)
            e[j] = h
            fdx[j] = (obj.value(x + e, y) - obj.value(x - e, y)) / (2 * h)
            fdy[j] = (obj.value(x, y + e) - obj.value(x, y - e)) / (2 * h)
        assert np.linalg.norm(gx - fdx) / max(np.linalg.norm(fdx), 1e-30) < 1e-6
        assert np.linalg.norm(gy - fdy) / max(np.linalg.norm(fdy), 1e-30) < 1e-6


def test_criterion_08_nash_equilibrium():
    """The game solver certifies exploitability below 1e-3 with full budgets
    on the two-dyad and eight-node instances, and no single-coordinate
    deviation beats the certificate; under two minutes."""
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    cases = [
        (Network.from_edges(4, [(0, 1), (2, 3)], require_connected=False), 8.0, 8.0),
        (eight_node_network(), 80.0, 80.0),
    ]
    for net, budget_b, budget_r in cases:
        nodes = net.node_count
        state = UrnState(net, np.full(nodes, 10.0), np.full(nodes, 10.0))
        sol = nash_solve(net, state, budget_b, budget_r, tol=1e-3)
        assert sol.exploitability < 1e-3
        assert sol.curing.sum() == pytest.approx(budget_b, rel=1e-12)
        assert sol.infection.sum() == pytest.approx(budget_r, rel=1e-12)
        obj = ExposureObjective(state)
        value_at = obj.value(sol.curing, sol.infection)
        slack = sol.exploitability + 1e-9
        for j in range(nodes):
            vertex = np.zeros(nodes)
            vertex[j] = budget_b
            assert value_at - obj.value(vertex, sol.infection) <= slack
            vertex_r = np.zeros(nodes)
            vertex_r[j] = budget_r
            assert obj.value(sol.curing, vertex_r) - value_at <= slack
        for _ in range(25):
            assert value_at - obj.value(rng.dirichlet(np.ones(nodes)) * budget_b,
                                        sol.infection) <= slack
            assert obj.value(sol.curing,
                             rng.dirichlet(np.ones(nodes)) * budget_r) - value_at <= slack
    assert time.perf_counter() - start < 120.0


def test_criterion_09_targeting_fixtures():
    """The two targeting algorithms reproduce the P5 fixtures, and pruning
    collapses the centrality-greedy set onto the layered one."""
    net = path_network(5)
    layered = target_set_layered(net)
    assert tuple(i + 1 for i in layered.nodes) == (2, 4)
    dense = target_set_dense(net, prune=False)
    assert tuple(i + 1 for i in dense.insertion_order) == (3, 2, 4)
    pruned = target_set_dense(net, prune=True)
    assert tuple(i + 1 for i in pruned.nodes) == (2, 4)
    assert pruned.nodes == layered.nodes


def test_criterion_10_qualitative_figure_reproduction():
    """Inner-node targeting separates from uniform allocation on the seeded
    100-node preferential-attachment tree under both experiment protocols,
    with two-sample z statistics above 3; under ten minutes total."""
    start = time.perf_counter()
    net = generate_barabasi_albert(100, 1, seed=7)
    budget = 10.0 * net.node_count

    init_run = dict(steps=50, trials=1000, seed=13, red_budget=budget, init_budget=budget,
                    delta=5.0)
    init_arms = run_arms(net, build_configs(init_run, [(f, {"init": f}) for f in ("ii", "iii")]))
    diff = init_arms.difference(0, 1)  # uniform minus inner targeting
    for n in (10, 50):
        z = diff.mean_difference[n - 1] / diff.stderr_pooled[n - 1]
        assert z > 3.0, f"init separation at n={n}: z={z:.2f}"

    cure_run = dict(steps=50, trials=500, seed=17, red_budget=budget,
                    black_values=tuple([10.0] * 100), delta_r=10.0, cure_budget=budget)
    cure_arms = run_arms(net, build_configs(cure_run, [(f, {"cure": f})
                                                       for f in ("ii", "iii", "iv")]))
    z_scores = []
    for k in (1, 2):
        d = cure_arms.difference(0, k)
        z_scores.append(d.mean_difference[49] / d.stderr_pooled[49])
    assert max(z_scores) > 3.0, f"cure separation at n=50: z={z_scores}"
    assert time.perf_counter() - start < 600.0


def test_criterion_11_reproducibility(tmp_path):
    """Identical config and master seed give byte-identical CSV output,
    sequentially and under a process pool."""
    net = generate_barabasi_albert(30, 1, seed=3)
    cfg = ExperimentConfig(steps=10, trials=60, seed=99, label="repro",
                           red_budget=300.0, init_strategy="vi", init_budget=300.0,
                           delta=5.0)
    first = emit(run_experiment(net, cfg), "csv", tmp_path / "a.csv")
    second = emit(run_experiment(net, cfg), "csv", tmp_path / "b.csv")
    parallel = emit(run_experiment(net, cfg, n_jobs=3), "csv", tmp_path / "c.csv")
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == parallel.read_bytes()
