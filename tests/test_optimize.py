import itertools

import numpy as np
import pytest

from polyanet import optimize
from polyanet.engine import UrnState
from polyanet.graph import Network, generate_barabasi_albert
from polyanet.optimize import (
    DescentConfig,
    frank_wolfe_simplex,
    golden_section,
    nash_solve,
    optimize_cure_step,
    optimize_init,
)
from polyanet.oracle import ExposureObjective, infection_rate_time1

from conftest import (
    complete_network,
    eight_node_network,
    random_tree,
    star_network,
)


def single_node_net():
    return Network(np.zeros((1, 1), dtype=bool))


def test_golden_section_interior_and_boundary():
    assert golden_section(lambda a: (a - 0.3) ** 2) == pytest.approx(0.3, abs=1e-7)
    assert golden_section(lambda a: -a) == 1.0
    assert golden_section(lambda a: a) == 0.0


def test_quadratic_converges_to_interior_target():
    target = np.array([0.5, 0.3, 0.2])

    def fun(x):
        return float(((x - target) ** 2).sum()), 2 * (x - target)

    cfg = DescentConfig(max_iterations=1000, gap_tol=1e-7)
    res = frank_wolfe_simplex(fun, 1.0, 3, cfg)
    assert res.converged
    assert res.gap < 1e-6
    assert np.abs(res.allocation - target).max() < 1e-3
    # steps accepted by their slope on a convex objective: monotone descent,
    # seen as the values of runs capped after k = 0..K iterations
    values = [frank_wolfe_simplex(fun, 1.0, 3,
                                  DescentConfig(max_iterations=k, gap_tol=1e-7)).value
              for k in range(res.iterations + 1)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == res.value


def test_linear_objective_hits_vertex_in_one_step():
    cost = np.array([3.0, 1.0, 2.0])

    def fun(x):
        return float(cost @ x), cost

    res = frank_wolfe_simplex(fun, 5.0, 3, DescentConfig(max_iterations=50))
    assert res.allocation.tolist() == [0.0, 5.0, 0.0]
    assert res.converged
    assert res.iterations == 1


def test_iterates_stay_on_budget_simplex(rng):
    net = random_tree(rng, 8)
    budget = 11.0
    res = optimize_init(net, rng.uniform(0.5, 2, 8), budget)
    assert (res.allocation >= 0).all()
    assert abs(res.allocation.sum() - budget) <= 1e-12 * budget


def test_duality_gap_sound_against_grid_search(rng):
    """The reported gap upper-bounds the distance to the best grid point."""
    for _ in range(5):
        n = int(rng.integers(2, 5))
        net = random_tree(rng, n) if n > 1 else single_node_net()
        red = rng.uniform(0.5, 2, n)
        budget = 4.0
        res = optimize_init(net, red, budget, DescentConfig(max_iterations=2000))
        steps = 12
        best = np.inf
        for comp in itertools.product(range(steps + 1), repeat=n - 1):
            if sum(comp) > steps:
                continue
            alloc = np.array(list(comp) + [steps - sum(comp)], dtype=float) / steps * budget
            best = min(best, infection_rate_time1(net, red, alloc)[0])
        assert res.value - res.gap <= best + 1e-12


def test_star_budget_goes_to_center():
    net = star_network(5, center=3)
    budget = 10.0
    res = optimize_init(net, np.ones(5), budget)
    off_center = res.allocation.sum() - res.allocation[3]
    assert off_center < 1e-3 * budget
    # 1-D oracle: sweep the mass kept on the center, remainder spread evenly
    # over the leaves; all-on-center must win.
    def swept(mass):
        alloc = np.full(5, (budget - mass) / 4)
        alloc[3] = mass
        return infection_rate_time1(net, np.ones(5), alloc)[0]

    sweep = [swept(m) for m in np.linspace(0, budget, 201)]
    assert np.argmin(sweep) == 200
    assert res.value <= min(sweep) + 1e-9


def test_outer_nodes_get_nothing_on_trees(rng):
    from polyanet.graph import outer_nodes

    for _ in range(10):
        n = int(rng.integers(3, 13))
        net = random_tree(rng, n)
        budget = 7.0
        res = optimize_init(net, rng.uniform(0.5, 2, n), budget)
        outer = outer_nodes(net)
        assert res.allocation[outer].sum() < 1e-3 * budget


def test_complete_graph_matches_uniform():
    net = complete_network(5)
    budget = 10.0
    res = optimize_init(net, np.ones(5), budget)
    uniform_value, _ = infection_rate_time1(net, np.ones(5), np.full(5, budget / 5))
    assert res.value <= uniform_value + 1e-9


def test_optimizer_requires_red_mass():
    net = star_network(4, center=0)
    red = np.zeros(4)
    red[1] = 1.0
    with pytest.raises(ValueError, match="positive"):
        optimize_init(net, red, 5.0)


def test_cure_step_beats_uniform_on_eight_node_net(rng):
    net = eight_node_network()
    state = UrnState(net, np.full(8, 10.0), np.full(8, 10.0))
    for _ in range(3):
        state.step(rng.random(8), 10.0, 10.0)
    budget = 80.0
    y = np.full(8, 10.0)
    obj = ExposureObjective(state)
    res = optimize_cure_step(net, state, budget, y)
    assert res.value < obj.value(np.full(8, budget / 8), y) - 1e-6
    assert abs(res.allocation.sum() - budget) <= 1e-9 * budget


def test_cure_step_single_node_takes_whole_budget():
    state = UrnState(single_node_net(), [1.0], [1.0])
    res = optimize_cure_step(single_node_net(), state, 5.0, 1.0)
    assert res.allocation.tolist() == [5.0]
    assert res.converged and res.iterations == 0


def test_cure_step_zero_budget_is_noop():
    state = UrnState(single_node_net(), [1.0], [1.0])
    obj = ExposureObjective(state)
    res = optimize_cure_step(single_node_net(), state, 0.0, 1.0)
    assert res.allocation.tolist() == [0.0]
    assert res.converged and res.iterations == 0
    assert res.value == pytest.approx(obj.value(np.zeros(1), np.ones(1)), abs=1e-15)


def test_nash_single_node_trivial():
    net = single_node_net()
    state = UrnState(net, [1.0], [1.0])
    sol = nash_solve(net, state, 3.0, 2.0)
    assert sol.curing.tolist() == [3.0]
    assert sol.infection.tolist() == [2.0]
    assert sol.converged
    assert sol.exploitability < 1e-9


@pytest.mark.parametrize("budgets, rounds, match", [
    ((-1.0, 2.0), 200, "curing_budget"), ((3.0, np.nan), 200, "infection_budget"),
    ((np.inf, 2.0), 200, "curing_budget"), ((3.0, 2.0), 0, "rounds"),
])
def test_nash_rejects_bad_budgets_and_rounds(budgets, rounds, match):
    net = single_node_net()
    with pytest.raises(ValueError, match=match):
        nash_solve(net, UrnState(net, [1.0], [1.0]), *budgets, rounds=rounds)


def two_dyads():
    return Network.from_edges(4, [(0, 1), (2, 3)], require_connected=False)


def test_nash_two_dyads_symmetric_split():
    net = two_dyads()
    state = UrnState(net, np.full(4, 10.0), np.full(4, 10.0))
    budget_b = budget_r = 8.0
    sol = nash_solve(net, state, budget_b, budget_r, tol=1e-5)
    assert sol.exploitability < 1e-4
    assert sol.curing.sum() == pytest.approx(budget_b, rel=1e-12)
    assert sol.infection.sum() == pytest.approx(budget_r, rel=1e-12)
    for alloc, budget in ((sol.curing, budget_b), (sol.infection, budget_r)):
        assert alloc[:2].sum() == pytest.approx(budget / 2, abs=1e-3 * budget)
        assert alloc[2:].sum() == pytest.approx(budget / 2, abs=1e-3 * budget)
    # 1-D oracle: sweep the fraction sent to the first dyad (spread evenly
    # inside each dyad) for either player; one half is the best response to
    # the symmetric opponent.
    obj = ExposureObjective(state)

    def split(budget, frac):
        return np.array([frac, frac, 1 - frac, 1 - frac]) * budget / 2

    y_sym = split(budget_r, 0.5)
    sweep_x = [obj.value(split(budget_b, f), y_sym) for f in np.linspace(0, 1, 101)]
    assert np.argmin(sweep_x) == 50
    x_sym = split(budget_b, 0.5)
    sweep_y = [obj.value(x_sym, split(budget_r, f)) for f in np.linspace(0, 1, 101)]
    assert np.argmax(sweep_y) == 50
    assert sol.value == pytest.approx(obj.value(x_sym, y_sym), abs=1e-3)


def test_nash_deviations_bounded_by_exploitability(rng):
    net = two_dyads()
    state = UrnState(net, np.full(4, 10.0), np.full(4, 10.0))
    sol = nash_solve(net, state, 8.0, 8.0, tol=1e-5)
    obj = ExposureObjective(state)
    value_at = obj.value(sol.curing, sol.infection)
    slack = sol.exploitability + 1e-9
    for j in range(4):
        vertex = np.zeros(4)
        vertex[j] = 8.0
        assert value_at - obj.value(vertex, sol.infection) <= slack
        assert obj.value(sol.curing, vertex) - value_at <= slack
    for _ in range(20):
        w = rng.dirichlet(np.ones(4)) * 8.0
        assert value_at - obj.value(w, sol.infection) <= slack
        assert obj.value(sol.curing, w) - value_at <= slack


def test_nash_eight_node_converges():
    net = eight_node_network()
    state = UrnState(net, np.full(8, 10.0), np.full(8, 10.0))
    sol = nash_solve(net, state, 80.0, 80.0, tol=1e-3)
    assert sol.converged
    assert sol.exploitability < 1e-3
    assert sol.curing.sum() == pytest.approx(80.0, rel=1e-12)
    assert sol.infection.sum() == pytest.approx(80.0, rel=1e-12)


def test_capped_descent_reports_gap_of_returned_allocation():
    net = generate_barabasi_albert(30, 2, seed=1)
    red = np.full(30, 10.0)
    res = optimize_init(net, red, 300.0, DescentConfig(max_iterations=5))
    assert res.iterations == 5 and not res.converged
    g = infection_rate_time1(net, red, res.allocation)[1]
    assert res.gap == float(g @ res.allocation - 300.0 * g.min())


@pytest.mark.parametrize("m", [1, 10])
def test_init_descent_converges_within_iteration_budget(m):
    """Iteration counts are deterministic, so this guards the descent's speed
    without a wall-time bound."""
    net = generate_barabasi_albert(100, m, seed=7)
    res = optimize_init(net, np.full(100, 10.0), 1000.0, DescentConfig(gap_tol=1e-9))
    assert res.converged and res.iterations <= 1000


@pytest.mark.parametrize("n, budget, infection_step, cfg, cap", [
    (30, 90.0, 3.0, DescentConfig(gap_tol=1e-6), 200),
    # the in-loop cap of the cure i arm at the Facebook stand-in's size
    (1363, 1363.0, 1.0, DescentConfig(max_iterations=30), 30),
], ids=["ba30", "ba1363-cap30"])
def test_cure_descent_converges_within_iteration_budget(n, budget, infection_step, cfg, cap):
    net = generate_barabasi_albert(n, 1, seed=7)
    state = UrnState(net, np.full(n, 10.0), np.full(n, 10.0))
    res = optimize_cure_step(net, state, budget, infection_step, cfg)
    assert res.converged and res.iterations <= cap


def averaged_game():
    """A BA(14,1) game whose alternating pairs never certify below 1e-4:
    only the running averages do, at round 10."""
    rng = np.random.default_rng(88)
    n = int(rng.integers(3, 25))
    net = generate_barabasi_albert(n, 1, seed=88)
    state = UrnState(net, rng.uniform(1, 20, n), rng.uniform(1, 20, n))
    budgets = [rng.uniform(1, 100) * (1000.0 if rng.random() < 0.5 else 1.0) for _ in range(2)]
    return net, state, budgets


def test_nash_averaged_certificate_converges(monkeypatch):
    net, state, (curing, infection) = averaged_game()
    assert net.node_count == 14
    assert (round(curing, 1), round(infection, 1)) == (13489.5, 98544.6)
    sol = nash_solve(net, state, curing, infection)
    assert sol.converged and sol.rounds == 10
    assert sol.exploitability == pytest.approx(9.16e-5, rel=1e-3)
    assert sol.curing.sum() == pytest.approx(curing, rel=1e-12)
    # Without the averaged check the same game ends unconverged.
    monkeypatch.setattr(optimize, "_AVERAGED_CHECK_EVERY", 10**9)
    sol = nash_solve(net, state, curing, infection, rounds=30)
    assert not sol.converged and sol.rounds == 30
    assert sol.exploitability == pytest.approx(1.24e-3, rel=1e-2)
