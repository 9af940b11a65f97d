import logging

import numpy as np
import pytest

from polyanet.engine import UrnState
from polyanet.graph import closeness_centrality, generate_barabasi_albert
from polyanet.harness import ExperimentConfig, run_experiment
from polyanet.optimize import DescentConfig, optimize_init
from polyanet.policies import FAMILIES, StrategySpec, cure_allocator, init_allocation

from conftest import cycle_network, path_network, random_connected_network, star_network
from support import verify_automorphism

NON_OPTIMIZER = [f for f in FAMILIES if f != "i"]


def test_parse_roundtrip():
    spec = StrategySpec.parse("init:vi")
    assert spec.side == "init" and spec.family == "vi"
    assert str(StrategySpec.parse("cure:iv")) == "cure:iv"


@pytest.mark.parametrize("text", ["init:x", "vi", "boost:ii"])
def test_parse_rejects_invalid(text):
    with pytest.raises(ValueError):
        StrategySpec.parse(text)


def test_uniform_init_splits_budget():
    net = path_network(4)
    b = init_allocation(StrategySpec("init", "ii"), net, np.ones(4), 8.0)
    assert b.tolist() == [2.0, 2.0, 2.0, 2.0]


def test_inner_uniform_init_on_p5():
    net = path_network(5)
    b = init_allocation(StrategySpec("init", "iii"), net, np.ones(5), 6.0)
    assert b.tolist() == [0.0, 2.0, 2.0, 2.0, 0.0]


def test_layered_weighted_init_on_p5():
    net = path_network(5)
    b = init_allocation(StrategySpec("init", "vi"), net, np.ones(5), 7.0)
    assert np.allclose(b, [0.0, 3.5, 0.0, 3.5, 0.0], atol=1e-12)


def test_all_nodes_weighted_init():
    net = path_network(3)
    b = init_allocation(StrategySpec("init", "ix"), net, np.ones(3), 10.0)
    scores = closeness_centrality(net)
    weights = net.degrees * scores
    assert np.allclose(b, 10.0 * weights / weights.sum(), atol=1e-12)


def test_uniform_cure_splits_budget():
    net = path_network(5)
    policy = cure_allocator(StrategySpec("cure", "ii"), net, 10.0)
    state = UrnState(net, np.ones(5), np.ones(5))
    assert policy(1, state).tolist() == [2.0] * 5


def test_weighted_cure_reduces_to_init_weights_when_exposure_equal():
    net = path_network(5)
    state = UrnState(net, np.ones(5), np.ones(5))  # every super urn at one half
    cure = cure_allocator(StrategySpec("cure", "iv"), net, 9.0)(1, state)
    init = init_allocation(StrategySpec("init", "iv"), net, np.ones(5), 9.0)
    assert np.allclose(cure, init, atol=1e-12)


def test_weighted_cure_follows_exposure_on_p5():
    net = path_network(5)
    policy = cure_allocator(StrategySpec("cure", "vi"), net, 10.0)

    class Snapshot:
        exposure = np.array([0.5, 0.8, 0.5, 0.2, 0.5])

    alloc = policy(1, Snapshot())
    assert np.allclose(alloc, [0.0, 8.0, 0.0, 2.0, 0.0], atol=1e-12)


def test_zero_weights_fall_back_to_uniform(caplog):
    net = path_network(5)
    policy = cure_allocator(StrategySpec("cure", "vi"), net, 10.0)

    class Snapshot:
        exposure = np.zeros(5)  # no red anywhere

    with caplog.at_level(logging.WARNING, logger="polyanet.policies"):
        alloc = policy(1, Snapshot())
    assert np.allclose(alloc, [0.0, 5.0, 0.0, 5.0, 0.0], atol=1e-12)
    assert any("falling back to uniform" in r.message for r in caplog.records)


@pytest.mark.parametrize("family", NON_OPTIMIZER)
def test_budget_exactness_and_support(family, rng):
    from polyanet.policies import target_set_for

    for _ in range(5):
        n = int(rng.integers(2, 10))
        net = random_connected_network(rng, n, extra_edge_prob=float(rng.random()) * 0.5)
        budget = float(rng.uniform(0.5, 20))
        b = init_allocation(StrategySpec("init", family), net, np.ones(n), budget)
        assert (b >= 0).all()
        assert abs(b.sum() - budget) <= 1e-9 * budget
        allowed = set(target_set_for(net, family).nodes)
        assert set(np.flatnonzero(b).tolist()) <= allowed

        state = UrnState(net, rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, n))
        d = cure_allocator(StrategySpec("cure", family), net, budget)(1, state)
        assert (d >= 0).all()
        assert abs(d.sum() - budget) <= 1e-9 * budget
        assert set(np.flatnonzero(d).tolist()) <= allowed


@pytest.mark.parametrize("family", NON_OPTIMIZER)
def test_scale_equivariance(family, rng):
    net = random_connected_network(rng, 7)
    red = np.ones(7)
    b1 = init_allocation(StrategySpec("init", family), net, red, 5.0)
    b2 = init_allocation(StrategySpec("init", family), net, red, 10.0)
    assert np.allclose(b2, 2 * b1, atol=1e-12)


# The centrality-greedy target set (vii/viii) breaks closeness ties by node
# index, so it cannot be equivariant between tied nodes; the remaining
# families derive their support purely from set structure.
@pytest.mark.parametrize("family", [f for f in NON_OPTIMIZER if f not in ("vii", "viii")])
def test_rotation_equivariance_on_cycle(family):
    net = cycle_network(6)
    rotation = [(i + 1) % 6 for i in range(6)]
    ok, _ = verify_automorphism(net, rotation)
    assert ok
    b = init_allocation(StrategySpec("init", family), net, np.ones(6), 6.0)
    assert np.allclose(b[rotation], b, atol=1e-12)
    state = UrnState(net, np.ones(6), np.ones(6))
    d = cure_allocator(StrategySpec("cure", family), net, 6.0)(1, state)
    assert np.allclose(d[rotation], d, atol=1e-12)


def test_optimizer_backed_init_concentrates_on_star_center():
    net = star_network(5, center=2)
    b = init_allocation(StrategySpec("init", "i"), net, np.ones(5), 10.0)
    assert b[2] > 0.999 * 10.0
    assert abs(b.sum() - 10.0) <= 1e-9 * 10.0


def test_side_mismatch_rejected():
    net = path_network(3)
    with pytest.raises(ValueError, match="init strategy"):
        init_allocation(StrategySpec("cure", "ii"), net, np.ones(3), 1.0)
    with pytest.raises(ValueError, match="cure strategy"):
        cure_allocator(StrategySpec("init", "ii"), net, 1.0)


def test_unconverged_descent_is_logged(caplog):
    net = path_network(5)
    capped = DescentConfig(max_iterations=1)
    res = optimize_init(net, np.ones(5), 10.0, capped)
    assert not res.converged
    state = UrnState(net, np.ones((3, 5)), np.ones((3, 5)))
    with caplog.at_level(logging.WARNING, logger="polyanet.policies"):
        init_allocation(StrategySpec("init", "i", descent=capped), net, np.ones(5), 10.0)
        cure_allocator(StrategySpec("cure", "i", descent=capped), net, 10.0)(2, state, 1.0)
        init_allocation(StrategySpec("init", "i"), net, np.ones(5), 10.0)
    init_msg, cure_msg = [r.getMessage() for r in caplog.records]
    assert f"gap {res.gap:.3g} after 1 iterations" in init_msg
    assert "3 of 3 rows" in cure_msg and "largest gap" in cure_msg


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_in_loop_cure_descent_converges_within_its_cap(caplog, seed):
    """The benchmark's in-loop cure i arm: BA(30,1) at 10 per node, budgets
    300 and 90, 2 trials x 2 steps, 30 descent iterations a step."""
    net = generate_barabasi_albert(30, 1, seed=7)
    cfg = ExperimentConfig(steps=2, trials=2, seed=seed, red_budget=300.0,
                           black_values=(10.0,) * 30, red_step_budget=90.0,
                           cure_strategy="i", cure_budget=90.0, descent_iterations=30)
    with caplog.at_level(logging.WARNING, logger="polyanet.policies"):
        run_experiment(net, cfg)
    assert not [r for r in caplog.records if "descent not converged" in r.getMessage()]
