import itertools
import math
import tracemalloc

import numpy as np
import pytest

from polyanet.engine import UrnState
from polyanet.graph import Network, generate_barabasi_albert
from polyanet.oracle import (
    EnumerationCapError,
    ExposureObjective,
    average_infection_rate,
    expected_exposure,
    infection_rate_time1,
    iter_path_probabilities,
    joint_probability,
    partition_sanity,
)

from conftest import (
    cycle_network,
    path_network,
    random_connected_network,
    star_network,
)
from support import orbit_average


def single_node():
    return Network(np.zeros((1, 1), dtype=bool))


# -- joint probabilities ------------------------------------------------------

def test_joint_probability_classical_two_draws():
    net = single_node()
    p = joint_probability(net, [1.0], [1.0], (1.0, 1.0), [[1, 1]])
    assert p == pytest.approx(1 / 3, abs=1e-15)


def test_joint_probability_zero_on_impossible_history():
    net = single_node()
    p = joint_probability(net, [1.0], [0.0], (1.0, 1.0), [[1, 0]])
    assert p == 0.0


def test_joint_probability_p3_one_step(p3):
    p = joint_probability(p3, [1, 1, 1], [1, 0, 1], (1.0, 1.0), [[1], [0], [1]])
    assert p == pytest.approx((2 / 3) * (2 / 5) * (2 / 3), abs=1e-15)


def test_joint_probability_rejects_bad_shape(p3):
    with pytest.raises(ValueError, match="shape"):
        joint_probability(p3, [1, 1, 1], [1, 1, 1], (1.0, 1.0), [[1, 0]])


def test_partition_sanity_fixtures(p3, rng):
    assert partition_sanity(single_node(), [1.0], [1.0], (1.0, 1.0), 2) == pytest.approx(
        1.0, abs=1e-12)
    assert partition_sanity(p3, [1, 1, 1], [1, 0, 1], (1.0, 1.0), 1) == pytest.approx(
        1.0, abs=1e-12)
    net = random_connected_network(rng, 3)
    total = partition_sanity(net, rng.uniform(0.5, 2, 3), rng.uniform(0, 2, 3),
                             (rng.uniform(0, 2, 3), rng.uniform(0, 2, 3)), 2)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_enumeration_cap_suggests_monte_carlo(p3):
    with pytest.raises(EnumerationCapError, match="Monte Carlo"):
        partition_sanity(p3, [1, 1, 1], [1, 1, 1], (1.0, 1.0), 9)
    with pytest.raises(EnumerationCapError):
        average_infection_rate(p3, [1, 1, 1], [1, 1, 1], (1.0, 1.0), 10)


def test_path_probabilities_enumerate_all_masses():
    net = single_node()
    paths = list(iter_path_probabilities(net, [1.0], [1.0], (1.0, 1.0), 2))
    by_history = {tuple(p.history[0].tolist()): p.probability for p in paths}
    # classical urn: P(1,1) = P(0,0) = 1/3, P(1,0) = P(0,1) = 1/6
    assert by_history[(1, 1)] == pytest.approx(1 / 3, abs=1e-15)
    assert by_history[(0, 0)] == pytest.approx(1 / 3, abs=1e-15)
    assert by_history[(1, 0)] == pytest.approx(1 / 6, abs=1e-15)
    assert by_history[(0, 1)] == pytest.approx(1 / 6, abs=1e-15)


# -- average infection rate -----------------------------------------------------

def test_average_infection_rate_time1_fixture(p3):
    assert average_infection_rate(p3, [1, 1, 1], [1, 0, 1], (1.0, 1.0), 1) == pytest.approx(
        29 / 45, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_classical_urn_marginals_are_invariant(n):
    """Symmetric single-urn start keeps every marginal at one half."""
    rate = average_infection_rate(single_node(), [1.0], [1.0], (1.0, 1.0), n)
    assert rate == pytest.approx(0.5, abs=1e-12)


def test_colour_symmetric_networks_stay_at_half(rng):
    for _ in range(5):
        n = int(rng.integers(2, 4))
        net = random_connected_network(rng, n)
        red = rng.uniform(0.5, 2, n)
        delta = rng.uniform(0, 2, n)
        for t in range(1, 4):
            rate = average_infection_rate(net, red, red, (delta, delta), t)
            assert rate == pytest.approx(0.5, abs=1e-12)


def test_average_infection_rate_matches_time1_closed_form(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        net = random_connected_network(rng, n)
        red = rng.uniform(0.5, 2, n)
        black = rng.uniform(0, 2, n)
        closed_form, _ = infection_rate_time1(net, red, black)
        enumerated = average_infection_rate(net, red, black, (1.0, 1.0), 1)
        assert enumerated == pytest.approx(closed_form, abs=1e-14)


def test_monotone_in_initial_masses(rng):
    """More black mass anywhere can only lower the rate; more red raises it."""
    for _ in range(6):
        n = int(rng.integers(2, 4))
        net = random_connected_network(rng, n)
        red = rng.uniform(0.5, 2, n)
        black = rng.uniform(0.2, 2, n)
        sched = (rng.uniform(0, 2, n), rng.uniform(0, 2, n))
        j = int(rng.integers(n))
        bump = np.zeros(n)
        bump[j] = rng.uniform(0.1, 1.0)
        for t in range(1, 4):
            base = average_infection_rate(net, red, black, sched, t)
            assert average_infection_rate(net, red, black + bump, sched, t) <= base + 1e-12
            assert average_infection_rate(net, red + bump, black, sched, t) >= base - 1e-12


# -- time-1 closed form and gradient ---------------------------------------------

def test_uniform_masses_give_half(rng):
    net = random_connected_network(rng, 6)
    value, _ = infection_rate_time1(net, np.full(6, 1.3), np.full(6, 1.3))
    assert value == pytest.approx(0.5, abs=1e-15)


def test_time1_gradient_p3_fixture(p3):
    value, grad = infection_rate_time1(p3, [1, 1, 1], [1, 0, 1])
    assert value == pytest.approx(29 / 45, abs=1e-12)
    # d/dB_2 sums the three super urns containing node 2: 2/9 + 3/25 + 2/9
    assert grad[1] == pytest.approx(-(2 / 9 + 3 / 25 + 2 / 9) / 3, abs=1e-12)
    assert grad[1] == pytest.approx(-127 / 675, abs=1e-12)


def test_time1_requires_red_everywhere():
    net = path_network(5)
    red = np.zeros(5)
    red[0] = 1.0  # super urns of nodes 3..5 hold no red
    with pytest.raises(ValueError, match="positive"):
        infection_rate_time1(net, red, np.ones(5))


def test_time1_gradient_matches_finite_differences(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        net = random_connected_network(rng, n)
        red = rng.uniform(0.5, 2, n)
        black = rng.uniform(0.1, 2, n)
        _, grad = infection_rate_time1(net, red, black)
        h = 1e-6 * max(1.0, float(black.max()))
        fd = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            up, _ = infection_rate_time1(net, red, black + e)
            dn, _ = infection_rate_time1(net, red, black - e)
            fd[j] = (up - dn) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6


def test_time1_midpoint_convex_in_black_concave_in_red(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        net = random_connected_network(rng, n)
        red = rng.uniform(0.5, 2, n)
        b1 = rng.uniform(0, 2, n)
        b2 = rng.uniform(0, 2, n)
        f = lambda b: infection_rate_time1(net, red, b)[0]
        assert f((b1 + b2) / 2) <= (f(b1) + f(b2)) / 2 + 1e-12
        r1 = rng.uniform(0.5, 2, n)
        r2 = rng.uniform(0.5, 2, n)
        black = rng.uniform(0, 2, n)
        g = lambda r: infection_rate_time1(net, r, black)[0]
        assert g((r1 + r2) / 2) >= (g(r1) + g(r2)) / 2 - 1e-12


def test_merging_nested_node_mass_never_hurts(rng):
    """Moving the black mass of a nested node onto its dominating neighbour
    cannot increase the time-1 rate."""
    checked = 0
    while checked < 30:
        n = int(rng.integers(3, 9))
        net = random_connected_network(rng, n, extra_edge_prob=float(rng.random()) * 0.4)
        closed = [set(c.tolist()) for c in net.closed_neighbors]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and closed[i] < closed[j]]
        if not pairs:
            continue
        red = rng.uniform(0.5, 2, n)
        black = rng.uniform(0, 2, n)
        i, j = pairs[int(rng.integers(len(pairs)))]
        merged = black.copy()
        merged[j] += merged[i]
        merged[i] = 0.0
        base, _ = infection_rate_time1(net, red, black)
        after, _ = infection_rate_time1(net, red, merged)
        assert after <= base + 1e-12
        checked += 1


def test_orbit_averaging_never_hurts_on_cycles(rng):
    for n in range(4, 9):
        net = cycle_network(n)
        rotation = [(i + 1) % n for i in range(n)]
        red = np.full(n, float(rng.uniform(0.5, 2)))
        for _ in range(20):
            black = rng.uniform(0, 2, n)
            averaged = orbit_average(rotation, black)
            base, _ = infection_rate_time1(net, red, black)
            after, _ = infection_rate_time1(net, red, averaged)
            assert after <= base + 1e-12


# -- expected exposure ------------------------------------------------------------

def _state_after_random_steps(rng, net, steps=3):
    n = net.node_count
    state = UrnState(net, rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, n))
    for _ in range(steps):
        state.step(rng.random(n), rng.uniform(0, 2, n), rng.uniform(0, 2, n))
    return state


def test_exposure_zero_steps_is_current_mean(rng):
    net = random_connected_network(rng, 5)
    state = _state_after_random_steps(rng, net)
    value, _, _ = expected_exposure(state, 0.0, 0.0)
    assert value == pytest.approx(float(state.exposure.mean()), abs=1e-12)


def test_exposure_single_node_hand_sum():
    state = UrnState(Network(np.zeros((1, 1), dtype=bool)), [1.0], [1.0])
    value, gx, gy = expected_exposure(state, [1.0], [1.0])
    assert value == pytest.approx(0.5 * (2 / 3) + 0.5 * (1 / 3), abs=1e-14)


@pytest.mark.parametrize("x, y", [(-1.0, 1.0), (1.0, -0.5), (np.nan, 1.0), (1.0, np.inf),
                                  ([1.0, -1e-9, 1.0], 1.0)],
                         ids=["x-negative", "y-negative", "x-nan", "y-inf", "x-one-node"])
def test_exposure_rejects_negative_or_non_finite_steps(p3, x, y):
    state = UrnState(p3, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        expected_exposure(state, x, y)


def test_exposure_gradient_signs(rng):
    for _ in range(20):
        net = random_connected_network(rng, int(rng.integers(2, 6)))
        state = _state_after_random_steps(rng, net)
        n = net.node_count
        _, gx, gy = expected_exposure(state, rng.uniform(0, 2, n), rng.uniform(0, 2, n))
        assert (gx <= 1e-15).all()
        assert (gy >= -1e-15).all()


def _naive_expected_exposure(state, x, y):
    """Full 2^N enumeration of the joint next draw, written from scratch."""
    net = state.net
    n = net.node_count
    s = state.exposure
    c = state.super_red
    d = state.super_black
    total = 0.0
    for z in itertools.product((0, 1), repeat=n):
        z = np.array(z)
        weight = np.prod(np.where(z == 1, s, 1 - s))
        for i in range(n):
            nbrs = net.closed_neighbors[i]
            red_add = float((y[nbrs] * z[nbrs]).sum())
            black_add = float((x[nbrs] * (1 - z[nbrs])).sum())
            total += weight * (c[i] + red_add) / (c[i] + d[i] + red_add + black_add)
    return total / n


def test_exposure_factorization_matches_naive_enumeration(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        net = random_connected_network(rng, n)
        state = _state_after_random_steps(rng, net)
        x = rng.uniform(0, 2, n)
        y = rng.uniform(0, 2, n)
        value, _, _ = expected_exposure(state, x, y)
        assert value == pytest.approx(_naive_expected_exposure(state, x, y), abs=1e-12)


def test_exposure_gradients_match_finite_differences(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        net = random_connected_network(rng, n)
        state = _state_after_random_steps(rng, net)
        x = rng.uniform(0.1, 2, n)
        y = rng.uniform(0.1, 2, n)
        obj = ExposureObjective(state)
        _, gx, gy = obj.value_and_gradients(x, y)
        h = 1e-6
        fdx = np.empty(n)
        fdy = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fdx[j] = (obj.value(x + e, y) - obj.value(x - e, y)) / (2 * h)
            fdy[j] = (obj.value(x, y + e) - obj.value(x, y - e)) / (2 * h)
        assert np.linalg.norm(gx - fdx) / max(np.linalg.norm(fdx), 1e-30) < 1e-6
        assert np.linalg.norm(gy - fdy) / max(np.linalg.norm(fdy), 1e-30) < 1e-6


def test_exposure_midpoint_convex_in_curing_concave_in_infection(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        net = random_connected_network(rng, n)
        state = _state_after_random_steps(rng, net, steps=1)
        obj = ExposureObjective(state)
        y = rng.uniform(0, 2, n)
        x1, x2 = rng.uniform(0, 2, n), rng.uniform(0, 2, n)
        assert obj.value((x1 + x2) / 2, y) <= (obj.value(x1, y) + obj.value(x2, y)) / 2 + 1e-12
        x = rng.uniform(0, 2, n)
        y1, y2 = rng.uniform(0, 2, n), rng.uniform(0, 2, n)
        assert obj.value(x, (y1 + y2) / 2) >= (obj.value(x, y1) + obj.value(x, y2)) / 2 - 1e-12


def _star_exposure(state, x_hub, x_leaf, y_hub, y_leaf):
    """Exposure of a star whose leaves share one state and one step pair: the
    hub's term sums over its own draw and the binomial number of red leaves,
    each leaf's term over the four outcomes of itself and the hub."""
    leaves = state.node_count - 1
    s, c, d = state.exposure, state.super_red, state.super_black
    total = 0.0
    for hub_red in (0, 1):
        p_hub = s[0] if hub_red else 1.0 - s[0]
        red = np.arange(leaves + 1)
        p_red = np.array([math.comb(leaves, k) for k in red]) * s[1]**red * (1 - s[1])**(leaves - red)
        num = c[0] + hub_red * y_hub + red * y_leaf
        den = num + d[0] + (1 - hub_red) * x_hub + (leaves - red) * x_leaf
        total += p_hub * float(p_red @ (num / den))
        for leaf_red in (0, 1):
            p_leaf = s[1] if leaf_red else 1.0 - s[1]
            num = c[1] + hub_red * y_hub + leaf_red * y_leaf
            den = num + d[1] + (1 - hub_red) * x_hub + (1 - leaf_red) * x_leaf
            total += leaves * p_hub * p_leaf * num / den
    return total / state.node_count


def test_exposure_exact_on_star_hub_with_25_node_neighbourhood():
    leaves = 24
    net = star_network(leaves + 1)
    red = np.full(leaves + 1, 3.0)
    black = np.full(leaves + 1, 5.0)
    red[0], black[0] = 7.0, 2.0
    state = UrnState(net, red, black)
    steps = {"x_hub": 4.0, "x_leaf": 1.5, "y_hub": 0.5, "y_leaf": 2.5}

    def vectors(x_hub, x_leaf, y_hub, y_leaf):
        x = np.full(leaves + 1, x_leaf)
        y = np.full(leaves + 1, y_leaf)
        x[0], y[0] = x_hub, y_hub
        return x, y

    value, gx, gy = ExposureObjective(state).value_and_gradients(*vectors(**steps))
    assert value == pytest.approx(_star_exposure(state, **steps), rel=1e-12, abs=0)

    def central(key):
        h = 1e-4
        up, dn = dict(steps), dict(steps)
        up[key] += h
        dn[key] -= h
        return (_star_exposure(state, **up) - _star_exposure(state, **dn)) / (2 * h)

    # A shared leaf step moves every leaf at once, so each leaf's partial is
    # 1/24 of the shared one.
    assert gx[0] == pytest.approx(central("x_hub"), rel=1e-7)
    assert gy[0] == pytest.approx(central("y_hub"), rel=1e-7)
    assert gx[1:] == pytest.approx(np.full(leaves, central("x_leaf") / leaves), rel=1e-7)
    assert gy[1:] == pytest.approx(np.full(leaves, central("y_leaf") / leaves), rel=1e-7)


def test_exposure_exact_at_colour_symmetric_state_with_large_hub():
    net = generate_barabasi_albert(100, 1, 0)
    assert max(len(nb) for nb in net.closed_neighbors) == 25
    state = UrnState(net, np.full(100, 10.0), np.full(100, 10.0))
    value, _, _ = expected_exposure(state, 3.0, 3.0)
    assert value == pytest.approx(0.5, abs=1e-13)  # swapping colours maps value to 1 - value


def test_exposure_objective_is_a_snapshot_of_its_state():
    """Advancing the state after the objective is built changes no value."""
    net = generate_barabasi_albert(20, 1, 0)
    state = UrnState(net, np.full(20, 10.0), np.full(20, 10.0))
    obj = ExposureObjective(state)
    before = obj.value(np.ones(20), np.ones(20))
    state.advance(np.ones(20), 5.0, 5.0)
    assert obj.value(np.ones(20), np.ones(20)) == before == pytest.approx(0.5, abs=1e-13)


def test_exposure_memory_on_facebook_sized_network():
    net = generate_barabasi_albert(1363, 10, 0)
    n = net.node_count
    tracemalloc.start()
    try:
        state = UrnState(net, np.full(n, 10.0), np.full(n, 10.0))
        value, _, _ = ExposureObjective(state).value_and_gradients(np.full(n, 3.0), np.full(n, 3.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.5, abs=1e-13)
    assert peak < 100e6
