import numpy as np
import pytest

from polyanet.engine import UrnState, as_schedule
from polyanet.graph import Network

from conftest import path_network, random_connected_network, strict_draws, trial_draws


def single_node():
    return Network(np.zeros((1, 1), dtype=bool))


def test_initial_exposure_single_node():
    state = UrnState(single_node(), [1.0], [1.0])
    assert state.exposure.tolist() == [0.5]


def test_initial_exposure_p3(p3):
    state = UrnState(p3, [1, 1, 1], [1, 0, 1])
    assert np.allclose(state.exposure, [2 / 3, 3 / 5, 2 / 3], atol=0, rtol=0)
    u_mean, s_mean, _, _ = state.metrics()
    assert s_mean == pytest.approx(29 / 45, abs=1e-15)


def test_empty_super_urn_rejected():
    net = path_network(3)
    with pytest.raises(ValueError, match="empty urn"):
        UrnState(net, [1, 0, 1], [0, 0, 0])
    with pytest.raises(ValueError, match="nonnegative"):
        UrnState(net, [1, -1, 1], [1, 1, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_masses_rejected(p3, bad):
    with pytest.raises(ValueError, match="finite"):
        UrnState(p3, [1, bad, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="finite"):
        UrnState(p3, [1, 1, 1], bad)
    state = UrnState(p3, [1, 1, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="finite"):
        state.advance([1, 0, 1], 1.0, [1.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        state.advance([1, 0, 1], bad, 1.0)
    assert state.time == 0 and (state.total == [2, 2, 2]).all()


def test_arrays_stay_c_contiguous(rng):
    """Rows of every mass array stay contiguous, so that per-trial row sums
    take numpy's pairwise path whatever the step did."""
    net = random_connected_network(rng, 9)
    state = UrnState(net, rng.uniform(0.5, 2, 9), rng.uniform(0.5, 2, (4, 9)))
    names = ("red", "total", "super_red", "super_total")
    for step in range(7):
        assert all(getattr(state, a).flags.c_contiguous for a in names), step
        state.step(rng.random((4, 9)), rng.uniform(0, 2, 9), rng.uniform(0, 2, (4, 9)))


def test_single_node_hand_step():
    state = UrnState(single_node(), [1.0], [1.0])
    z = state.step([0.4], 1.0, 1.0)
    assert z.tolist() == [1]
    assert state.red.tolist() == [2.0]
    assert state.total.tolist() == [3.0]
    assert state.exposure.tolist() == [2 / 3]
    assert state.time == 1


def test_all_red_super_urn_forces_infection():
    state = UrnState(single_node(), [1.0], [0.0])
    assert state.draw([1.0]).tolist() == [1]  # uniform at the top of its range


def test_zero_uniforms_infect_everyone(p3):
    state = UrnState(p3, [1, 1, 1], [1, 0, 1])
    assert state.step(np.zeros(3), 1.0, 1.0).tolist() == [1, 1, 1]


def test_negative_reinforcement_rejected(p3):
    state = UrnState(p3, [1, 1, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        state.advance([1, 0, 1], -1.0, 0.0)


def test_conditional_draw_frequency_matches_exposure(rng):
    """With the history frozen, draw frequencies are binomial around the
    super-urn proportions."""
    net = random_connected_network(rng, 5)
    state = UrnState(net, rng.uniform(0.5, 2, 5), rng.uniform(0.5, 2, 5))
    for _ in range(4):
        state.step(rng.random(5), rng.uniform(0, 2, 5), rng.uniform(0, 2, 5))
    s = state.exposure
    samples = 100_000
    hits = np.zeros(5)
    for _ in range(samples):
        hits += state.draw(rng.random(5))
    freq = hits / samples
    se = np.sqrt(s * (1 - s) / samples)
    assert (np.abs(freq - s) <= 3 * se + 1e-12).all()


def test_pathwise_domination_under_shared_uniforms(rng):
    """Adding black mass can only turn red draws into black ones, never the
    reverse, when both runs see the same uniforms."""
    net = random_connected_network(rng, 6)
    red = rng.uniform(0.5, 2, 6)
    black = rng.uniform(0.0, 1, 6)
    bumped = black + rng.uniform(0, 2, 6)
    schedule = (rng.uniform(0, 2, 6), rng.uniform(0, 2, 6))
    uniforms = rng.random((6, 8))
    z_base = trial_draws(net, red, black, schedule, uniforms)
    z_bumped = trial_draws(net, red, bumped, schedule, uniforms)
    assert (z_bumped <= z_base).all()


def test_colour_swap_mirrors_draws(rng):
    """Swapping colours and mirroring the uniforms (with the strict rule of
    ``strict_draws``) flips every draw."""
    net = random_connected_network(rng, 5)
    red = rng.uniform(0.2, 2, 5)
    black = rng.uniform(0.2, 2, 5)
    dr = rng.uniform(0, 2, 5)
    db = rng.uniform(0, 2, 5)
    uniforms = rng.random((5, 10))
    z = trial_draws(net, red, black, (dr, db), uniforms)
    z_swapped = trial_draws(net, black, red, (db, dr), 1.0 - uniforms, strict_draws)
    assert (z_swapped == 1 - z).all()


def test_ball_conservation_is_exact(rng):
    net = random_connected_network(rng, 4)
    red0 = rng.uniform(0.5, 2, 4)
    black0 = rng.uniform(0.5, 2, 4)
    state = UrnState(net, red0, black0)
    deltas = []
    draws = []
    totals_over_time = [state.total.copy()]
    for _ in range(30):
        dr = rng.uniform(0, 2, 4)
        db = rng.uniform(0, 2, 4)
        deltas.append((dr, db))
        draws.append(state.step(rng.random(4), dr, db))
        totals_over_time.append(state.total.copy())
    z = np.stack(draws, axis=1)
    expected = red0 + black0
    for t, (dr, db) in enumerate(deltas):
        expected = expected + np.where(z[:, t] == 1, dr, db)
    assert (state.total == expected).all()
    assert (np.diff(np.stack(totals_over_time), axis=0) >= 0).all()


def test_incremental_super_sums_match_recomputation(rng):
    """After 1000 steps the incrementally maintained super-urn proportions
    agree with a from-scratch evaluation over the draw history."""
    net = random_connected_network(rng, 6)
    red0 = rng.uniform(0.5, 2, 6)
    black0 = rng.uniform(0.5, 2, 6)
    state = UrnState(net, red0, black0)
    schedule = []
    draws = []
    for _ in range(1000):
        dr = rng.uniform(0, 1, 6)
        db = rng.uniform(0, 1, 6)
        schedule.append((dr, db))
        draws.append(state.step(rng.random(6), dr, db))
    z = np.stack(draws, axis=1)
    red = red0.copy()
    total = red0 + black0
    for t, (dr, db) in enumerate(schedule):
        red = red + np.where(z[:, t] == 1, dr, 0.0)
        total = total + np.where(z[:, t] == 1, dr, db)
    closed = [c.tolist() for c in net.closed_neighbors]
    scratch = np.array([red[c].sum() / total[c].sum() for c in closed])
    assert np.abs(state.exposure - scratch).max() < 1e-12


def test_schedule_normalization(p3):
    sched = as_schedule((2.0, np.array([1.0, 0.0, 1.0])))
    dr, db = sched(1, None)
    assert float(dr) == 2.0
    assert db.tolist() == [1.0, 0.0, 1.0]
    fn = as_schedule(lambda t, state: (t, 0.0))
    assert fn(3, None) == (3, 0.0)


def test_batch_rows_match_single_trials(rng):
    """A batch of trials steps every row exactly as a one-trial state fed the
    same uniforms and reinforcements would, bit for bit."""
    net = random_connected_network(rng, 7)
    red = rng.uniform(0.5, 2, 7)
    black = rng.uniform(0.0, 2, (4, 7))
    batch = UrnState(net, red, black)
    singles = [UrnState(net, red, b) for b in black]
    assert batch.red.shape == (4, 7)
    for _ in range(20):
        u = rng.random((4, 7))
        dr = rng.uniform(0, 2, 7)
        db = rng.uniform(0, 2, (4, 7))
        z = batch.step(u, dr, db)
        for k, single in enumerate(singles):
            assert (single.step(u[k], dr, db[k]) == z[k]).all()
    for single, row in zip(singles, batch.rows()):
        for name in ("red", "total", "super_red", "super_total"):
            assert (getattr(single, name) == getattr(row, name)).all()
        assert row.time == batch.time == 20
    assert np.shares_memory(batch.rows()[0].red, batch.red)  # rows are views
