"""One rule for every mass, step and budget: finite and nonnegative.

Each library entry that takes one raises ``ValueError`` naming the
argument for NaN, +inf, -inf and a negative value, and accepts zero; the
oracles refuse states whose super-urn totals have left the float range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyanet.engine import UrnState
from polyanet.graph import Network, generate_barabasi_albert
from polyanet.harness import ExperimentConfig
from polyanet.optimize import (
    DescentConfig,
    frank_wolfe_simplex,
    nash_solve,
    optimize_cure_step,
    optimize_init,
)
from polyanet.oracle import (
    ExposureObjective,
    average_infection_rate,
    expected_exposure,
    infection_rate_time1,
    partition_sanity,
)
from polyanet.policies import StrategySpec, cure_allocator, init_allocation

SHORT = DescentConfig(max_iterations=3)


def _config(**arm):
    return ExperimentConfig(steps=1, trials=1, **arm)


# (entry, argument) -> (whether the argument takes per-node arrays, call).
# A call gets the network, a state on it and the value under test.
ENTRIES = {
    ("infection_rate_time1", "red_init"):
        (True, lambda net, s, v: infection_rate_time1(net, v, 1.0)),
    ("infection_rate_time1", "black_init"):
        (True, lambda net, s, v: infection_rate_time1(net, 1.0, v)),
    ("expected_exposure", "curing_step"): (True, lambda net, s, v: expected_exposure(s, v, 1.0)),
    ("expected_exposure", "infection_step"):
        (True, lambda net, s, v: expected_exposure(s, 1.0, v)),
    ("nash_solve", "curing_budget"):
        (False, lambda net, s, v: nash_solve(net, s, v, 2.0, SHORT, rounds=2)),
    ("nash_solve", "infection_budget"):
        (False, lambda net, s, v: nash_solve(net, s, 2.0, v, SHORT, rounds=2)),
    ("init_allocation", "red_init"):
        (True, lambda net, s, v: init_allocation(StrategySpec("init", "ii"), net, v, 2.0)),
    ("init_allocation", "budget"):
        (False, lambda net, s, v: init_allocation(StrategySpec("init", "iv"), net, 1.0, v)),
    ("init_allocation(i)", "budget"):
        (False, lambda net, s, v: init_allocation(StrategySpec("init", "i", SHORT), net, 1.0, v)),
    ("cure_allocator", "budget"):
        (False, lambda net, s, v: cure_allocator(StrategySpec("cure", "vi"), net, v)(1, s)),
    ("cure_allocator(i)", "budget"):
        (False, lambda net, s, v: cure_allocator(StrategySpec("cure", "i", SHORT), net, v)(1, s)),
    ("frank_wolfe_simplex", "budget"): (False, lambda net, s, v: frank_wolfe_simplex(
        lambda x: (float(x @ x), 2 * x), v, net.node_count, SHORT)),
    ("optimize_init", "red_init"): (True, lambda net, s, v: optimize_init(net, v, 2.0, SHORT)),
    ("optimize_init", "budget"): (False, lambda net, s, v: optimize_init(net, 1.0, v, SHORT)),
    ("optimize_cure_step", "budget"):
        (False, lambda net, s, v: optimize_cure_step(net, s, v, 1.0, SHORT)),
    ("optimize_cure_step", "infection_step"):
        (True, lambda net, s, v: optimize_cure_step(net, s, 2.0, v, SHORT)),
}
# Every mass, step and budget field of a config, each in an arm that can run.
CONFIG_ARMS = {
    "red_budget": lambda v: _config(red_budget=v, delta=1.0),
    "red_values": lambda v: _config(red_values=v, delta=1.0),
    "init_budget": lambda v: _config(red_budget=1.0, delta=1.0, init_strategy="ii", init_budget=v),
    "black_values": lambda v: _config(red_budget=1.0, delta=1.0, black_values=v),
    "delta": lambda v: _config(red_budget=1.0, delta=v),
    "delta_r": lambda v: _config(red_budget=1.0, delta_r=v, delta_b=1.0),
    "delta_b": lambda v: _config(red_budget=1.0, delta_r=1.0, delta_b=v),
    "red_step_budget": lambda v: _config(red_budget=1.0, red_step_budget=v, delta_b=1.0),
    "cure_budget": lambda v: _config(red_budget=1.0, delta_r=1.0, cure_strategy="ii",
                                     cure_budget=v),
}
for _name, _arm in CONFIG_ARMS.items():
    ENTRIES["ExperimentConfig", _name] = (_name.endswith("values"),
                                          lambda net, s, v, arm=_arm: arm(v))


@pytest.mark.parametrize("entry", sorted(ENTRIES), ids="-".join)
@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 99), at=st.integers(0, 7),
       negative=st.floats(-1e300, -1e-300))
def test_every_entry_checks_each_mass_step_and_budget(entry, n, seed, at, negative):
    """NaN, +inf, -inf or a negative value, alone or at one node of an
    array, raises ``ValueError`` naming its argument; zero is accepted.
    Among these are the holes each entry once left: a negative
    ``optimize_cure_step`` budget gave a negative allocation flagged
    converged, NaN or inf allocation budgets gave NaN or inf allocations,
    an infinite ``infection_step`` failed inside numpy, and NaN or inf
    masses gave a NaN time-1 rate."""
    per_node, call = ENTRIES[entry]
    net = generate_barabasi_albert(n, 1, seed)
    state = UrnState(net, np.full(n, 2.0), np.full(n, 3.0))
    for value in (np.nan, np.inf, -np.inf, negative, 0.0):
        if per_node:
            values = np.ones(n)
            values[at % n] = value
            value = tuple(values) if entry[0] == "ExperimentConfig" else values
        if np.any(np.asarray(value) == 0.0):
            call(net, state, value)
        else:
            with pytest.raises(ValueError, match=f"^{entry[1]} must be finite and nonnegative$"):
                call(net, state, value)


# -- totals past the float range ---------------------------------------------

def ba20():
    return generate_barabasi_albert(20, 1, seed=1)


def test_time1_gradient_overflow_is_refused():
    """A super-urn total past the square root of the float range would
    square to inf and read as a zero gradient entry."""
    net = ba20()
    with pytest.raises(ValueError, match="overflow the time-1 gradient"):
        infection_rate_time1(net, 1.0, 1e160)
    with pytest.raises(ValueError, match="overflow the time-1 gradient"):
        optimize_init(net, np.ones(20), 1e306)
    value, grad = infection_rate_time1(net, 1.0, 1e150)  # just below: still a gradient
    assert (grad < 0).all() and value > 0


def test_exposure_objective_refuses_overflowed_totals():
    net = ba20()
    state = UrnState(net, np.full(20, 1e308), 0.0)  # closed sums of 1e308 overflow
    assert not np.isfinite(state.super_total).all()
    with pytest.raises(ValueError, match="^super-urn totals must be finite and nonnegative$"):
        ExposureObjective(state)
    with pytest.raises(ValueError, match="^super-urn totals must be finite"):
        optimize_cure_step(net, state, 1.0)


def test_exposure_refuses_steps_that_overflow_a_total():
    """Finite steps whose closed sums pass the float range would size the
    quadrature from an infinite rate."""
    net = ba20()
    state = UrnState(net, np.full(20, 10.0), np.full(20, 10.0))
    with pytest.raises(ValueError,
                       match="^steps must keep every super-urn total finite, got one of inf$"):
        optimize_cure_step(net, state, 1.0, 1e308)
    with pytest.raises(ValueError, match="got one of nan$"):
        ExposureObjective(state).value(np.full(20, np.nan), 1.0)


def test_enumerators_refuse_overflowed_totals():
    """At the root, and at a level whose steps push a closed sum past the
    float range while every urn stays finite."""
    net = ba20()
    with pytest.raises(ValueError, match="^super-urn totals must be finite"):
        average_infection_rate(net, np.full(20, 1e308), 0.0, (1.0, 1.0), 1, cap=20)
    dyad = Network.from_edges(2, [(0, 1)])
    half = 0.5e308  # urns of 1e308 after one step, closed sums of 2e308
    assert partition_sanity(dyad, half, 0.0, (half, half), 0) == 1.0
    for steps in (1, 2):
        with pytest.raises(ValueError, match="^super-urn totals must be finite"):
            partition_sanity(dyad, half, 0.0, (half, half), steps)
    with pytest.raises(ValueError, match="^super-urn totals must be finite"):
        average_infection_rate(dyad, half, 0.0, (half, half), 2)
