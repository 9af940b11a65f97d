"""Exact probability computations: ground truth for the Monte Carlo harness
and objectives for the optimizers.

The history enumerators are exponential in (nodes x steps) and guarded by
explicit caps.  They walk the history tree a level at a time on batched
:class:`UrnState` rows, about 0.3 µs per history, so a callable schedule
gets a ``(rows, N)`` state and must act row by row; their batch sums differ
from history-by-history ones by at most 1e-14 on acceptance criterion 02.
The time-1 infection rate is closed-form.  The one-step expected network
exposure is an integral whose cost is linear in the edges; its infection
side is its curing side with the colours swapped.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .engine import UrnState, as_schedule
from .graph import Network

DEFAULT_ENUMERATION_CAP = 24


class EnumerationCapError(ValueError):
    """Requested enumeration is too large; use the Monte Carlo harness instead."""

    def __init__(self, bits, cap):
        super().__init__(
            f"enumeration over 2^{bits} histories exceeds the cap 2^{cap}; "
            f"raise the cap or estimate by Monte Carlo (harness.run_experiment)"
        )


@dataclass(frozen=True)
class PathProbability:
    """A full draw history (node x time) and its probability mass."""

    history: np.ndarray
    probability: float


# Cells (histories x nodes) in one batch of the history walk, as in a trial block.
_BLOCK_CELLS = 1 << 16


def joint_probability(net: Network, red_init, black_init, schedule, history) -> float:
    """Probability of one complete draw history.

    ``history`` has shape (node_count, steps); the probability is the product
    over time of the per-node super-urn proportions (or their complements)
    along the replayed trajectory.
    """
    history = np.asarray(history)
    if history.ndim != 2 or history.shape[0] != net.node_count:
        raise ValueError(
            f"history must have shape (node_count={net.node_count}, steps), got {history.shape}"
        )
    sched = as_schedule(schedule)
    state = UrnState(net, red_init, black_init)
    prob = 1.0
    for t in range(history.shape[1]):
        z = history[:, t]
        s = state.exposure
        prob *= float(np.prod(np.where(z == 1, s, 1.0 - s)))
        if prob == 0.0:
            return 0.0
        state.advance(z, *sched(t + 1, state))
    return prob


def _walk_histories(net, red_init, black_init, schedule, steps, cap):
    """Batches ``(histories, mass, state)`` of the positive-mass histories
    ``(rows, N, steps)`` in lexicographic order: pair k of a level is parent
    row k >> N with pattern k mod 2^N, red at node j where bit N-1-j is set."""
    n = net.node_count
    if n * steps > cap:
        raise EnumerationCapError(n * steps, cap)
    sched = as_schedule(schedule)
    shifts = np.arange(n - 1, -1, -1)
    chunk = max(1, _BLOCK_CELLS // n)

    def expand(state, mass, histories):
        if state.time == steps:
            yield histories, mass, state
            return
        exposure = state.exposure
        for lo in range(0, mass.size << n, chunk):
            pair = np.arange(lo, min(lo + chunk, mass.size << n))
            row, draws = pair >> n, ((pair[:, None] >> shifts) & 1).astype(np.int8)
            s = exposure[row]
            joint = mass[row] * np.prod(np.where(draws == 1, s, 1.0 - s), axis=1)
            live = joint > 0
            if live.any():
                child = state.copy(row[live])
                child.advance(draws[live], *sched(child.time + 1, child))
                yield from expand(child, joint[live], np.concatenate(
                    [histories[row[live]], draws[live, :, None]], axis=2))

    root = UrnState(net, np.atleast_2d(red_init), black_init)
    yield from expand(root, np.ones(1), np.zeros((1, n, 0), dtype=np.int8))


def iter_path_probabilities(net: Network, red_init, black_init, schedule, steps: int,
                            cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield a :class:`PathProbability` for every positive-mass history, in
    lexicographic order (time major, node 0 first), each probability equal
    to :func:`joint_probability`'s bit for bit: about 1.3 µs per history, and
    a callable schedule gets batched states (see the module docstring)."""
    for histories, mass, _ in _walk_histories(net, red_init, black_init, schedule, steps, cap):
        yield from map(PathProbability, histories, mass.tolist())


def partition_sanity(net: Network, red_init, black_init, schedule, steps: int,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Total mass over all histories of the given length; should be 1."""
    return float(sum(mass.sum() for _, mass, _ in
                     _walk_histories(net, red_init, black_init, schedule, steps, cap)))


def average_infection_rate(net: Network, red_init, black_init, schedule, n: int,
                           cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Exact mean over nodes of the marginal red-draw probability at time n.

    Enumerates the 2^(node_count*(n-1)) histories of the first n-1 steps and
    averages the resulting super-urn proportions, weighted by history mass:
    about 0.3 µs per history, summed in batches to within 1e-14 of a
    history-by-history sum on criterion 02.  A callable schedule gets
    batched ``(rows, N)`` states."""
    if n < 1:
        raise ValueError("time index n must be >= 1")
    acc = np.zeros(net.node_count)
    for _, mass, state in _walk_histories(net, red_init, black_init, schedule, n - 1, cap):
        acc += mass @ state.exposure
    return float(acc.mean())


def infection_rate_time1(net: Network, red_init, black_init):
    """Time-1 average infection rate and its gradient in the black masses.

    The value is the mean over nodes of the initial super-urn red
    proportion.  Adding black mass at node j lowers the proportion of every
    super urn containing j, giving the closed-form gradient returned here.
    Requires positive super-urn red mass everywhere.
    """
    n = net.node_count
    red = np.broadcast_to(np.asarray(red_init, dtype=float), (n,))
    black = np.broadcast_to(np.asarray(black_init, dtype=float), (n,))
    if (red < 0).any() or (black < 0).any():
        raise ValueError("ball masses must be nonnegative")
    super_red = net.closed_adjacency @ red
    if (super_red <= 0).any():
        bad = (np.flatnonzero(super_red <= 0) + 1).tolist()
        raise ValueError(f"super-urn red mass must be positive everywhere; zero at nodes {bad}")
    super_total = super_red + net.closed_adjacency @ black
    value = float(np.mean(super_red / super_total))
    grad = -(net.closed_adjacency @ (super_red / super_total**2)) / n
    return value, grad


# The exposure integral over t in (0, inf) is taken by the trapezoidal rule
# in tau after t = t0 exp(tau - exp(-tau)), Takahasi and Mori's
# double-exponential map for integrands that decay exponentially.  With step
# 1/4, from tau = -3.5 until the slowest rate has decayed by e^-41, the rule
# integrates exp(-D t) and t exp(-D t) to within a few ulps for every rate D
# from the smallest super-urn total up to _RATE_SPAN times the largest rate
# that the call reaches; without that headroom the top rates lose digits.
_TAU_STEP = 0.25
_TAU_MIN = -3.5
_TAIL_DECAY = 41.0
_RATE_SPAN = 10.0


def _exposure_rule(low: float, high: float):
    """Points and weights on (0, inf) for decay rates in [low, _RATE_SPAN * high]."""
    t0 = np.e / (_RATE_SPAN * high)
    tau_max = np.log(_TAIL_DECAY / (low * t0))
    tau = np.arange(np.floor(_TAU_MIN / _TAU_STEP), np.ceil(tau_max / _TAU_STEP) + 1) * _TAU_STEP
    shrink = np.exp(-tau)
    t = t0 * np.exp(tau - shrink)
    return t, _TAU_STEP * t * (1.0 + shrink)


class ExposureObjective:
    """One-step expected network exposure as a function of the pending
    reinforcement vectors: exact, with exact gradients.

    Given the state after n-1 steps, each node j draws red next (``Z_j = 1``)
    with its super-urn proportion ``s_j``, independently.  Node i's exposure
    is then ``N_i / D_i``, with ``N_i = c_i + sum_j Z_j y_j`` and
    ``D_i = N_i + d_i + sum_j (1 - Z_j) x_j`` over its closed neighbourhood
    N[i], where ``c_i`` and ``d_i`` are its super-urn red and black masses.
    As ``E[N/D] = int_0^inf E[N exp(-t D)] dt``, the integrand factorizes::

        exp(-t (c_i + d_i)) prod_j a_j(t) (c_i + sum_j y_j r_j(t)),
        a_j(t) = s_j exp(-t y_j) + (1 - s_j) exp(-t x_j),
        r_j(t) = s_j exp(-t y_j) / a_j(t).

    It is summed in log space over Q quadrature points, to rounding error,
    and ``grad_x`` differentiates under the integral; ``grad_y`` is minus the
    ``grad_x`` of the colour-swapped objective (:meth:`mirrored`).  Each call
    sizes its rule from the smallest super-urn total and the largest ``D_i``
    that its steps can reach, so Q grows with the log of their ratio (about
    50 at 10 red and 10 black per node, N = 1363) and no step is out of range.
    One evaluation costs O(Q nnz(C)), C the closed adjacency.

    The objective is convex in the curing (black) vector ``x`` and concave
    in the infection (red) vector ``y``.
    """

    def __init__(self, state: UrnState):
        # Copies: the state's arrays change in place as it advances.
        self._total = total = state.super_total.copy()
        s, q = state.super_red / total, state.super_black / total
        self._closed = state.net.closed_adjacency
        self._urn_total = state.total.copy()
        self._red, self._black = state.super_red[:, None].copy(), state.super_black[:, None]
        self._s, self._q = s[:, None], q[:, None]
        # An outcome that cannot happen gets an infinite step, which drops
        # its term from a_j in _terms.
        self._never_red = np.where(s == 0, np.inf, 0.0)
        self._never_black = np.where(q == 0, np.inf, 0.0)
        self._n = state.node_count

    def mirrored(self) -> "ExposureObjective":
        """The objective with the colours swapped: at ``(y, x)`` its value is
        ``E[B/D] = 1 - value(x, y)`` and its ``grad_x`` minus the ``y`` gradient."""
        dup = copy.copy(self)
        dup._s, dup._q = self._q, self._s
        dup._red, dup._black = self._black, self._red
        dup._never_red, dup._never_black = self._never_black, self._never_red
        return dup

    def _terms(self, x, y):
        """Per node (rows) and quadrature point (columns): ``r_j(t)``, the
        weighted ``exp(-t (c_i + d_i)) prod_j a_j(t)`` and
        ``c_i + sum_j y_j r_j(t)``."""
        rate = (self._total + self._closed @ np.maximum(x, y)).max()
        t, w = _exposure_rule(self._total.min(), rate)
        x_step = x + self._never_black
        y_step = y + self._never_red
        # a_j = exp(-t m_j) (s_j exp(-t (y_j - m_j)) + (1 - s_j) exp(-t (x_j - m_j)))
        # with m_j the smaller possible step, so that log a_j stays finite.
        m = np.minimum(x_step, y_step)
        red = self._s * np.exp((y_step - m)[:, None] * -t)
        scaled = red + self._q * np.exp((x_step - m)[:, None] * -t)
        r = red / scaled
        # sum over N[i] of the urn totals is c_i + d_i.
        weight = w * np.exp(self._closed @ (np.log(scaled) - (m + self._urn_total)[:, None] * t))
        num = self._red + self._closed @ (r * y[:, None])
        return t, r, weight, num

    def value(self, x, y) -> float:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        _, _, weight, num = self._terms(x, y)
        return float(np.vdot(weight, num)) / self._n

    def value_and_grad(self, x, y):
        """Objective value and its gradient in the curing vector ``x``."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        t, r, weight, num = self._terms(x, y)
        # others_j = -sum over i in N[j] of weight_i (num_i - y_j r_j): the
        # super urns holding j, weighted by their red mass without j's step.
        others = y[:, None] * r * (self._closed @ weight) - self._closed @ (weight * num)
        grad_x = (t * (1.0 - r) * others).sum(axis=1) / self._n
        return float(np.vdot(weight, num)) / self._n, grad_x

    def value_and_gradients(self, x, y):
        """Value and the gradients in ``x`` and in ``y`` (by :meth:`mirrored`)."""
        value, grad_x = self.value_and_grad(x, y)
        _, grad_y = self.mirrored().value_and_grad(y, x)
        return value, grad_x, -grad_y


def expected_exposure(state: UrnState, curing_step, infection_step):
    """One-shot expected exposure: ``(value, grad_curing, grad_infection)``.

    Raises ``ValueError`` unless both steps are finite and nonnegative."""
    n = state.node_count
    x = np.broadcast_to(np.asarray(curing_step, dtype=float), (n,))
    y = np.broadcast_to(np.asarray(infection_step, dtype=float), (n,))
    for name, step in (("curing_step", x), ("infection_step", y)):
        if not (np.isfinite(step) & (step >= 0)).all():
            raise ValueError(f"{name} must be finite and nonnegative")
    return ExposureObjective(state).value_and_gradients(x, y)
