"""Simplex-constrained first-order optimization and the two-player game solver.

The descent is pairwise Frank–Wolfe: each step moves mass from the support
coordinate with the largest partial derivative to the one with the smallest,
by a line search on the directional derivative that needs only gradients.
A drop step empties its source coordinate to an exact zero.  The reported
duality gap upper-bounds the suboptimality for convex objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import UrnState
from .graph import Network
from .oracle import ExposureObjective, infection_rate_time1

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Line search stop rule: the first probe with phi' in [_SLOPE_SHRINK phi'(0), 0],
# or else the last probe with phi' <= 0 after at most _MAX_PROBES gradients.
_SLOPE_SHRINK = 0.1
_MAX_PROBES = 50


@dataclass
class DescentConfig:
    """Knobs for the simplex descent: ``max_iterations`` caps the pairwise
    steps, ``gap_tol`` stops once the duality gap falls below it.  Ties in
    the choice of either coordinate go to the lowest node index."""

    max_iterations: int = 5000
    gap_tol: float = 1e-9


@dataclass
class FrankWolfeResult:
    allocation: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool


def golden_section(fn, tol: float = 1e-8) -> float:
    """Minimize a unimodal function on [0, 1]; also checks both endpoints so
    boundary minima (notably 1.0) are returned exactly."""
    a, b = 0.0, 1.0
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    candidates = [(fn(0.0), 0.0), (fn(mid), mid), (fn(1.0), 1.0)]
    return min(candidates, key=lambda p: p[0])[1]


def _pairwise_step(grad, y, g, s, v):
    """Step by ``gamma`` in [0, y_v] along ``e_s - e_v`` toward the root of
    phi'(gamma) = g_s - g_v at ``y + gamma (e_s - e_v)``, nondecreasing for a
    convex objective: the full (drop) step if phi'(y_v) <= 0, else Illinois
    regula falsi, which halves the slope kept at one end when the other end
    has moved twice running.  Only probes with phi' <= 0 are accepted, so the
    objective does not rise.  Returns the new point and its gradient, or None.
    """
    def probe(step):
        z = y.copy()
        z[s] += step
        z[v] = y[v] - step  # exactly 0.0 for the drop step
        gz = np.asarray(grad(z), dtype=float)
        return z, gz, gz[s] - gz[v]

    slope0 = lo_slope = g[s] - g[v]
    lo, hi, side, best = 0.0, y[v], 0, None
    z, gz, hi_slope = probe(hi)
    if hi_slope <= 0:
        return z, gz
    for _ in range(_MAX_PROBES - 1):
        step = lo - lo_slope * (hi - lo) / (hi_slope - lo_slope)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)  # the secant step rounded onto an end
            if not lo < step < hi:
                break
        z, gz, slope = probe(step)
        if slope <= 0:
            lo, lo_slope, best = step, slope, (z, gz)
            if slope >= _SLOPE_SHRINK * slope0:
                break
            hi_slope /= 2 if side < 0 else 1
            side = -1
        else:
            hi, hi_slope = step, slope
            lo_slope /= 2 if side > 0 else 1
            side = 1
    return best


def frank_wolfe_simplex(fun, grad, budget: float, dim: int,
                        cfg: DescentConfig | None = None,
                        start_index: int = 0) -> FrankWolfeResult:
    """Minimize a differentiable convex function over the budget simplex
    ``{v >= 0 : sum(v) = budget}`` from the vertex ``start_index``.

    Each iteration is one pairwise step (:func:`_pairwise_step`) from the
    support coordinate with the largest partial derivative to the one with
    the smallest.  ``grad`` is called once per line-search probe and ``fun``
    once, at the returned iterate, which comes with its duality gap
    ``grad . (iterate - vertex)``.
    """
    cfg = cfg or DescentConfig()
    y = np.zeros(dim)
    y[start_index] = budget
    if budget == 0 or dim == 1:
        return FrankWolfeResult(y, float(fun(y)), 0.0, 0, True)
    g = np.asarray(grad(y), dtype=float)
    k = 0
    for k in range(1, cfg.max_iterations + 1):
        s = int(np.argmin(g))
        gap = float(g @ y - budget * g[s])
        if gap <= cfg.gap_tol:
            break
        v = int(np.argmax(np.where(y > 0, g, -np.inf)))
        step = _pairwise_step(grad, y, g, s, v) if g[v] > g[s] else None
        if step is None:
            break  # no progress along the pairwise direction
        y, g = step
    # ``g`` is the gradient at the returned ``y`` on every exit path.
    gap = float(g @ y - budget * g[int(np.argmin(g))])
    return FrankWolfeResult(y, float(fun(y)), gap, k, gap <= cfg.gap_tol)


def _descend(fun, grad, budget, dim, cfg):
    """Simplex descent from the vertex of the steepest coordinate at the
    uniform point."""
    start = int(np.argmin(grad(np.full(dim, budget / dim))))
    return frank_wolfe_simplex(fun, grad, budget, dim, cfg, start)


def optimize_init(net: Network, red_init, budget: float,
                  cfg: DescentConfig | None = None) -> FrankWolfeResult:
    """Black-mass initialization minimizing the time-1 average infection rate."""
    red = np.asarray(red_init, dtype=float)
    return _descend(lambda b: infection_rate_time1(net, red, b)[0],
                    lambda b: infection_rate_time1(net, red, b)[1], budget, net.node_count, cfg)


def optimize_cure_step(net: Network, state: UrnState, budget: float,
                       infection_step=0.0, cfg: DescentConfig | None = None,
                       objective: ExposureObjective | None = None) -> FrankWolfeResult:
    """One-step curing allocation minimizing expected network exposure, with
    the infection-side reinforcement held fixed."""
    obj = objective if objective is not None else ExposureObjective(state)
    y = np.broadcast_to(np.asarray(infection_step, dtype=float), (net.node_count,))
    return _descend(lambda x: obj.value(x, y), lambda x: obj.value_and_gradients(x, y)[1],
                    budget, net.node_count, cfg)


@dataclass
class GameSolution:
    """Near-equilibrium of the curing/infection game on expected exposure.

    ``exploitability`` is a certified upper bound on the maximum gain either
    player can obtain by unilateral deviation from the returned pair.
    """

    curing: np.ndarray
    infection: np.ndarray
    value: float
    exploitability: float
    rounds: int
    converged: bool


def nash_solve(net: Network, state: UrnState, curing_budget: float,
               infection_budget: float, cfg: DescentConfig | None = None,
               *, rounds: int = 200, tol: float = 1e-4,
               averaged_check_every: int = 5) -> GameSolution:
    """Solve the zero-sum game on expected exposure by alternating best
    responses with iterate averaging.

    The curing player minimizes and the infection player maximizes; both
    best responses reuse the simplex descent.  Convergence is judged by
    exploitability: each candidate pair is certified using the best-response
    values plus their duality gaps, and the best certified pair is returned.
    If the round cap is reached first, the result is flagged unconverged.
    """
    cfg = cfg or DescentConfig()
    obj = ExposureObjective(state)
    n = net.node_count

    def best_cure(y):
        return optimize_cure_step(net, state, curing_budget, y, cfg, objective=obj)

    def best_infect(x):
        return _descend(lambda y: -obj.value(x, y), lambda y: -obj.value_and_gradients(x, y)[2],
                        infection_budget, n, cfg)

    def bound(rx, ry):
        """Exploitability bound certified by best responses with their gaps."""
        return max(0.0, float((-ry.value + ry.gap) - (rx.value - rx.gap)))

    best = None  # (eps, x, y)
    y_cur = np.full(n, infection_budget / n)
    x_sum, y_sum = np.zeros(n), np.zeros(n)
    for k in range(1, rounds + 1):
        rx = best_cure(y_cur)
        ry = best_infect(rx.allocation)
        x_sum += rx.allocation
        y_sum += ry.allocation
        # Certify the alternating pair (rx.allocation, y_cur): rx bounds the
        # curing player's best deviation against y_cur, ry the infection
        # player's against rx.allocation.
        eps = bound(rx, ry)
        if best is None or eps < best[0]:
            best = (eps, rx.allocation.copy(), y_cur.copy())
        if eps < tol:
            break
        y_cur = ry.allocation
        if k % averaged_check_every == 0:
            x_avg, y_avg = x_sum / k, y_sum / k
            eps_avg = bound(best_cure(y_avg), best_infect(x_avg))
            if eps_avg < best[0]:
                best = (eps_avg, x_avg, y_avg)
            if eps_avg < tol:
                break
    eps, x_star, y_star = best
    return GameSolution(x_star, y_star, obj.value(x_star, y_star), eps, k, eps < tol)
