"""Simplex-constrained first-order optimization and the two-player game solver.

The descent is a monotone spectral projected gradient (Birgin, Martínez and
Raydan, SIAM J. Optim. 10(4), 2000): each step is a Barzilai–Borwein step
projected onto the budget simplex by sorting (Duchi et al., ICML 2008), which
leaves exact zeros, then halved until the slope at the new point is no longer
positive.  The reported Frank–Wolfe duality gap upper-bounds the
suboptimality for convex objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import UrnState, _check_masses
from .graph import Network
from .oracle import ExposureObjective, infection_rate_time1

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = np.finfo(float).eps
# nash_solve also certifies the running averages every this many rounds.
_AVERAGED_CHECK_EVERY = 5


@dataclass
class DescentConfig:
    """Knobs for the simplex descent: ``max_iterations`` caps the projected
    steps, ``gap_tol`` stops once the duality gap falls below it."""

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


def _project(v, budget):
    """Euclidean projection of ``v`` onto ``{w >= 0 : sum(w) = budget}``."""
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - budget
    rho = np.flatnonzero(u * np.arange(1, u.shape[0] + 1) > excess)[-1]
    return np.maximum(v - excess[rho] / (rho + 1), 0.0)


def frank_wolfe_simplex(value_and_grad, budget: float, dim: int,
                        cfg: DescentConfig | None = None) -> FrankWolfeResult:
    """Minimize a differentiable convex function over the budget simplex
    ``{v >= 0 : sum(v) = budget}`` from its centre.

    ``value_and_grad(v)`` returns the value and the gradient at ``v``.  Each
    iteration projects a Barzilai–Borwein step along the gradient shifted by
    its minimum (the same projection, better conditioned), and halves it
    until the slope at the new point is at most 0, so that for a convex
    objective the value does not rise.  A value test would stall once the
    decrease falls below what the value can resolve.  The returned iterate
    comes with its Frank–Wolfe gap ``grad . (iterate - vertex)``, and
    ``iterations`` counts the projected steps taken.  Raises ``ValueError``
    unless ``budget`` is finite and nonnegative.
    """
    _check_masses("budget", budget)
    cfg = cfg or DescentConfig()
    y = np.full(dim, budget / dim)
    f, g = value_and_grad(y)
    shifted = g - g.min()
    gap = float(g @ y - budget * g.min())
    step = k = 0
    while k < cfg.max_iterations and gap > cfg.gap_tol:
        if not 0 < step < math.inf:
            # First step, or no curvature seen: long enough to reach the
            # Frank–Wolfe vertex.
            step = budget / shifted.min(initial=np.inf, where=shifted > 0)
        d = _project(y - step * shifted, budget) - y
        alpha = 1.0
        while True:
            z = y + alpha * d
            fz, gz = value_and_grad(z)
            shifted_z = gz - gz.min()
            if shifted_z @ d <= 0 or alpha < _EPS:
                break
            alpha /= 2
        if shifted_z @ d > 0:
            break  # no progress along the projected direction
        s = z - y
        curvature = float(s @ (shifted_z - shifted))
        step = float(s @ s) / curvature if curvature > 0 else 0.0
        y, f, g, shifted = z, fz, gz, shifted_z
        gap = float(g @ y - budget * g.min())
        k += 1
    return FrankWolfeResult(y, float(f), gap, k, gap <= cfg.gap_tol)


def optimize_init(net: Network, red_init, budget: float,
                  cfg: DescentConfig | None = None) -> FrankWolfeResult:
    """Black-mass initialization minimizing the time-1 average infection rate.

    Raises ``ValueError`` unless ``red_init`` and ``budget`` are finite and
    nonnegative (see :func:`infection_rate_time1` for its other errors)."""
    red = np.asarray(red_init, dtype=float)
    return frank_wolfe_simplex(lambda b: infection_rate_time1(net, red, b), budget,
                               net.node_count, cfg)


def optimize_cure_step(net: Network, state: UrnState, budget: float,
                       infection_step=0.0, cfg: DescentConfig | None = None) -> FrankWolfeResult:
    """One-step curing allocation minimizing expected network exposure, with
    the infection-side reinforcement held fixed.  Raises ``ValueError``
    unless ``budget`` and ``infection_step`` are finite and nonnegative, and
    for a state whose super-urn totals are not finite."""
    obj = ExposureObjective(state)
    y = np.broadcast_to(np.asarray(infection_step, dtype=float), (net.node_count,))
    _check_masses("infection_step", y)
    return frank_wolfe_simplex(lambda x: obj.value_and_grad(x, y), budget,
                               net.node_count, cfg)


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
               *, rounds: int = 200, tol: float = 1e-4) -> GameSolution:
    """Solve the zero-sum game on expected exposure by alternating best
    responses with iterate averaging.

    The curing player minimizes and the infection player maximizes; both
    best responses reuse the simplex descent, the infection player's on the
    colour-mirrored objective, which it minimizes.  Convergence is judged by
    exploitability: each candidate pair is certified using the best-response
    values plus their duality gaps, and the best certified pair is returned.
    If the round cap is reached first, the result is flagged unconverged.
    Raises ``ValueError`` for a negative or non-finite budget and for
    ``rounds < 1``.
    """
    _check_masses("curing_budget", curing_budget)
    _check_masses("infection_budget", infection_budget)
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    cfg = cfg or DescentConfig()
    obj = ExposureObjective(state)
    mirror = obj.mirrored()
    n = net.node_count

    def best_cure(y):
        return frank_wolfe_simplex(lambda x: obj.value_and_grad(x, y), curing_budget, n, cfg)

    def best_infect(x):
        return frank_wolfe_simplex(lambda y: mirror.value_and_grad(y, x),
                                   infection_budget, n, cfg)

    def bound(rx, ry):
        """Exploitability bound certified by best responses with their gaps."""
        return max(0.0, float((1.0 - ry.value + ry.gap) - (rx.value - rx.gap)))

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
        if k % _AVERAGED_CHECK_EVERY == 0:
            x_avg, y_avg = x_sum / k, y_sum / k
            eps_avg = bound(best_cure(y_avg), best_infect(x_avg))
            if eps_avg < best[0]:
                best = (eps_avg, x_avg, y_avg)
            if eps_avg < tol:
                break
    eps, x_star, y_star = best
    return GameSolution(x_star, y_star, obj.value(x_star, y_star), eps, k, eps < tol)
