"""Simplex-constrained first-order optimization and the two-player game solver.

The descent routine moves between the current iterate and the budget vertex
of the steepest coordinate, with an exact 1-D line search; it reports the
linearization (duality) gap, which upper-bounds the suboptimality for convex
objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import UrnState
from .graph import Network
from .oracle import ExposureObjective, infection_rate_time1

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class DescentConfig:
    """Knobs for the simplex descent.

    ``max_iterations`` caps the outer loop; ``line_search_tol`` is the
    bracket width for the exact 1-D step-size search; ``gap_tol`` stops when
    the duality gap falls below it.  Ties in the steepest-coordinate choice
    go to the lowest node index.
    """

    max_iterations: int = 5000
    line_search_tol: float = 1e-8
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


def frank_wolfe_simplex(fun, grad, budget: float, dim: int,
                        cfg: DescentConfig | None = None,
                        start_index: int = 0) -> FrankWolfeResult:
    """Minimize a differentiable convex function over the budget simplex
    ``{v >= 0 : sum(v) = budget}``.

    Starts at the vertex ``start_index``; each iteration moves toward the
    budget vertex of the coordinate with the smallest partial derivative,
    with the step chosen by exact line search on [0, 1].  Returns the final
    iterate together with its duality gap ``grad . (iterate - vertex)``.
    """
    cfg = cfg or DescentConfig()
    y = np.zeros(dim)
    y[start_index] = budget
    if budget == 0 or dim == 1:
        return FrankWolfeResult(y, float(fun(y)), 0.0, 0, True)
    g = np.asarray(grad(y), dtype=float)
    k = 0
    for k in range(1, cfg.max_iterations + 1):
        i = int(np.argmin(g))
        gap = float(g @ y - budget * g[i])
        if gap <= cfg.gap_tol:
            break
        direction = -y.copy()
        direction[i] += budget

        def phi(alpha):
            return float(fun(y + alpha * direction))

        alpha = golden_section(phi, cfg.line_search_tol)
        if alpha == 0.0:
            break  # no progress along the steepest vertex
        y = (1.0 - alpha) * y
        y[i] += alpha * budget
        g = np.asarray(grad(y), dtype=float)
    # ``g`` is the gradient at the returned ``y`` on every exit path.
    gap = float(g @ y - budget * g[int(np.argmin(g))])
    return FrankWolfeResult(y, float(fun(y)), gap, k, gap <= cfg.gap_tol)


def _steepest_start(grad, budget, dim):
    """Vertex choice for the descent: steepest coordinate at the uniform point."""
    uniform = np.full(dim, budget / dim)
    return int(np.argmin(np.asarray(grad(uniform), dtype=float)))


def optimize_init(net: Network, red_init, budget: float,
                  cfg: DescentConfig | None = None) -> FrankWolfeResult:
    """Black-mass initialization minimizing the time-1 average infection rate."""
    red = np.asarray(red_init, dtype=float)

    def fun(b):
        return infection_rate_time1(net, red, b)[0]

    def grad(b):
        return infection_rate_time1(net, red, b)[1]

    start = _steepest_start(grad, budget, net.node_count) if budget > 0 else 0
    return frank_wolfe_simplex(fun, grad, budget, net.node_count, cfg, start)


def optimize_cure_step(net: Network, state: UrnState, budget: float,
                       infection_step=0.0, cfg: DescentConfig | None = None,
                       objective: ExposureObjective | None = None) -> FrankWolfeResult:
    """One-step curing allocation minimizing expected network exposure, with
    the infection-side reinforcement held fixed."""
    obj = objective if objective is not None else ExposureObjective(state)
    y = np.broadcast_to(np.asarray(infection_step, dtype=float), (net.node_count,))

    def fun(x):
        return obj.value(x, y)

    def grad(x):
        return obj.value_and_gradients(x, y)[1]

    start = _steepest_start(grad, budget, net.node_count) if budget > 0 else 0
    return frank_wolfe_simplex(fun, grad, budget, net.node_count, cfg, start)


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
        def fun(y):
            return -obj.value(x, y)

        def grad(y):
            return -obj.value_and_gradients(x, y)[2]

        start = _steepest_start(grad, infection_budget, n) if infection_budget > 0 else 0
        return frank_wolfe_simplex(fun, grad, infection_budget, n, cfg, start)

    best = None  # (eps, x, y)
    x_cur = np.full(n, curing_budget / n)
    y_cur = np.full(n, infection_budget / n)
    x_sum = np.zeros(n)
    y_sum = np.zeros(n)
    used = 0
    for k in range(1, rounds + 1):
        used = k
        y_prev = y_cur
        rx = best_cure(y_prev)
        x_cur = rx.allocation
        ry = best_infect(x_cur)
        y_cur = ry.allocation
        x_sum += x_cur
        y_sum += y_cur
        # Certify the alternating pair (x_cur, y_prev): rx bounds the curing
        # player's best deviation against y_prev, ry the infection player's
        # against x_cur.
        upper = (-ry.value + ry.gap) - (rx.value - rx.gap)
        eps = max(0.0, float(upper))
        if best is None or eps < best[0]:
            best = (eps, x_cur.copy(), y_prev.copy())
        if eps < tol:
            break
        if k % averaged_check_every == 0:
            x_avg = x_sum / k
            y_avg = y_sum / k
            ra = best_cure(y_avg)
            rb = best_infect(x_avg)
            eps_avg = max(0.0, float((-rb.value + rb.gap) - (ra.value - ra.gap)))
            if eps_avg < best[0]:
                best = (eps_avg, x_avg, y_avg)
            if eps_avg < tol:
                break
    eps, x_star, y_star = best
    return GameSolution(
        curing=x_star,
        infection=y_star,
        value=obj.value(x_star, y_star),
        exploitability=eps,
        rounds=used,
        converged=eps < tol,
    )

