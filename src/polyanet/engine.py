"""Stochastic urn dynamics on a network.

Every node holds an urn of red ("infection") and black ("healthy") ball
mass.  A node's *super urn* pools the urns of its closed neighbourhood.  At
each time step every node draws from its super urn by comparing a uniform
variate against the super-urn red proportion, then adds reinforcement mass
of the drawn colour to its own urn.

A state holds one trial, with per-node arrays of shape ``(N,)``, or a batch
of independent trials advanced together, with arrays of shape
``(trials, N)``: one row per trial, so per-trial reductions run along a
contiguous row.  :func:`iter_draws` is the one loop over time steps; the
harness draws its uniforms k steps per stream call, changing no result.
"""

from __future__ import annotations

import numpy as np

from .graph import Network

# Periodically rebuild the super-urn sums from the per-node masses so that
# incremental float accumulation cannot drift over very long runs.
REBUILD_INTERVAL = 1 << 16


def as_schedule(schedule):
    """Normalize a reinforcement schedule to a callable ``(t, state) -> (dr, db)``.

    Accepts a callable as-is, or a ``(delta_red, delta_black)`` pair of
    scalars/arrays treated as constant over time.
    """
    if callable(schedule):
        return schedule
    dr, db = schedule
    dr = np.asarray(dr, dtype=float)
    db = np.asarray(db, dtype=float)
    return lambda t, state: (dr, db)


class UrnState:
    """Mutable urn masses for every node of a network at a given time.

    Parameters
    ----------
    net : Network
    red_init, black_init : array-like or scalar
        Finite, nonnegative initial ball masses, broadcast to ``(N,)`` for one
        trial or ``(trials, N)`` for a batch, whichever the inputs' shapes give.
        Every node must have positive total mass and a nonempty super urn.
    """

    def __init__(self, net: Network, red_init, black_init):
        n = net.node_count
        shape = np.broadcast_shapes(np.shape(red_init), np.shape(black_init), (n,))
        if len(shape) > 2:
            raise ValueError(f"ball masses must have shape (N,) or (trials, N), got {shape}")
        red = np.broadcast_to(np.asarray(red_init, dtype=float), shape).copy()
        black = np.broadcast_to(np.asarray(black_init, dtype=float), shape).copy()
        _check_masses("ball masses", red, black)
        total = red + black
        if (total <= 0).any():
            raise ValueError(f"empty urn at nodes {_bad_nodes(total <= 0)}: "
                             "every node needs positive total mass")
        self.net = net
        self.red = red
        self.total = total
        self.rebuild()
        if (self.super_total <= 0).any():
            raise ValueError(f"empty super urn at nodes {_bad_nodes(self.super_total <= 0)}")
        self.time = 0

    @property
    def node_count(self) -> int:
        return self.net.node_count

    @property
    def exposure(self) -> np.ndarray:
        """Red proportion of each super urn (the next draw probabilities)."""
        return self.super_red / self.super_total

    @property
    def super_black(self) -> np.ndarray:
        return self.super_total - self.super_red

    def _select(self, take) -> "UrnState":
        dup = object.__new__(UrnState)
        dup.net = self.net
        for name in ("red", "total", "super_red", "super_total"):
            setattr(dup, name, take(getattr(self, name)))
        dup.time = self.time
        dup._steps_since_rebuild = self._steps_since_rebuild
        return dup

    def copy(self) -> "UrnState":
        return self._select(np.copy)

    def rows(self) -> list:
        """One-trial states viewing each row of a batch (``[self]`` for one
        trial); they share this state's arrays."""
        if self.red.ndim == 1:
            return [self]
        return [self._select(lambda a, k=k: a[k]) for k in range(self.red.shape[0])]

    def draw(self, uniforms) -> np.ndarray:
        """Draw colours for every node from per-node uniforms; no state change.

        A node draws red when its uniform is <= its super-urn red proportion.
        """
        return (np.asarray(uniforms, dtype=float) <= self.exposure).astype(np.int8)

    def advance(self, draws, delta_red, delta_black) -> None:
        """Apply draws: add reinforcement of the drawn colour to each node's
        urn and update the super-urn sums incrementally, both colours of
        every trial in one sparse product.  Of ``drew * dr`` and ``~drew * db``
        one is exactly 0.0, so their sum selects the drawn colour's mass."""
        drew = np.asarray(draws) == 1
        dr = np.asarray(delta_red, dtype=float)
        db = np.asarray(delta_black, dtype=float)
        _check_masses("reinforcement masses", dr, db)
        adds = np.empty((2,) + self.red.shape)
        np.multiply(drew, dr, out=adds[0])
        np.multiply(~drew, db, out=adds[1])
        adds[1] += adds[0]
        self.red += adds[0]
        self.total += adds[1]
        sums = _closed_sums(self.net, adds)
        self.super_red += sums[0]
        self.super_total += sums[1]
        self.time += 1
        self._steps_since_rebuild += 1
        if self._steps_since_rebuild >= REBUILD_INTERVAL:
            self.rebuild()

    def step(self, uniforms, delta_red, delta_black) -> np.ndarray:
        """Draw every node once and apply the reinforcements; returns draws."""
        z = self.draw(uniforms)
        self.advance(z, delta_red, delta_black)
        return z

    def rebuild(self) -> None:
        """Recompute super-urn sums from the per-node masses, as C-contiguous rows."""
        sums = _closed_sums(self.net, np.stack([self.red, self.total]))
        self.super_red, self.super_total = np.ascontiguousarray(sums)
        self._steps_since_rebuild = 0

    def metrics(self):
        """Network susceptibility and exposure: ``(U_mean, S_mean, U, S)``."""
        u = self.red / self.total
        s = self.exposure
        return float(u.mean()), float(s.mean()), u, s


def _closed_sums(net: Network, masses: np.ndarray) -> np.ndarray:
    """Closed-neighbourhood sums of per-node masses along the last axis, as
    a (strided) array of the same shape.  Each sum adds the neighbours in
    node order, as a single-vector product does, so batching trials does
    not change a bit."""
    flat = masses.reshape(-1, net.node_count)
    return (net.closed_adjacency @ flat.T).T.reshape(masses.shape)


def _check_masses(what: str, *masses) -> None:
    if not all(m.min() >= 0 and m.max() < np.inf for m in masses):  # NaN fails both
        raise ValueError(f"{what} must be finite and nonnegative")


def _bad_nodes(mask: np.ndarray) -> list:
    return (np.unique(np.nonzero(mask)[-1]) + 1).tolist()


def iter_draws(state: UrnState, schedule, uniforms):
    """Advance ``state`` once per element of ``uniforms`` and yield each
    step's draws.

    ``uniforms`` yields one array per step, shaped like the state's masses,
    and may refill it once the next is requested (as the harness's does).
    ``schedule`` is anything :func:`as_schedule` accepts; it is called with
    the time of the step being drawn (1 for the first) and the state before
    that step.
    """
    sched = as_schedule(schedule)
    for u in uniforms:
        dr, db = sched(state.time + 1, state)
        yield state.step(u, dr, db)
