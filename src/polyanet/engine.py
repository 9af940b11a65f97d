"""Stochastic urn dynamics on a network.

Every node holds an urn of red ("infection") and black ("healthy") ball
mass.  A node's *super urn* pools the urns of its closed neighbourhood.  At
each time step every node draws from its super urn by comparing a uniform
variate against the super-urn red proportion, then adds reinforcement mass
of the drawn colour to its own urn.

A state holds one trial, with per-node arrays of shape ``(N,)``, or a batch
of independent trials advanced together, with arrays of shape
``(trials, N)``: one row per trial, so per-trial reductions run along a
contiguous row.  ``red`` and ``total`` view one ``(2, ...)`` array, from
which every step recomputes both super-urn sums with one sparse product.
:func:`iter_draws` is the one loop over time steps; the harness draws its
uniforms k steps per stream call, changing no result.
"""

from __future__ import annotations

import numpy as np

from .graph import Network


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
    """Mutable urn masses of every node at a given time, with their super-urn sums.

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
        red = np.broadcast_to(np.asarray(red_init, dtype=float), shape)
        black = np.broadcast_to(np.asarray(black_init, dtype=float), shape)
        _check_masses("ball masses", red, black)
        masses = np.stack([red, red + black])
        if (masses[1] <= 0).any():
            raise ValueError(f"empty urn at nodes {_bad_nodes(masses[1] <= 0)}: "
                             "every node needs positive total mass")
        self.net, self.time, self._masses = net, 0, masses
        self.red, self.total = masses
        self._sum()
        if (self.super_total <= 0).any():
            raise ValueError(f"empty super urn at nodes {_bad_nodes(self.super_total <= 0)}")

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

    def _select(self, masses, super_red, super_total) -> "UrnState":
        dup = object.__new__(UrnState)
        dup.net, dup.time, dup._masses = self.net, self.time, masses
        dup.red, dup.total = masses
        dup.super_red, dup.super_total = super_red, super_total
        return dup

    def copy(self, rows=slice(None)) -> "UrnState":
        """An independent copy: of every trial, or of the batch rows ``rows`` picks."""
        return self._select(self._masses[:, rows].copy(), self.super_red[rows].copy(),
                            self.super_total[rows].copy())

    def rows(self) -> list:
        """One-trial states viewing each row of a batch (``[self]`` for one
        trial), for reading: they share this state's arrays."""
        if self.red.ndim == 1:
            return [self]
        return [self._select(self._masses[:, k], self.super_red[k], self.super_total[k])
                for k in range(self.red.shape[0])]

    def draw(self, uniforms) -> np.ndarray:
        """Draw colours for every node from per-node uniforms; no state change.

        A node draws red when its uniform is <= its super-urn red proportion.
        """
        return (np.asarray(uniforms, dtype=float) <= self.exposure).astype(np.int8)

    def advance(self, draws, delta_red, delta_black) -> None:
        """Apply draws: add reinforcement of the drawn colour to each node's
        urn, then recompute the super-urn sums.  Of ``drew * dr`` and
        ``~drew * db`` one is exactly 0.0, so their sum is the drawn colour's
        mass, without the branch per draw that ``np.where`` takes."""
        drew = np.asarray(draws) == 1
        dr, db = np.asarray(delta_red, dtype=float), np.asarray(delta_black, dtype=float)
        _check_masses("reinforcement masses", dr, db)
        red = drew * dr
        self.red += red
        self.total += red + ~drew * db
        self._sum()
        self.time += 1

    def step(self, uniforms, delta_red, delta_black) -> np.ndarray:
        """Draw every node once and apply the reinforcements; returns draws."""
        z = self.draw(uniforms)
        self.advance(z, delta_red, delta_black)
        return z

    def _sum(self) -> None:
        """Both super-urn sums of every trial, as C-contiguous rows, by one product."""
        sums = _closed_sums(self.net, self._masses)
        self.super_red, self.super_total = np.ascontiguousarray(sums)

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
