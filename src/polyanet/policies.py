"""The catalogue of initialization and per-step curing allocation strategies.

Families are named by the roman numerals used throughout:

=====  ==========================================================
i      simplex descent on the one-step objective
ii     uniform over all nodes
iii    uniform over non-nested (inner) nodes
iv     degree x closeness weighting over inner nodes
v      uniform over the layered target set
vi     degree x closeness weighting over the layered target set
vii    uniform over the centrality-greedy target set (unpruned)
viii   degree x closeness weighting over that target set
ix     degree x closeness weighting over all nodes
=====  ==========================================================

Curing variants of the weighted families additionally scale each weight by
the node's current super-urn red proportion.  Every strategy spends its
budget exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import graph
from .engine import UrnState
from .graph import Network
from .optimize import DescentConfig, optimize_cure_step, optimize_init

log = logging.getLogger(__name__)

FAMILIES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")
SIDES = ("init", "cure")

_TARGET_KIND = {
    "ii": "all",
    "iii": "inner",
    "iv": "inner",
    "v": "layered",
    "vi": "layered",
    "vii": "dense",
    "viii": "dense",
    "ix": "all",
}
_WEIGHTED = frozenset({"iv", "vi", "viii", "ix"})


@dataclass(frozen=True)
class StrategySpec:
    """An allocation strategy: which side it plays and which family it is.

    ``descent`` configures the optimizer for family (i); ignored otherwise.
    """

    side: str
    family: str
    descent: DescentConfig | None = None

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"strategy side must be one of {SIDES}, got {self.side!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown strategy family {self.family!r}; expected one of {FAMILIES}")

    @classmethod
    def parse(cls, text: str) -> "StrategySpec":
        """Parse ``"init:vi"`` / ``"cure:iv"`` style strings."""
        side, sep, family = text.strip().lower().partition(":")
        if not sep:
            raise ValueError(f"strategy must look like 'init:vi' or 'cure:iv', got {text!r}")
        return cls(side, family)

    @property
    def uses_optimizer(self) -> bool:
        return self.family == "i"

    def __str__(self):
        return f"{self.side}:{self.family}"


def target_set_for(net: Network, family: str) -> graph.TargetSet:
    kind = _TARGET_KIND[family]
    if kind == "all":
        return graph.target_set_all(net)
    if kind == "inner":
        return graph.target_set_inner(net)
    if kind == "layered":
        return graph.target_set_layered(net)
    return graph.target_set_dense(net, prune=False)


def _static_weights(net: Network, nodes: np.ndarray, family: str) -> np.ndarray:
    if family in _WEIGHTED:
        scores = graph.closeness_centrality(net)
        return net.degrees[nodes] * scores[nodes]
    return np.ones(nodes.shape[0])


def _spread(net: Network, nodes: np.ndarray, weights: np.ndarray, budget: float,
            family: str) -> np.ndarray:
    """Split ``budget`` over ``nodes`` in proportion to ``weights`` along the
    last axis: one allocation per row of a batch of weights."""
    total = weights.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        log.warning("strategy %s: all weights zero on the target set; falling back to uniform",
                    family)
        weights = np.where(total <= 0, 1.0, weights)
        total = weights.sum(axis=-1, keepdims=True)
    out = np.zeros(weights.shape[:-1] + (net.node_count,))
    out[..., nodes] = budget * weights / total
    return out


def init_allocation(spec: StrategySpec, net: Network, red_init, budget: float) -> np.ndarray:
    """Black-mass initialization for the given strategy; sums to the budget."""
    if spec.side != "init":
        raise ValueError(f"expected an init strategy, got {spec}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if spec.uses_optimizer:
        res = optimize_init(net, red_init, budget, spec.descent)
        if not res.converged:
            log.warning("strategy %s: descent not converged, gap %.3g after %d iterations",
                        spec, res.gap, res.iterations)
        return res.allocation
    targets = np.array(target_set_for(net, spec.family).nodes, dtype=int)
    weights = _static_weights(net, targets, spec.family)
    return _spread(net, targets, weights, budget, spec.family)


def cure_allocator(spec: StrategySpec, net: Network, budget: float):
    """Build the per-step curing policy: ``(t, state, infection_step) -> deltas``.

    The target set and the structural part of the weights are computed once;
    only the super-urn proportions are re-read each step.  Family (i) runs
    the exposure optimizer each step against the supplied infection-side
    reinforcement (zero if not given).  A batched state gets one allocation
    per trial row; the weighted families read every row at once and family
    (i) optimizes each row in turn.

    The harness may call one policy from several threads at once, one per
    block of trials, so the policy keeps no state between calls in its
    closure: per-row state (such as a warm start for family (i)) must be
    keyed by the state passed in.  Warnings from concurrent calls may
    interleave on stderr.
    """
    if spec.side != "cure":
        raise ValueError(f"expected a cure strategy, got {spec}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")

    if spec.uses_optimizer:
        def optimize_policy(t: int, state: UrnState, infection_step=0.0) -> np.ndarray:
            results = [optimize_cure_step(net, row, budget, infection_step, spec.descent)
                       for row in state.rows()]
            gaps = [r.gap for r in results if not r.converged]
            if gaps:
                log.warning("strategy %s at step %d: descent not converged on %d of %d rows, "
                            "largest gap %.3g", spec, t, len(gaps), len(results), max(gaps))
            return np.reshape([r.allocation for r in results], state.red.shape)
        return optimize_policy

    targets = np.array(target_set_for(net, spec.family).nodes, dtype=int)
    static = _static_weights(net, targets, spec.family)
    weighted = spec.family in _WEIGHTED

    def policy(t: int, state: UrnState, infection_step=0.0) -> np.ndarray:
        # take() keeps each trial's row contiguous (fancy indexing would not),
        # so the row sums in _spread match a single trial's bit for bit.
        weights = static * state.exposure.take(targets, axis=-1) if weighted else static
        return _spread(net, targets, weights, budget, spec.family)

    return policy
