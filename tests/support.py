"""Test-only helpers: permutation automorphisms of a network, the
one-node-at-a-time greedy that :func:`polyanet.graph.target_set_dense`
must match, the line-by-line parser that :func:`polyanet.graph.parse_network`
must match, and a reader for the CSV that :func:`polyanet.harness.emit`
writes."""

import csv
import math

import numpy as np

from polyanet.graph import (DisconnectedGraphError, GraphFormatError, Network, TargetSet,
                            closeness_centrality)
from polyanet.harness import SummarySeries


def permutation_cycles(sigma) -> list[tuple]:
    """Cycles of a permutation given as an array of images (0-indexed)."""
    sigma = np.asarray(sigma, dtype=int)
    n = sigma.shape[0]
    if sorted(sigma.tolist()) != list(range(n)):
        raise ValueError("not a permutation: images must be 0..N-1 exactly once")
    seen = np.zeros(n, dtype=bool)
    cycles = []
    for s in range(n):
        if seen[s]:
            continue
        cyc = []
        u = s
        while not seen[u]:
            seen[u] = True
            cyc.append(u)
            u = int(sigma[u])
        cycles.append(tuple(cyc))
    return cycles


def permutation_order(sigma) -> int:
    """Order of the cyclic group generated by the permutation."""
    return math.lcm(*(len(c) for c in permutation_cycles(sigma)))


def verify_automorphism(net: Network, sigma):
    """Check whether a permutation preserves the edge relation.

    Returns ``(True, orbits)`` with the orbit partition under the cyclic
    group generated by the permutation, or ``(False, None)``.
    """
    sigma = np.asarray(sigma, dtype=int)
    cycles = permutation_cycles(sigma)  # validates
    if sigma.shape[0] != net.node_count:
        raise ValueError("permutation length does not match node count")
    C = net.closed_adjacency
    if (C[sigma][:, sigma] != C).nnz:
        return False, None
    orbits = sorted((tuple(sorted(c)) for c in cycles), key=lambda c: c[0])
    return True, orbits


def orbit_average(sigma, values) -> np.ndarray:
    """Average a per-node vector over the orbits of a permutation.

    The result assigns every node the mean of its orbit; iterating the
    permutation ``m`` times (its order) and averaging gives the same thing.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for cyc in permutation_cycles(sigma):
        idx = list(cyc)
        out[idx] = values[idx].mean()
    return out


def greedy_dense_targets(net: Network, prune: bool = False) -> TargetSet:
    """Reference centrality-greedy target set: add nodes in descending
    closeness order (ties to the lower index), one at a time, until the
    chosen closed neighbourhoods cover the network; with ``prune``, drop in
    reverse insertion order every node whose removal keeps coverage."""
    n = net.node_count
    scores = closeness_centrality(net)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    counts = np.zeros(n, dtype=np.int64)  # chosen nodes covering each node
    chosen: list[int] = []
    for i in order:
        if counts.all():
            break
        chosen.append(i)
        counts[net.closed_neighbors[i]] += 1
    if prune:
        for i in reversed(list(chosen)):
            nbrs = net.closed_neighbors[i]
            if (counts[nbrs] > 1).all():
                counts[nbrs] -= 1
                chosen.remove(i)
    source = "dense-pruned" if prune else "dense"
    return TargetSet(tuple(sorted(chosen)), source, insertion_order=tuple(chosen))


def reference_parse(text: str, fmt: str | None = None, *,
                    largest_component: bool = False) -> Network:
    """Reference :func:`polyanet.graph.parse_network`: walk the stripped
    lines of ``text`` and read every token with ``int``."""
    lines = [(k, ln) for k, ln in enumerate((ln.strip() for ln in text.splitlines()), 1)
             if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty network file")
    if fmt is None:
        fmt = "matrix" if len(lines[0][1].split()) == 1 else "edges"
    if fmt == "matrix":
        net = _parse_matrix([ln for _, ln in lines])
    elif fmt == "edges":
        net = _parse_edges(lines)
    else:
        raise GraphFormatError(f"unknown network format {fmt!r}")
    if largest_component and not net.is_connected():
        keep = max(net._components, key=len)
        label = np.full(net.node_count, -1)
        label[keep] = np.arange(len(keep))
        rows, cols = net._entries()
        inside = (label[rows] >= 0) & (rows < cols)
        net = Network.from_edges(len(keep), np.stack([label[rows[inside]], label[cols[inside]]], 1))
    elif not net.is_connected():
        raise DisconnectedGraphError(net._components)
    return net


def _parse_matrix(lines):
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphFormatError(f"expected node count on first line, got {lines[0]!r}") from None
    if len(lines) - 1 != n:
        raise GraphFormatError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    for k, ln in enumerate(lines[1:]):
        toks = ln.split()
        if len(toks) != n:
            raise GraphFormatError(f"row {k + 1} has {len(toks)} entries, expected {n}")
        try:
            row = [int(t) for t in toks]
        except ValueError:
            raise GraphFormatError(f"row {k + 1} contains a non-integer entry") from None
        if any(v not in (0, 1) for v in row):
            raise GraphFormatError(f"row {k + 1} contains an entry outside {{0,1}}")
        rows.append(row)
    return Network(np.array(rows), require_connected=False)


def _parse_edges(lines):
    """Read ``(file line, text)`` pairs of an edge list."""
    edges = []
    maxid = 0
    for k, ln in lines:
        toks = ln.split()
        if len(toks) != 2:
            raise GraphFormatError(f"edge line {k} must be 'i j', got {ln!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphFormatError(f"edge line {k} contains a non-integer id") from None
        if i < 1 or j < 1:
            raise GraphFormatError(f"edge line {k}: node ids are 1-indexed")
        edges.append((i - 1, j - 1))
        maxid = max(maxid, i, j)
    return Network.from_edges(maxid, edges, require_connected=False)


def parse_summary_csv(text: str) -> list[SummarySeries]:
    """Inverse of CSV :func:`emit` (values round-trip at full precision)."""
    rows = list(csv.reader(text.splitlines()))
    header, rows = rows[0], rows[1:]
    if header != ["time", "strategy", "mean_infection", "stderr", "trials"]:
        raise ValueError(f"unexpected header {header}")
    by_label: dict[str, list] = {}
    for time, label, mean, se, trials in rows:
        by_label.setdefault(label, []).append((int(time), float(mean), float(se), int(trials)))
    out = []
    for label, pts in by_label.items():
        out.append(SummarySeries(
            label=label,
            times=np.array([p[0] for p in pts]),
            mean_infection=np.array([p[1] for p in pts]),
            stderr=np.array([p[2] for p in pts]),
            trials=pts[0][3],
        ))
    return out
