"""Undirected network representation, structural analysis, and node targeting.

Nodes are integers ``0..N-1`` in the Python API.  The text file formats and
all JSON emitted by the CLI use 1-indexed node ids.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class GraphFormatError(ValueError):
    """Malformed adjacency-matrix or edge-list input."""


class DisconnectedGraphError(ValueError):
    """Graph violates the connectivity requirement.

    Carries the connected components (lists of 0-indexed nodes) so callers
    can report or recover.
    """

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        sizes = sorted((len(c) for c in self.components), reverse=True)
        super().__init__(
            f"graph is disconnected: {len(self.components)} components "
            f"with sizes {sizes}"
        )


# The most nodes whose keys row·N + col fit in int64.
_MAX_NODES = 3037000499


class Network:
    """Undirected, irreflexive graph stored once, as its closed adjacency
    (adjacency plus identity) in compressed sparse row form.

    Parameters
    ----------
    adjacency : (N, N) array-like, or a scipy sparse matrix or array
        Symmetric adjacency matrix with a zero diagonal; any nonzero entry
        is an edge.  Sparse input is recognised by its ``tocoo`` method, so
        reading it imports nothing.
    require_connected : bool, optional
        Reject disconnected graphs (default).  The contagion model assumes
        connectivity; pass ``False`` only for auxiliary constructions such
        as unions of independent subnetworks.

    Attributes
    ----------
    node_count : int
    indptr, indices : int32 ndarray
        The one stored form: row i of the closed adjacency is the sorted,
        duplicate-free ``indices[indptr[i]:indptr[i + 1]]``, node i and its
        neighbours.
    closed_adjacency : scipy.sparse.csr_matrix
        The same arrays with float64 ones as data, built on first use; it
        holds the library's only scipy import.  Multiplying a per-node
        vector by it yields per-node sums over closed neighbourhoods (the
        super-urn aggregation used throughout).

    Derived from ``indptr``/``indices``: ``closed_neighbors`` (tuple of
    sorted index views into ``indices``, one per node), ``degrees`` (int
    ndarray), ``edge_count``, :meth:`edges`, and ``adjacency``, the dense
    (N, N) bool matrix, built afresh on every read.
    """

    def __init__(self, adjacency, require_connected: bool = True):
        if hasattr(adjacency, "tocoo"):
            coo = adjacency.tocoo(copy=True)
            coo.sum_duplicates()
            nonzero = coo.data != 0
            shape, rows, cols = coo.shape, coo.row[nonzero], coo.col[nonzero]
        else:
            adjacency = np.asarray(adjacency)
            shape = adjacency.shape
            rows, cols = np.nonzero(adjacency) if adjacency.ndim == 2 else ((), ())
        if len(shape) != 2 or shape[0] != shape[1]:
            raise GraphFormatError(f"adjacency matrix must be square, got shape {shape}")
        if shape[0] == 0:
            raise GraphFormatError("network must have at least one node")
        self._store(shape[0], rows, cols, require_connected)

    @classmethod
    def from_edges(cls, node_count: int, edges, require_connected: bool = True) -> "Network":
        """Build a network from 0-indexed ``(i, j)`` pairs: an iterable of
        pairs or an ``(E, 2)`` integer array."""
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        bad = (i == j) | (i < 0) | (i >= node_count) | (j < 0) | (j >= node_count)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            if i[k] == j[k]:
                raise GraphFormatError(f"self-loop on node {i[k] + 1}")
            raise GraphFormatError(
                f"edge ({i[k] + 1},{j[k] + 1}) out of range for {node_count} nodes")
        net = cls.__new__(cls)
        net._store(node_count, np.concatenate([i, j]), np.concatenate([j, i]), require_connected,
                   symmetric=True)
        return net

    def _store(self, n, rows, cols, require_connected, symmetric=False):
        """Check the nonzero pairs ``(rows, cols)`` of an adjacency matrix and
        store its closed adjacency.  ``symmetric`` skips the symmetry check,
        for pairs that list every edge both ways."""
        loops = rows[rows == cols]
        if loops.size:
            raise GraphFormatError(
                f"self-loop on node {loops.min() + 1} (diagonal must be zero)")
        if n > _MAX_NODES:
            raise GraphFormatError(f"{n} nodes exceed the {_MAX_NODES} a network can hold")
        # Keys row·N + col of the entries and the diagonal, sorted once and
        # made duplicate-free.
        keys = np.concatenate([np.asarray(rows, dtype=np.int64) * n + cols,
                               np.arange(n, dtype=np.int64) * (n + 1)])
        keys.sort()
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        if not symmetric:
            # The sorted mirrored keys equal the keys unless an entry lacks its
            # mirror; where they first differ, the smaller one is the first
            # such entry or missing mirror in row-major order.
            mirror = np.sort(keys % n * n + keys // n)
            differ = np.flatnonzero(mirror != keys)
            if differ.size:
                i, j = divmod(int(min(keys[differ[0]], mirror[differ[0]])), n)
                raise GraphFormatError(
                    f"adjacency matrix is not symmetric: entry ({i + 1},{j + 1}) != "
                    f"({j + 1},{i + 1})")
        self.node_count = n
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        self.indices = (keys % n).astype(np.int32)
        self._components = _components(self)
        self._closeness = None  # filled by closeness_centrality
        self._nested = None  # filled by _nested_pairs
        if require_connected and len(self._components) > 1:
            raise DisconnectedGraphError(self._components)

    @functools.cached_property
    def closed_adjacency(self):
        import scipy.sparse as sp

        n = self.node_count
        return sp.csr_matrix((np.ones(self.indices.size), self.indices, self.indptr),
                             shape=(n, n))

    @functools.cached_property
    def closed_neighbors(self) -> tuple:
        return tuple(np.split(self.indices, self.indptr[1:-1]))

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr).astype(np.int64) - 1

    @property
    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.node_count, self.node_count), dtype=bool)
        A[self._entries()] = True
        np.fill_diagonal(A, False)
        return A

    @property
    def edge_count(self) -> int:
        return (self.indices.size - self.node_count) // 2

    def edges(self):
        """Yield edges as 0-indexed pairs ``(i, j)`` with ``i < j``."""
        rows, cols = self._entries()
        upper = cols > rows
        return list(zip(rows[upper].tolist(), cols[upper].tolist()))

    def _entries(self):
        """Row and column of every stored entry, in row-major order."""
        return np.repeat(np.arange(self.node_count), np.diff(self.indptr)), self.indices

    def is_connected(self) -> bool:
        return len(self._components) == 1

    def __repr__(self):
        return f"Network(nodes={self.node_count}, edges={self.edge_count})"


def _components(net):
    """Connected components as sorted node lists, ordered by smallest node.

    Every round hooks each root onto the smallest root it shares an edge
    with, then pointer jumping flattens the trees; once every edge
    joins equal labels, each node's label is its component's smallest node.
    """
    rows, cols = net._entries()
    label = np.arange(net.node_count)
    while True:
        a, b = label[rows], label[cols]
        if (a == b).all():
            break
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while (label[label] != label).any():
            label = label[label]
    sizes = np.unique(label, return_counts=True)[1]
    order = np.argsort(label, kind="stable")
    return [c.tolist() for c in np.split(order, np.cumsum(sizes)[:-1])]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def parse_network(text: str, fmt: str | None = None, *,
                  largest_component: bool = False) -> Network:
    """Parse a network from adjacency-matrix or edge-list text.

    Matrix format: first non-comment line is ``N``, followed by N rows of N
    whitespace-separated 0/1 entries.  Edge-list format: one ``i j`` pair per
    line, 1-indexed, naming every id up to the largest.  Lines starting with
    ``#`` and blank lines are ignored.  ``fmt`` may be ``"matrix"`` or
    ``"edges"``; when omitted it is sniffed from the token count of the
    first data line.  Matrix errors name the matrix row, edge-list errors the
    line of the file.  ``largest_component`` keeps the largest component of
    a disconnected network (or edge list that skips ids) instead of raising.
    """
    values, counts = _scan(text)
    if not counts.size:
        raise GraphFormatError("empty network file")
    if fmt is None:
        fmt = "matrix" if counts[0] == 1 else "edges"
    if fmt == "matrix":
        if counts[0] != 1 or values[0] == _NOT_INT:
            raise GraphFormatError(
                f"expected node count on first line, got {_data_lines(text)[0][1]!r}")
        n = int(values[0])
        if counts.size - 1 != n:  # n may be clamped: name the one on the line
            raise GraphFormatError(
                f"expected {int(_data_lines(text)[0][1])} matrix rows, got {counts.size - 1}")
        _check_lines(text, 1, values[1:], counts[1:], n, 0, 1, (
            "row {row} has {count} entries, expected {width}",
            "row {row} contains a non-integer entry",
            "row {row} contains an entry outside {{0,1}}"))
        # No rows read as a 1-D array, as np.array([]) does.
        net = Network(values[1:].reshape(n, n) if n else values[1:], require_connected=False)
    elif fmt == "edges":
        net = _edges(text, values, counts, largest_component)
    else:
        raise GraphFormatError(f"unknown network format {fmt!r}")
    if not net.is_connected():
        if not largest_component:
            raise DisconnectedGraphError(net._components)
        keep = np.array(max(net._components, key=len))
        pairs = np.stack(net._entries(), 1)
        inside = np.isin(pairs[:, 0], keep) & (pairs[:, 0] < pairs[:, 1])
        net = Network.from_edges(keep.size, np.searchsorted(keep, pairs[inside]))
    return net


_NOT_INT = -2  # what _scan stores for a token int cannot read


def _scan(text):
    """Values (int64) of the tokens on data lines, and the token count of
    each data line: the lines of ``str.splitlines`` with a ``str.split``
    token, the first not starting with ``#``.  Tokens of at most 18 ASCII
    digits are read in whole-array passes, any other by ``int`` alone: one
    it cannot read is stored as ``_NOT_INT``, a value below -1 or above
    ``_MAX_NODES`` as -1 or ``_MAX_NODES + 1``."""
    # A byte per code point: "?" outside ASCII, a space or \v for a blank or break.
    b = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    if not text.isascii():
        b = b.copy()
        for k in np.flatnonzero(b == ord("?")).tolist():
            if text[k].isspace():
                b[k] = 11 if text[k] in "\x85\u2028\u2029" else 32
    # word[k + 1]: byte k is part of a token; word[0] and word[-1] are False.
    word = np.pad(b > 32, 1)
    inner = word[1:-1]
    # Of the control characters, \t and \x1f are blanks, \n, \v, \f, \r and
    # \x1c-\x1e end a line (\r\n at its \n), and the rest are token bytes.
    ctrl = np.flatnonzero(b < 32)
    kind = b[ctrl]
    breaks = ctrl[((kind >= 10) & (kind <= 13) | (kind >= 28) & (kind <= 30))
                  & ((kind != 13) | (b[np.minimum(ctrl + 1, b.size - 1)] != 10))]
    inner[ctrl[(kind < 9) | (kind > 13) & (kind < 28)]] = True
    starts = np.flatnonzero(inner > word[:-2])
    # An odd token, which int reads, has a non-digit byte or 19+ digits.
    odd = np.zeros(starts.size, dtype=bool)
    notdigit = np.flatnonzero(((b - ord("0")) > 9) & inner)
    odd[np.searchsorted(starts, notdigit, side="right") - 1] = True
    # Token index at the start of each line, then past the last token.
    bounds = np.searchsorted(starts, np.concatenate([[0], breaks + 1, [b.size]]))
    heads, counts = bounds[:-1], np.diff(bounds)
    heads, counts = heads[counts > 0], counts[counts > 0]
    comment = b[starts[heads]] == ord("#")
    if comment.any():
        keep = np.repeat(~comment, counts)
        starts, odd, counts = starts[keep], odd[keep], counts[~comment]
    values = np.subtract(b[starts], ord("0"), dtype=np.int64)
    live = np.flatnonzero(word[2:][starts] & ~odd)  # plain tokens with a second digit
    at = starts[live] + 1
    for _ in range(17):  # digits 2 to 18
        if not live.size:
            break
        values[live] = values[live] * 10 + (b[at] - ord("0"))
        at += 1
        more = word[1:][at]
        live, at = live[more], at[more]
    odd[live] = True
    token = re.compile(r"\S+")  # \s is what str.isspace calls a blank or break
    for t, s in zip(np.flatnonzero(odd).tolist(), starts[odd].tolist()):
        try:
            values[t] = min(max(int(token.match(text, s)[0]), -1), _MAX_NODES + 1)
        except ValueError:
            values[t] = _NOT_INT
    return values, counts


def _data_lines(text):
    """File line and stripped text of each data line, to name a bad one."""
    return [(k, ln) for k, ln in enumerate((ln.strip() for ln in text.splitlines()), 1)
            if ln and not ln.startswith("#")]


def _check_lines(text, skip, values, counts, width, low, high, faults):
    """Raise ``faults[f]`` for the first data line past the first ``skip``
    with a token count other than ``width`` (f = 0), a token int cannot read
    (1) or a value outside ``low..high`` (2), formatted with its ``row``
    among these lines, its file ``line`` and ``text`` and its ``count``."""
    if ((counts == width).all() and low <= values.min(initial=low)
            and values.max(initial=high) <= high):
        return
    first = np.cumsum(counts) - counts
    not_int = np.logical_or.reduceat(values == _NOT_INT, first)
    outside = np.logical_or.reduceat((values < low) | (values > high), first)
    k = int(np.flatnonzero((counts != width) | outside)[0])
    line, ln = _data_lines(text)[skip + k]
    raise GraphFormatError(faults[0 if counts[k] != width else 1 if not_int[k] else 2].format(
        row=k + 1, line=line, text=ln, count=counts[k], width=width))


def _edges(text, values, counts, largest_component):
    _check_lines(text, 0, values, counts, 2, 1, np.iinfo(np.int64).max, (
        "edge line {line} must be 'i j', got {text!r}",
        "edge line {line} contains a non-integer id", "edge line {line}: node ids are 1-indexed"))
    i, j = values[0::2], values[1::2]
    suspect = np.flatnonzero((i == j) | (np.maximum(i, j) > _MAX_NODES))
    if suspect.size:
        # A self-loop comes before an id over the limit; int's values over it
        # are stored clamped, so these lines are read again.
        lines = _data_lines(text)
        ids = [tuple(map(int, lines[k][1].split())) for k in suspect.tolist()]
        loop = next((i for i, j in ids if i == j), None)
        raise GraphFormatError(f"self-loop on node {loop}" if loop is not None else
                               f"{max(map(max, ids))} nodes exceed the {_MAX_NODES} a network "
                               "can hold")
    ids, pairs = np.unique(values, return_inverse=True)
    top = int(ids[-1])
    if ids.size < top and not largest_component:
        first = int(np.flatnonzero(ids != np.arange(1, ids.size + 1))[0]) + 1
        raise GraphFormatError(
            f"node {first} is on no edge ({top - ids.size} of nodes 1..{top} are on none)")
    # Build on the named ids: all of 1..top, or under largest_component the
    # ids off the isolated nodes, which never make the largest component.
    return Network.from_edges(ids.size, pairs.reshape(-1, 2), require_connected=False)


_SUFFIX_FORMATS = {".adj": "matrix", ".mat": "matrix", ".matrix": "matrix",
                   ".edges": "edges", ".edgelist": "edges", ".el": "edges"}


def load_network(path, fmt: str | None = None, *, largest_component: bool = False) -> Network:
    """Load a network file; see :func:`parse_network` for formats."""
    path = Path(path)
    if fmt is None:
        fmt = _SUFFIX_FORMATS.get(path.suffix.lower())
    return parse_network(path.read_text(), fmt, largest_component=largest_component)


def save_network(net: Network, path, fmt: str = "matrix") -> Path:
    """Write a network in matrix or edge-list format (1-indexed)."""
    path = Path(path)
    rows, cols = net._entries()
    if fmt == "matrix":
        n = net.node_count
        # Row i is n entries, each followed by a blank or, the last, a newline.
        text = np.full((n, 2 * n), ord(" "), dtype=np.uint8)
        text[:, 0::2] = ord("0")
        text[:, -1] = ord("\n")
        off = rows != cols
        text[rows[off], 2 * cols[off]] = ord("1")
        path.write_text(f"{n}\n" + text.tobytes().decode("ascii"))
    elif fmt == "edges":
        upper = cols > rows
        pairs = np.stack([rows[upper], cols[upper]], axis=1) + 1
        path.write_text("%d %d\n" * len(pairs) % tuple(pairs.ravel().tolist()))
    else:
        raise ValueError(f"unknown network format {fmt!r}")
    return path


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

# Draws per window of arrivals in generate_barabasi_albert; 64 timed fastest
# of 48 to 256 on BA(1363, m) for m from 2 to 20.
_WINDOW_DRAWS = 64


def generate_barabasi_albert(node_count: int, m: int, seed) -> Network:
    """Preferential-attachment network: complete seed on ``m`` nodes, then
    each new node attaches to ``m`` distinct existing nodes with probability
    proportional to degree.

    The edge count is deterministic: ``m*(m-1)/2 + m*(node_count-m)``;
    e.g. 99 edges for (100, 1) and 945 for (100, 10).

    Each arrival draws uniform positions in the multiset of endpoints of the
    edges before it, which picks nodes in proportion to their degree, one
    ``rng.integers`` draw at a time, until it holds ``m`` distinct targets.  The draws of a window of arrivals are made in
    one call with an array of bounds, as if no arrival met a duplicate
    target.  At the first that does, the generator's state is rewound to
    the window's start and the draws up to that arrival's are made again,
    so that its extra draws come next in the stream.  With PCG64 and bounds
    below 2**32, numpy returns the same values drawn one at a time, in a
    batch or with an array of bounds.
    """
    if not 1 <= m < node_count:
        raise ValueError(f"need 1 <= m < node_count, got m={m}, node_count={node_count}")
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(m, 1)
    seeded = i.size  # edges of the complete seed
    # Row e is edge e as (new node, target); its endpoints are positions 2e
    # and 2e + 1 of the flat multiset.  Targets not yet drawn hold -1.
    ends = np.full((seeded + m * (node_count - m), 2), -1, dtype=np.int64)
    ends[:seeded, 0], ends[:seeded, 1] = i, j
    ends[seeded:, 0] = np.repeat(np.arange(m, node_count), m)
    flat = ends.reshape(-1)
    # The bound of each draw after the seed: twice the edges before its node.
    bounds = np.repeat(2 * (seeded + m * np.arange(node_count - m)), m)
    v = m
    if not seeded:
        ends[0, 1] = 0  # first arrival when the seed has no edges (m == 1)
        v += 1
    window = max(1, _WINDOW_DRAWS // m)
    while v < node_count:
        first = seeded + m * (v - m)  # the window's first edge
        w = min(window, node_count - v)
        start = rng.bit_generator.state
        b = bounds[first - seeded:first - seeded + w * m]
        drawn = rng.integers(b)
        targets = flat[drawn]
        # A target drawn from an edge of this window copies that edge's draw.
        while (pending := np.flatnonzero(targets < 0)).size:
            targets[pending] = targets[(drawn[pending] >> 1) - first]
        rows = targets.reshape(w, m)
        ordered = np.sort(rows, axis=1)
        same = ordered[:, 1:] == ordered[:, :-1]
        k = int(same.argmax()) // (m - 1) if same.any() else w  # first arrival with a duplicate
        ends[first:first + k * m, 1] = targets[:k * m]
        v += k
        if k == w:
            continue
        if k + 1 < w:
            rng.bit_generator.state = start
            rng.integers(b[:(k + 1) * m])
        got = list(dict.fromkeys(rows[k].tolist()))
        while len(got) < m:
            t = int(flat[rng.integers(b[k * m])])
            if t not in got:
                got.append(t)
        ends[first + k * m:first + (k + 1) * m, 1] = got
        v += 1
    return Network.from_edges(node_count, ends)


# ---------------------------------------------------------------------------
# Structural analysis
# ---------------------------------------------------------------------------

def _nested_pairs(net: Network):
    """All pairs ``(i, j)`` with ``N[i]`` a strict subset of ``N[j]``, as two
    index arrays; computed once per network and kept on it.

    ``N[i] ⊆ N[j]`` puts i in ``N[j]``, so only edges with ``|N[i]| < |N[j]|``
    can qualify; for each, every k in ``N[i]`` is looked up among the sorted
    keys ``row·N + col`` of the stored entries.
    """
    if net._nested is None:
        n = net.node_count
        rows, cols = net._entries()
        sizes = np.diff(net.indptr)
        edge = sizes[rows] < sizes[cols]
        i, j = rows[edge], cols[edge]
        # One slot per edge and k in N[i]: slot first[e] + m of edge e holds
        # the m-th entry of row i.
        length = sizes[i]
        first = np.cumsum(length) - length
        slot = np.arange(length.sum()) + np.repeat(net.indptr[i] - first, length)
        wanted = np.repeat(j.astype(np.int64) * n, length) + net.indices[slot]
        keys = rows * n + cols
        # No wanted key exceeds the last stored one, (N-1)·N + N-1, so the
        # search never runs off the end.
        found = keys[np.searchsorted(keys, wanted)] == wanted
        nested = np.logical_and.reduceat(found, first)
        net._nested = (i[nested], j[nested])
    return net._nested


def outer_nodes(net: Network) -> np.ndarray:
    """Nodes whose closed neighbourhood is a strict subset of another node's.

    These are the nodes an optimal curing initialization can ignore; the
    complement is :func:`inner_nodes`.
    """
    return np.unique(_nested_pairs(net)[0]).astype(int)


def inner_nodes(net: Network) -> np.ndarray:
    return np.setdiff1d(np.arange(net.node_count), outer_nodes(net))


def _reach_levels(net: Network):
    """Advance every node's breadth-first search together, one hop a level.

    Yields, for d = 0, 1, ... up to the largest eccentricity, ``(reached,
    counts)``: ``reached`` is an ``(N, ⌈N/64⌉)`` uint64 bitset whose row i
    holds the nodes within d hops of node i, and ``counts`` (int64) the
    number of them per row.  Level d+1 ORs, for each node, the rows of its
    closed neighbourhood, a word at a time: the multi-source BFS of Then et
    al., "The More the Merrier" (PVLDB 8(4), 2014).  Raises
    :class:`DisconnectedGraphError` when no count grows while one is below N.
    """
    n = net.node_count
    nodes = np.arange(n)
    reached = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    reached[nodes, nodes // 64] = np.uint64(1) << (nodes % 64).astype(np.uint64)
    counts = np.ones(n, dtype=np.int64)
    while True:
        yield reached, counts
        if counts.min() == n:
            return
        # reduceat returns the element itself for an empty segment; no segment
        # is empty here, because every row holds its own diagonal entry.
        reached = np.bitwise_or.reduceat(reached[net.indices], net.indptr[:-1], axis=0)
        grown = np.bitwise_count(reached).sum(axis=1, dtype=np.int64)
        if (grown == counts).all():
            raise DisconnectedGraphError(net._components)
        counts = grown


def all_pairs_distances(net: Network) -> np.ndarray:
    """All-pairs shortest path lengths (int64).

    Every node's breadth-first search runs at once on bitsets (see
    ``_reach_levels``); the distance from i to j is the number of levels d
    at which j is not yet within d hops of i.  Cost: O(levels · nnz(C) ·
    ⌈N/64⌉) word operations, where C is the closed adjacency.  Peak, besides
    the (N, N) result: about ``nnz(C) · ⌈N/64⌉ · 8`` bytes of gathered rows
    plus one unpacked (N, N) uint8 level.

    Raises :class:`DisconnectedGraphError` if any pair is unreachable.
    """
    n = net.node_count
    dist = np.zeros((n, n), dtype=np.int64)
    for reached, _ in _reach_levels(net):
        bits = reached.astype("<u8", copy=False).view(np.uint8)
        dist += 1 - np.unpackbits(bits, axis=1, count=n, bitorder="little")
    return dist


def closeness_centrality(net: Network) -> np.ndarray:
    """Closeness score of each node: reciprocal of its total distance to all
    other nodes.  A single-node network gets score 0 by convention.

    The total distance of node i is ``Σ_d (N − count_d[i])`` over the levels
    of :func:`_reach_levels`, an exact integer, so no distance matrix is
    built.  Cost: O(levels · nnz(C) · ⌈N/64⌉) word operations, where C is
    the closed adjacency; peak about ``nnz(C) · ⌈N/64⌉ · 8`` bytes.

    Computed once per network and kept on it; the returned array is
    read-only.  Raises :class:`DisconnectedGraphError` on a disconnected
    network.
    """
    if net._closeness is None:
        n = net.node_count
        scores = np.zeros(1) if n == 1 else 1.0 / sum(n - c for _, c in _reach_levels(net))
        scores.flags.writeable = False
        net._closeness = scores
    return net._closeness


@dataclass(frozen=True)
class TargetSet:
    """A set of nodes selected to receive resources.

    ``nodes`` is sorted; ``insertion_order`` preserves the order in which the
    centrality-driven selection added nodes (``None`` for other sources).
    ``absorbed_remainder`` marks that the layered selection hit a round with
    no nested nodes left and absorbed the whole remaining set.
    """

    nodes: tuple
    source: str
    insertion_order: tuple | None = None
    absorbed_remainder: bool = False

    def __len__(self):
        return len(self.nodes)

    def as_array(self) -> np.ndarray:
        return np.array(self.nodes, dtype=int)


def target_set_all(net: Network) -> TargetSet:
    return TargetSet(tuple(range(net.node_count)), "all")


def target_set_inner(net: Network) -> TargetSet:
    return TargetSet(tuple(inner_nodes(net).tolist()), "inner-nodes")


def target_set_layered(net: Network) -> TargetSet:
    """Layered targeting: repeatedly aim at non-nested nodes adjacent to
    nested ones, peeling off the covered closed neighbourhoods, until either
    every node is covered or no nested nodes remain (in which case the whole
    remaining set is targeted).

    Every node of the network ends up with a targeted node inside its closed
    neighbourhood.
    """
    a, b = _nested_pairs(net)
    starts = net.indptr[:-1]
    test = np.ones(net.node_count, dtype=bool)
    targets = np.zeros(net.node_count, dtype=bool)
    absorbed = False
    while test.any():
        live = test[a] & test[b]
        outer = np.zeros(net.node_count, dtype=bool)
        outer[a[live]] = True
        if not outer.any():
            targets |= test
            absorbed = True
            break
        added = test & ~outer & np.logical_or.reduceat(outer[net.indices], starts)
        targets |= added
        test &= ~np.logical_or.reduceat(added[net.indices], starts)
    return TargetSet(tuple(np.flatnonzero(targets).tolist()), "layered",
                     absorbed_remainder=absorbed)


def target_set_dense(net: Network, prune: bool = False) -> TargetSet:
    """Centrality-greedy targeting: add nodes in descending closeness order
    (ties broken by lower index) until the closed neighbourhoods of the
    chosen nodes cover the network.  With ``prune``, scan the chosen nodes in
    reverse insertion order and drop any whose removal preserves coverage.
    """
    order = np.argsort(-closeness_centrality(net), kind="stable")
    # Node v is first covered when the earliest-ranked node of N[v] is added.
    cover = np.minimum.reduceat(np.argsort(order)[net.indices], net.indptr[:-1]).max()
    chosen = order[:cover + 1].tolist()
    if prune:
        # chosen nodes covering each node
        counts = np.bincount(np.concatenate([net.closed_neighbors[i] for i in chosen]),
                             minlength=net.node_count)
        for i in reversed(list(chosen)):
            nbrs = net.closed_neighbors[i]
            if (counts[nbrs] > 1).all():
                counts[nbrs] -= 1
                chosen.remove(i)
    source = "dense-pruned" if prune else "dense"
    return TargetSet(tuple(sorted(chosen)), source, insertion_order=tuple(chosen))
