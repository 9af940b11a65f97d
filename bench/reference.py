"""Reference computations kept apart from the program under test.

Everything here works from an edge list (0-indexed pairs) and plain
numpy/scipy/networkx arithmetic; nothing imports ``polyanet``.  The checks
raise :class:`CheckFailed` with a message naming what disagreed.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import scipy.integrate as integrate
import scipy.sparse as sp


class CheckFailed(AssertionError):
    """A program output disagreed with its reference or property."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def closed_adjacency(n, edges):
    """Adjacency plus identity as a CSR matrix of int64."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([e[:, 0], e[:, 1], np.arange(n)])
    cols = np.concatenate([e[:, 1], e[:, 0], np.arange(n)])
    return sp.csr_matrix((np.ones(rows.shape[0], dtype=np.int64), (rows, cols)), shape=(n, n))


class Graph:
    """The reference view of one network: closed adjacency and neighbourhoods."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = [tuple(map(int, e)) for e in edges]
        self.closed = closed_adjacency(n, self.edges)
        self.closed_f = self.closed.astype(np.float64)
        self.nbhd = [self.closed.indices[self.closed.indptr[i]:self.closed.indptr[i + 1]]
                     for i in range(n)]

    # -- super-urn arithmetic -------------------------------------------

    def exposure(self, red, black):
        """Super-urn red proportion of every node."""
        super_red = self.closed_f @ red
        return super_red / (super_red + self.closed_f @ black)

    def time1_rate(self, red, black):
        """Mean time-1 draw probability and its gradient in the black masses."""
        super_red = self.closed_f @ red
        super_total = super_red + self.closed_f @ black
        value = float(np.mean(super_red / super_total))
        grad = -(self.closed_f @ (super_red / super_total**2)) / self.n
        return value, grad

    def time1_stderr(self, red, black, trials):
        """Exact standard error of the trial-averaged node-mean draw at time 1:
        time-1 draws are independent Bernoulli(s_i) given the initial urns."""
        s = self.exposure(red, black)
        return math.sqrt(float(np.sum(s * (1.0 - s))) / trials) / self.n

    # -- structure --------------------------------------------------------

    def closeness(self):
        """Program convention: 1 / (sum of distances), from networkx."""
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edges)
        nxc = nx.closeness_centrality(g)
        return np.array([nxc[i] for i in range(self.n)]) / (self.n - 1)

    def outer_nodes(self):
        """Nodes whose closed neighbourhood is strictly contained in another's,
        from the closed-adjacency product ``C C^T`` (common closed neighbours)."""
        common = (self.closed @ self.closed.T).tocoo()
        size = np.asarray(self.closed.sum(axis=1)).ravel()
        i, j, c = common.row, common.col, common.data
        hit = (c == size[i]) & (size[i] < size[j])
        return np.unique(i[hit])

    def dominated(self, nodes):
        """Whether every node has a member of ``nodes`` in its closed neighbourhood."""
        mark = np.zeros(self.n)
        mark[np.asarray(nodes, dtype=np.int64)] = 1.0
        return bool(((self.closed_f @ mark) >= 1.0).all())


# ---------------------------------------------------------------------------
# One-step expected exposure as a 1-D integral
# ---------------------------------------------------------------------------

def _node_integral(s, c, d, x, y):
    """E[N/D] for one node as the integral over t of E[N exp(-tD)].

    With independent draws Z_j ~ Bernoulli(s_j) over the closed
    neighbourhood, N = c + sum Z_j y_j and D = c + d + sum (Z_j y_j +
    (1 - Z_j) x_j), the expectation factorizes over j.  The integral is
    taken in u = t (c + d) to put the decay scale at 1.
    """
    k = c + d

    def f(u):
        t = u / k
        ey = np.exp(-t * y)
        phi = s * ey + (1.0 - s) * np.exp(-t * x)
        pre = np.cumprod(np.concatenate(([1.0], phi[:-1])))
        suf = np.cumprod(np.concatenate(([1.0], phi[:0:-1])))[::-1]
        prod = pre[-1] * phi[-1]
        return math.exp(-u) * (c * prod + float(np.sum(y * s * ey * pre * suf)))

    val, _ = integrate.quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-10, limit=200)
    return val / k


class ExposureReference:
    """Expected network exposure of one urn state, by quadrature.

    ``s`` is the super-urn red proportion, ``c``/``d`` the super-urn red and
    black masses of every node.
    """

    def __init__(self, graph: Graph, red, black):
        self.graph = graph
        self.s = graph.exposure(red, black)
        self.c = graph.closed_f @ red
        self.d = graph.closed_f @ black

    def node_terms(self, x, y, nodes=None):
        nodes = range(self.graph.n) if nodes is None else nodes
        out = []
        for i in nodes:
            nb = self.graph.nbhd[i]
            out.append(_node_integral(self.s[nb], self.c[i], self.d[i], x[nb], y[nb]))
        return np.array(out)

    def value(self, x, y):
        return float(self.node_terms(x, y).sum()) / self.graph.n

    def partial(self, x, y, which, j, rel_step=1e-4):
        """Central difference of the integral in coordinate j of x or y; only
        the nodes whose closed neighbourhood holds j change."""
        v = (x if which == "x" else y).astype(float)
        h = rel_step * max(1.0, abs(float(v[j])))
        nodes = self.graph.nbhd[j]  # j in N[i] iff i in N[j]
        vp, vm = v.copy(), v.copy()
        vp[j] += h
        vm[j] -= h
        if which == "x":
            up, dn = self.node_terms(vp, y, nodes), self.node_terms(vm, y, nodes)
        else:
            up, dn = self.node_terms(x, vp, nodes), self.node_terms(x, vm, nodes)
        return float((up - dn).sum()) / (2.0 * h) / self.graph.n

    def gradients(self, x, y):
        n = self.graph.n
        gx = np.array([self.partial(x, y, "x", j) for j in range(n)])
        gy = np.array([self.partial(x, y, "y", j) for j in range(n)])
        return gx, gy


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------

def check_allocation(name, alloc, budget, rel=1e-9):
    alloc = np.asarray(alloc, dtype=float)
    require(np.isfinite(alloc).all(), f"{name}: non-finite allocation")
    require((alloc >= 0).all(), f"{name}: negative mass {alloc.min():.3g}")
    require(abs(alloc.sum() - budget) <= rel * max(1.0, budget),
            f"{name}: allocation sums to {alloc.sum()!r}, budget {budget!r}")


def check_close(name, got, want, rel, abs_=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    tol = abs_ + rel * np.abs(want)
    if not (err <= tol).all():
        k = int(np.argmax(err - tol))
        raise CheckFailed(f"{name}: {got.ravel()[k]!r} vs reference {want.ravel()[k]!r}")


def check_time1_mean(name, series_mean, rate, stderr, z=5.0):
    require(abs(series_mean - rate) <= z * stderr,
            f"{name}: time-1 mean {series_mean:.6f} is more than {z} standard errors "
            f"({stderr:.2e}) from the exact rate {rate:.6f}")


def simplex_gap(grad, alloc, budget, maximize=False):
    """Linearization gap of an allocation on the budget simplex."""
    g = -np.asarray(grad) if maximize else np.asarray(grad)
    return float(g @ alloc - budget * g.min())
