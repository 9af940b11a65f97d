"""Shared fixtures: small named networks and seeded random-graph makers."""

import numpy as np
import pytest

from polyanet.engine import UrnState, as_schedule, iter_draws
from polyanet.graph import Network


def path_network(n):
    return Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_network(n):
    return Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_network(n):
    return Network.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_network(n, center=0):
    return Network.from_edges(n, [(center, i) for i in range(n) if i != center])


def random_connected_network(rng, n, extra_edge_prob=0.3):
    """Random spanning tree plus independent extra edges."""
    edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.append((i, j))
    return Network.from_edges(n, edges)


def random_tree(rng, n):
    return random_connected_network(rng, n, extra_edge_prob=0.0)


def strict_draws(state, schedule, uniforms):
    """:func:`iter_draws` with the strict rule: a node draws red when its
    uniform is < (not <=) its super-urn red proportion.  With the colours
    swapped and run on ``1 - u``, it flips every draw of the run on ``u``,
    ties at the boundary included."""
    sched = as_schedule(schedule)
    for u in uniforms:
        dr, db = sched(state.time + 1, state)
        z = (u < state.exposure).astype(np.int8)
        state.advance(z, dr, db)
        yield z


def trial_draws(net, red, black, schedule, uniforms, draws=iter_draws):
    """Draw matrix (node_count, steps) of one trial driven by the columns of
    ``uniforms`` (node_count, steps), stepped by ``draws``."""
    state = UrnState(net, red, black)
    return np.stack(list(draws(state, schedule, uniforms.T)), axis=1)


# The 8-node instance used for the game and curing-optimizer checks: a hub
# with a two-level periphery and a couple of cross links.
EIGHT_NODE_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (3, 5), (4, 6), (5, 6), (6, 7)]


def eight_node_network():
    return Network.from_edges(8, EIGHT_NODE_EDGES)


@pytest.fixture
def p3():
    return path_network(3)


@pytest.fixture
def p5():
    return path_network(5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}")
