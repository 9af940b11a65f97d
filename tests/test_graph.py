import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, floyd_warshall

from polyanet import graph
from polyanet.graph import (
    DisconnectedGraphError,
    GraphFormatError,
    Network,
    all_pairs_distances,
    closeness_centrality,
    generate_barabasi_albert,
    inner_nodes,
    load_network,
    outer_nodes,
    parse_network,
    save_network,
    target_set_dense,
    target_set_layered,
)

from conftest import (
    complete_network,
    cycle_network,
    path_network,
    random_connected_network,
    star_network,
)
from support import orbit_average, permutation_cycles, permutation_order, verify_automorphism


# -- parsing ----------------------------------------------------------------

P3_MATRIX = "3\n0 1 0\n1 0 1\n0 1 0\n"


def test_parse_matrix_p3():
    net = parse_network(P3_MATRIX)
    assert net.node_count == 3
    assert net.edge_count == 2
    assert net.closed_neighbors[1].tolist() == [0, 1, 2]


def test_parse_edge_list_triangle():
    net = parse_network("1 2\n2 3\n3 1\n")
    assert net.node_count == 3
    for i in range(3):
        assert net.closed_neighbors[i].tolist() == [0, 1, 2]


def _message(make, *args):
    with pytest.raises(GraphFormatError) as exc:
        make(*args)
    return str(exc.value)


def test_parse_rejects_asymmetric():
    """The first asymmetric entry in row-major order is reported, for dense
    and sparse input alike; stored zeros are not entries."""
    assert _message(parse_network, "2\n0 1\n0 0\n") == (
        "adjacency matrix is not symmetric: entry (1,2) != (2,1)")
    A = np.zeros((5, 5), dtype=int)
    A[[1, 2, 4, 3, 4], [2, 1, 1, 0, 2]] = 1  # 0-indexed (4,1), (3,0), (4,2) lack mirrors
    want = "adjacency matrix is not symmetric: entry (1,4) != (4,1)"
    for form in (A, A.astype(bool), sp.csr_matrix(A), sp.coo_array(A), sp.lil_matrix(A)):
        assert _message(Network, form) == want
    stored_zero = sp.csr_matrix((np.array([1.0, 1.0, 0.0]), ([0, 1, 2], [1, 0, 0])), shape=(3, 3))
    assert Network(stored_zero, require_connected=False).edges() == [(0, 1)]


def test_parse_rejects_self_loop():
    """The smallest looped node is reported for matrix input, the first
    looped edge line for edge lists."""
    assert _message(parse_network, "2\n1 1\n1 0\n") == (
        "self-loop on node 1 (diagonal must be zero)")
    A = np.zeros((4, 4), dtype=int)
    A[[3, 1], [3, 1]] = 1
    for form in (A, sp.csr_matrix(A), sp.coo_array(A)):
        assert _message(Network, form) == "self-loop on node 2 (diagonal must be zero)"
    assert _message(parse_network, "2 2\n") == "self-loop on node 2"
    assert _message(parse_network, "1 2\n3 3\n2 2\n") == "self-loop on node 3"
    assert _message(Network.from_edges, 4, [(0, 1), (3, 3), (1, 1)]) == "self-loop on node 4"


def test_networks_need_a_node():
    """No nodes, as a count or as a matrix file, is a format error."""
    for count in (0, -1):
        assert _message(Network.from_edges, count, []) == "network must have at least one node"
    assert _message(parse_network, "0\n") == "network must have at least one node"
    assert _message(parse_network, "# none\n0\n", "matrix") == (
        "network must have at least one node")


def test_from_edges_names_a_pair_beyond_int64():
    """Python ints that int64 cannot hold name their pair, 1-indexed, from a
    list or a generator."""
    assert _message(Network.from_edges, 3, [(0, 1), (0, 10**20), (2**64, 1)]) == (
        "edge (1,100000000000000000001) holds an id beyond int64")
    assert _message(Network.from_edges, 3, ((i, j) for i, j in [(0, 1), (-2**63 - 1, 2)])) == (
        "edge (-9223372036854775808,3) holds an id beyond int64")


def test_from_edges_names_a_pair_with_an_id_that_is_not_an_integer():
    """Fractional, NaN and infinite ids name their pair, 1-indexed, from a
    list or a float array; integral floats still build."""
    for edges, pair in (([(0, 1.5), (1, 2)], "(1,2.5)"), ([(0, 1), (np.nan, 2)], "(nan,3)"),
                        (np.array([[0.0, 1.0], [1.0, np.inf]]), "(2.0,inf)")):
        assert _message(Network.from_edges, 3, edges) == (
            f"edge {pair} holds an id that is not an integer")
    floats = Network.from_edges(3, np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert floats.edges() == Network.from_edges(3, [(0, 1), (1, 2)]).edges()


def test_edge_list_errors_name_the_file_line():
    """Comment and blank lines count, after any line break; the first bad
    line is named."""
    assert _message(parse_network, "# header\n\n1 2\nx y\n") == (
        "edge line 4 contains a non-integer id")
    assert _message(parse_network, "1 2\r\n\r\n# c\r\n2 3 4\r\n2 x\r\n") == (
        "edge line 4 must be 'i j', got '2 3 4'")
    assert _message(parse_network, "1 2\r# c\r  \r0 1\r") == (
        "edge line 4: node ids are 1-indexed")
    assert _message(parse_network, "# one\n5\n", "edges") == "edge line 2 must be 'i j', got '5'"
    assert _message(parse_network, "1 2\n\n# c\n3 3\n") == "self-loop on node 3"
    assert _message(parse_network, "1 2\n2 3037000500\n") == (
        "3037000500 nodes exceed the 3037000499 a network can hold")


def test_scan_reads_line_breaks_comments_and_widths():
    """The array scan ends lines at \\n, \\r\\n and a lone \\r, drops comment
    lines, reads up to 18 digits and leaves anything else to the line walk."""
    values, counts = graph._scan("# c 1\r\n1 2\r02  3 \n\n\t#x 5\r\n10 123456789012345678\r")
    assert values.tolist() == [1, 2, 2, 3, 10, 123456789012345678]
    assert counts.tolist() == [2, 2, 2]
    assert _message(parse_network, "1 1234567890123456789\n") == (
        "1234567890123456789 nodes exceed the 3037000499 a network can hold")
    for text in ("1 2\x0b3 4\n", "1 2\u20283 4\n", "1\x1f2\n3\xa04\n"):
        with pytest.raises(DisconnectedGraphError) as exc:
            parse_network(text)
        assert exc.value.components == [[0, 1], [2, 3]], repr(text)
    assert _message(parse_network, "1 2 #\n") == "edge line 1 must be 'i j', got '1 2 #'"
    assert _message(parse_network, "1 -2\n") == "edge line 1: node ids are 1-indexed"


def test_tokens_int_reads_parse_as_plain_digits():
    """A token the array scan does not read (a sign, an underscore, a
    non-ASCII digit, more than 18 digits) or a blank other than space and
    tab sends the text to the line walk, which reads what ``int`` reads."""
    plain = parse_network("1 2\n2 3\n")
    for text in ("+1 2\n2 3\n", "1 0_2\n2 3\n", "1 \u0662\n2 3\n",
                 "1 2\n2 0000000000000000000003\n", "1 2\x0c\n2 3\n", "1\xa02\n2 3\n"):
        net = parse_network(text, "edges")
        assert (net.indptr.tolist(), net.indices.tolist()) == (
            plain.indptr.tolist(), plain.indices.tolist()), repr(text)
    p3 = parse_network(P3_MATRIX)
    net = parse_network("3\n0 01 0\n1 0 +1\n0 1 0\n")
    assert net.indices.tolist() == p3.indices.tolist()


def test_edge_list_is_sized_by_the_ids_it_names():
    """An edge list that leaves ids on no edge is rejected, naming the
    first and how many, or kept whole by ``largest_component``; neither
    builds anything the size of its largest id."""
    text = "1 2\n2 3000000000\n"
    tracemalloc.start()
    try:
        message = _message(parse_network, text)
        net = parse_network(text, largest_component=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message == "node 3 is on no edge (2999999997 of nodes 1..3000000000 are on none)"
    assert net.edges() == [(0, 1), (1, 2)]
    assert peak < 10 * 2**20
    assert _message(parse_network, "1 2\n2 99999999999999999999\n") == (
        "99999999999999999999 nodes exceed the 3037000499 a network can hold")
    assert _message(parse_network, "1 2\n+99999999999999999999 99999999999999999999\n") == (
        "self-loop on node 99999999999999999999")


def test_parse_rejects_bad_rows():
    with pytest.raises(GraphFormatError, match="expected 3 matrix rows"):
        parse_network("3\n0 1 0\n1 0 1\n")
    with pytest.raises(GraphFormatError, match="outside"):
        parse_network("2\n0 2\n2 0\n")


def test_disconnected_reports_components():
    text = "4\n0 1 0 0\n1 0 0 0\n0 0 0 1\n0 0 1 0\n"
    with pytest.raises(DisconnectedGraphError) as exc:
        parse_network(text)
    assert exc.value.components == [[0, 1], [2, 3]]
    net = parse_network(text, largest_component=True)
    assert net.node_count == 2


def test_components_match_csgraph(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        pairs = rng.integers(0, n, (int(rng.integers(0, n + 1)), 2))
        edges = [(int(i), int(j)) for i, j in pairs if i != j]
        net = Network.from_edges(n, edges, require_connected=False)
        count, labels = connected_components(net.closed_adjacency, directed=False)
        expected = sorted((np.flatnonzero(labels == c).tolist() for c in range(count)),
                          key=lambda c: c[0])
        assert net.is_connected() == (count == 1)
        if count > 1:
            with pytest.raises(DisconnectedGraphError) as exc:
                Network.from_edges(n, edges)
            assert exc.value.components == expected


def test_format_sniffing_and_roundtrip(tmp_path):
    net = path_network(4)
    for fmt, suffix in (("matrix", ".adj"), ("edges", ".edges")):
        p = tmp_path / f"net{suffix}"
        save_network(net, p, fmt)
        again = load_network(p)
        assert (again.adjacency == net.adjacency).all()


def test_comment_lines_ignored(tmp_path):
    p = tmp_path / "net.adj"
    p.write_text("# generated\n" + P3_MATRIX)
    assert load_network(p).node_count == 3


def test_explicit_format_flag_overrides_sniffing(tmp_path):
    p = tmp_path / "net.txt"  # neutral extension
    p.write_text("1 2\n2 3\n")
    net = load_network(p, fmt="edges")
    assert net.node_count == 3
    with pytest.raises(GraphFormatError):
        parse_network("1 2\n2 3\n", fmt="matrix")
    with pytest.raises(GraphFormatError, match="unknown network format"):
        parse_network("1 2\n", fmt="csv")


# -- generation ---------------------------------------------------------------

def test_ba_tree_has_99_edges():
    net = generate_barabasi_albert(100, 1, seed=7)
    assert net.edge_count == 99
    assert net.is_connected()


def test_ba_dense_has_945_edges():
    net = generate_barabasi_albert(100, 10, seed=1)
    assert net.edge_count == 945


def test_ba_two_nodes():
    net = generate_barabasi_albert(2, 1, seed=0)
    assert net.edge_count == 1


def reference_barabasi_albert(node_count, m, seed):
    """Edges of the process in ``generate_barabasi_albert``'s docstring, one
    ``rng.integers`` draw at a time."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    endpoints = [v for e in edges for v in e]
    for v in range(m, node_count):
        targets = [] if endpoints else [0]  # m == 1: the first arrival takes node 0
        while len(targets) < m:
            cand = endpoints[rng.integers(len(endpoints))]
            if cand not in targets:
                targets.append(cand)
        for t in targets:
            edges.append((v, t))
            endpoints.extend((v, t))
    return edges


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (12, 11), (70, 1), (70, 2), (70, 7), (150, 10)])
def test_ba_draws_one_at_a_time(n, m):
    """Windows of draws, rewound at duplicate targets, make the network of
    the one-at-a-time process."""
    for seed in range(4):
        want = Network.from_edges(n, reference_barabasi_albert(n, m, seed)).edges()
        assert generate_barabasi_albert(n, m, seed).edges() == want


# sha256 of the little-endian int64 edges() of generate_barabasi_albert(n, m,
# seed), recorded from the generator that drew one target at a time.
BA_DIGESTS = {
    (100, 1, 7): "101f05133a7cd916f13b3166deed0aedb3ea477d4cc090f9c060254ea8015f32",
    (100, 10, 7): "4384a421f1e6f96f2ad4d397481bcc4e92798fba8cba7edfa2ee287ad60109ed",
    (1363, 1, 7): "2c0c034936f1ec318a2900e8bd79ed8d3430393f180e5b57cf8979b28234db3c",
    (1363, 10, 7): "cb16dd7db5d5dc4013e4100cb235956491173d9db58b0c5bd89d1cfb4d497d10",
    (30, 2, 5): "70812cc990a43e75d06ec3be3a62ae7713010de19da7adb96ff39b2e82c29988",
}


@pytest.mark.parametrize("n, m, seed", list(BA_DIGESTS))
def test_ba_networks_are_pinned(n, m, seed):
    edges = np.asarray(generate_barabasi_albert(n, m, seed).edges(), dtype="<i8")
    assert hashlib.sha256(edges.tobytes()).hexdigest() == BA_DIGESTS[n, m, seed]


def test_ba_is_deterministic_per_seed():
    a = generate_barabasi_albert(30, 2, seed=5)
    b = generate_barabasi_albert(30, 2, seed=5)
    c = generate_barabasi_albert(30, 2, seed=6)
    assert (a.adjacency == b.adjacency).all()
    assert not (a.adjacency == c.adjacency).all()


@pytest.mark.parametrize("m", [0, 5, -1])
def test_ba_rejects_bad_m(m):
    with pytest.raises(ValueError):
        generate_barabasi_albert(5, m, seed=0)


# -- nesting -----------------------------------------------------------------

def test_outer_nodes_star():
    net = star_network(5, center=0)
    assert outer_nodes(net).tolist() == [1, 2, 3, 4]
    assert inner_nodes(net).tolist() == [0]


def test_outer_nodes_p5():
    assert outer_nodes(path_network(5)).tolist() == [0, 4]


def test_outer_nodes_complete_graph_empty():
    assert outer_nodes(complete_network(4)).tolist() == []


def test_nesting_matches_brute_force(rng):
    for _ in range(25):
        n = int(rng.integers(2, 13))
        net = random_connected_network(rng, n, extra_edge_prob=float(rng.random()) * 0.5)
        closed = [set(c.tolist()) for c in net.closed_neighbors]
        expected = sorted(
            i for i in range(n)
            if any(j != i and closed[i] < closed[j] for j in range(n))
        )
        assert outer_nodes(net).tolist() == expected


def test_structure_builds_no_dense_matrix():
    # A dense N x N bool copy of BA(5000, 1) alone is 25 MB.
    edges = generate_barabasi_albert(5000, 1, seed=3).edges()
    tracemalloc.start()
    try:
        net = Network.from_edges(5000, edges)
        outer_nodes(net)
        target_set_layered(net)
        closeness_centrality(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# -- distances and centrality --------------------------------------------------

def test_closeness_p3():
    assert closeness_centrality(path_network(3)).tolist() == [1 / 3, 1 / 2, 1 / 3]


def test_closeness_k3():
    assert closeness_centrality(complete_network(3)).tolist() == [0.5, 0.5, 0.5]


def test_closeness_is_computed_once_and_read_only(monkeypatch):
    import polyanet.graph as graph_mod

    net = path_network(5)
    first = closeness_centrality(net)
    calls = []
    monkeypatch.setattr(graph_mod, "_reach_levels",
                        lambda n: calls.append(n) or pytest.fail("distances recomputed"))
    assert closeness_centrality(net) is first
    assert graph_mod.target_set_dense(net, prune=True).nodes == (1, 3)
    assert calls == []
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0


def test_closeness_p5():
    assert closeness_centrality(path_network(5)).tolist() == [
        1 / 10, 1 / 7, 1 / 6, 1 / 7, 1 / 10]


def test_distances_match_floyd_warshall(rng):
    nets = []
    for _ in range(20):
        n = int(rng.integers(2, 11))
        nets.append(random_connected_network(rng, n, extra_edge_prob=float(rng.random()) * 0.6))
    for n in (63, 64, 65, 127, 128, 129):  # either side of the 64-bit word boundaries
        nets += [path_network(n), star_network(n, center=n // 2),
                 random_connected_network(rng, n, extra_edge_prob=0.02)]
    for net in nets:
        bfs = all_pairs_distances(net)
        fw = floyd_warshall(net.adjacency.astype(float), unweighted=True)
        assert (bfs == fw.astype(np.int64)).all()
        assert (closeness_centrality(net) == 1 / fw.sum(axis=1)).all()


def test_distances_reject_disconnected():
    small = Network.from_edges(4, [(0, 1), (2, 3)], require_connected=False)
    two_paths = Network.from_edges(80, [(i, i + 1) for i in range(79) if i != 39],
                                   require_connected=False)
    for net in (small, two_paths):
        with pytest.raises(DisconnectedGraphError):
            all_pairs_distances(net)
        with pytest.raises(DisconnectedGraphError):
            closeness_centrality(net)


# -- targeting ---------------------------------------------------------------

def test_layered_p5():
    ts = target_set_layered(path_network(5))
    assert ts.nodes == (1, 3)
    assert not ts.absorbed_remainder


def test_layered_complete_graph_absorbs_everything():
    ts = target_set_layered(complete_network(4))
    assert ts.nodes == (0, 1, 2, 3)
    assert ts.absorbed_remainder


def test_layered_star_targets_center():
    ts = target_set_layered(star_network(6, center=2))
    assert ts.nodes == (2,)


def test_dense_p5_insertion_and_prune():
    ts = target_set_dense(path_network(5), prune=False)
    assert ts.insertion_order == (2, 1, 3)
    assert ts.nodes == (1, 2, 3)
    pruned = target_set_dense(path_network(5), prune=True)
    assert pruned.nodes == (1, 3)


def test_dense_complete_graph_single_node():
    assert target_set_dense(complete_network(4)).nodes == (0,)


def test_targeting_covers_every_node(rng):
    for _ in range(25):
        n = int(rng.integers(2, 13))
        net = random_connected_network(rng, n, extra_edge_prob=float(rng.random()) * 0.5)
        for ts in (target_set_layered(net), target_set_dense(net),
                   target_set_dense(net, prune=True)):
            chosen = set(ts.nodes)
            assert all(chosen & set(net.closed_neighbors[i].tolist()) for i in range(n)), (
                ts.source)


def test_layered_avoids_outer_nodes_unless_absorbing(rng):
    for _ in range(25):
        n = int(rng.integers(2, 13))
        net = random_connected_network(rng, n, extra_edge_prob=float(rng.random()) * 0.5)
        ts = target_set_layered(net)
        if not ts.absorbed_remainder:
            assert not set(ts.nodes) & set(outer_nodes(net).tolist())


def test_dense_prune_is_removal_minimal(rng):
    for _ in range(25):
        n = int(rng.integers(2, 13))
        net = random_connected_network(rng, n, extra_edge_prob=float(rng.random()) * 0.5)
        ts = target_set_dense(net, prune=True)
        keep = set(ts.nodes)
        for drop in ts.nodes:
            rest = keep - {drop}
            covered = set()
            for j in rest:
                covered.update(net.closed_neighbors[j].tolist())
            assert covered != set(range(n))


# -- automorphisms -------------------------------------------------------------

def test_cycle_rotation_is_automorphism():
    net = cycle_network(4)
    ok, orbits = verify_automorphism(net, [1, 2, 3, 0])
    assert ok
    assert orbits == [(0, 1, 2, 3)]
    assert permutation_order([1, 2, 3, 0]) == 4


def test_path_reflection_is_automorphism():
    ok, orbits = verify_automorphism(path_network(3), [2, 1, 0])
    assert ok
    assert orbits == [(0, 2), (1,)]
    assert permutation_order([2, 1, 0]) == 2


def test_non_automorphism_detected():
    ok, orbits = verify_automorphism(path_network(3), [1, 0, 2])
    assert not ok
    assert orbits is None


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError, match="not a permutation"):
        verify_automorphism(path_network(3), [0, 0, 1])


def test_permutation_cycles_and_orbit_average():
    cycles = permutation_cycles([1, 0, 3, 4, 2])
    assert cycles == [(0, 1), (2, 3, 4)]
    out = orbit_average([1, 0, 3, 4, 2], [1.0, 3.0, 3.0, 6.0, 0.0])
    assert out.tolist() == [2.0, 2.0, 3.0, 3.0, 3.0]
