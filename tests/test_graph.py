import random
import time
import tracemalloc

import networkx as nx
import pytest

from indtree import (
    Graph,
    GraphError,
    RootedGraph,
    build_b_k,
    build_g_k,
    canonical_form,
    closed_neighborhood,
    diameter,
    is_connected,
    is_induced_tree,
    is_triangle_free,
)
from indtree.graph import bits, vertex_list

from helpers import random_graph, to_nx


def test_bitmask_helpers():
    assert vertex_list(0b101001) == [0, 3, 5]
    assert list(bits(0b1101)) == [0, 2, 3]
    assert list(bits(0)) == []


def test_from_edge_list_basic():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (1, 2), (2, 0)])
    assert g.n == 4
    assert g.edge_count == 3  # duplicate edge collapsed
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 3)
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph.from_edge_list(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph.from_edge_list(3, [(-1, 0)])
    with pytest.raises(GraphError):
        Graph.from_edge_list(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph.from_edge_list(-1, [])


@pytest.mark.parametrize(
    "n, rows, match",
    [
        (3, [0b010, 0b001], "expected 3 adjacency rows, got 2"),
        (2, [0b110, 0b001], "row 0 has bits outside 0..1"),
        (2, [-1, 0], "row 0 has bits outside 0..1"),
        (2, [0b000, 0b010], "self-loop at vertex 1"),
        (3, [0b010, 0b000, 0b000], r"asymmetric edge \(0, 1\)"),
    ],
)
def test_graph_rejects_bad_rows(n, rows, match):
    with pytest.raises(GraphError, match=match):
        Graph(n, rows)


@pytest.mark.parametrize("n, cause", [(1 << 61, MemoryError), (1 << 63, OverflowError)])
def test_from_edge_list_refuses_an_unallocatable_order_before_allocating(n, cause):
    # 2^61 rows of 8-byte pointers overflow the list size check; 2^63 does
    # not fit a Py_ssize_t
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="cannot allocate") as exc:
            Graph.from_edge_list(n, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(exc.value.__context__, cause)
    assert peak < 1 << 16


def test_graph_is_never_equal_to_a_non_graph():
    g = Graph.from_edge_list(2, [(0, 1)])
    assert g.__eq__(5) is NotImplemented
    assert not g == 5
    assert g != 5


def test_rooted_graph_validates_root():
    g = Graph.from_edge_list(2, [(0, 1)])
    assert RootedGraph(g, 1).root == 1
    with pytest.raises(GraphError):
        RootedGraph(g, 2)
    with pytest.raises(GraphError):
        RootedGraph(g, -1)


def test_graph_equality_and_hash():
    a = Graph.from_edge_list(3, [(0, 1)])
    b = Graph.from_edge_list(3, [(0, 1)])
    c = Graph.from_edge_list(3, [(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_triangle_free_known_cases():
    c5 = Graph.from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])
    k3 = Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert is_triangle_free(c5)
    assert not is_triangle_free(k3)
    assert is_triangle_free(Graph.from_edge_list(1, []))


def test_connected_known_cases():
    assert is_connected(Graph.from_edge_list(1, []))
    assert not is_connected(Graph.from_edge_list(2, []))
    assert is_connected(build_g_k(6).graph)


def test_predicates_match_networkx():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randrange(1, 12)
        g = random_graph(rng, n, rng.random())
        G = to_nx(g)
        assert is_connected(g) == nx.is_connected(G)
        assert is_triangle_free(g) == (sum(nx.triangles(G).values()) == 0)
        if nx.is_connected(G):
            assert diameter(g) == nx.diameter(G)


def test_diameter_known_cases():
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert diameter(p4) == 3
    assert diameter(Graph.from_edge_list(1, [])) == 0
    assert diameter(build_b_k(5)) == 4


def test_diameter_rejects_disconnected_and_empty():
    with pytest.raises(GraphError):
        diameter(Graph.from_edge_list(2, []))
    with pytest.raises(GraphError):
        diameter(Graph.from_edge_list(0, []))


def test_closed_neighborhood():
    p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert closed_neighborhood(p3, 1) == 0b111
    assert closed_neighborhood(p3, 0) == 0b011
    c5 = Graph.from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])
    assert closed_neighborhood(c5, 2).bit_count() == 3
    g5 = build_g_k(5)
    # root plus the size-4 second class
    assert closed_neighborhood(g5.graph, g5.root).bit_count() == 5
    with pytest.raises(GraphError):
        closed_neighborhood(p3, 3)


@pytest.mark.parametrize(
    "call, what, has",
    [
        (lambda n: RootedGraph(Graph(n, [0] * n), n), "root {n}", ""),
        (lambda n: canonical_form(Graph(n, [0] * n), n), "root {n}", ""),
        (lambda n: closed_neighborhood(Graph(n, [0] * n), n), "vertex {n}", ""),
        (lambda n: Graph.from_edge_list(n, [(0, n + 1)]), "edge (0, {m})", " has an endpoint"),
    ],
)
def test_range_errors_name_the_range_or_say_there_is_none(call, what, has):
    # the index n is outside 0..n-1 at every n; at n = 0 that range is
    # empty, so the message says the graph has no vertices rather than 0..-1
    for n, tail in [(0, ": the graph has no vertices"), (2, f"{has} outside 0..1")]:
        with pytest.raises(GraphError) as exc:
            call(n)
        assert str(exc.value) == what.format(n=n, m=n + 1) + tail


def test_is_induced_tree_explicit():
    # C5 with a chord between 0 and 2
    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert is_induced_tree(g, 0b01110)  # {1, 2, 3}
    assert not is_induced_tree(g, 0b00111)  # {0, 1, 2}, a triangle
    assert not is_induced_tree(g, 0b01010)  # {1, 3}, disconnected
    assert is_induced_tree(g, 0b10000)  # {4}
    assert not is_induced_tree(g, 0)
    with pytest.raises(GraphError):
        is_induced_tree(g, 1 << 5)


def test_is_induced_tree_matches_networkx():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, 0.4)
        G = to_nx(g)
        s = rng.randrange(1, 1 << n)
        sub = G.subgraph(vertex_list(s))
        assert is_induced_tree(g, s) == nx.is_tree(sub)


def two_pass_is_induced_tree(g, s):
    """The predicate as two passes: the degrees inside s sum to 2(|s| - 1),
    and s is connected."""
    if s == 0:
        return False
    degree_sum = sum((g.adj[v] & s).bit_count() for v in vertex_list(s))
    seen = frontier = s & -s
    while frontier:
        nxt = 0
        for v in vertex_list(frontier):
            nxt |= g.adj[v]
        frontier = nxt & s & ~seen
        seen |= frontier
    return degree_sum == 2 * (s.bit_count() - 1) and seen == s


def test_is_induced_tree_matches_networkx_and_two_passes():
    # seeded sets of every kind: empty, single, disconnected, cyclic, trees,
    # on graphs with and without triangles
    rng = random.Random(19)
    kinds = {"empty": 0, "tree": 0, "disconnected": 0, "cyclic": 0}
    for _ in range(2000):
        n = rng.randrange(1, 15)
        g = random_graph(rng, n, rng.random() * 0.5)
        s = rng.randrange(1 << n)
        if rng.random() < 0.5:
            s &= rng.randrange(1 << n)  # sparser sets, more of them trees
        sub = to_nx(g).subgraph(vertex_list(s))
        if not s:
            expected = False
            kinds["empty"] += 1
        else:
            expected = nx.is_tree(sub)
            if expected:
                kinds["tree"] += 1
            elif not nx.is_connected(sub):
                kinds["disconnected"] += 1
            else:
                kinds["cyclic"] += 1
        assert is_induced_tree(g, s) == expected == two_pass_is_induced_tree(g, s), (g.adj, s)
        with pytest.raises(GraphError):
            is_induced_tree(g, s | 1 << n + rng.randrange(3))
    assert min(kinds.values()) >= 20, kinds


def test_is_induced_tree_all_subsets_small(enum_cache):
    # every subset of every connected triangle-free graph up to n=6,
    # against the connected-and-acyclic definition
    for n in range(1, 7):
        for g in enum_cache(n):
            G = to_nx(g)
            for s in range(1, 1 << n):
                sub = G.subgraph(vertex_list(s))
                assert is_induced_tree(g, s) == nx.is_tree(sub)


def test_c5_minus_any_vertex_is_a_path():
    c5 = Graph.from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])
    full = (1 << 5) - 1
    for v in range(5):
        assert is_induced_tree(c5, full & ~(1 << v))
    assert not is_induced_tree(c5, full)


def test_edgeless_million_vertex_graph_builds_in_linear_time():
    # validation once rebuilt an n-bit mask for every row: 102 s at 10**6
    start = time.perf_counter()
    g = Graph.from_edge_list(10**6, [])
    assert g.n == 10**6 and g.edge_count == 0
    assert time.perf_counter() - start < 30
