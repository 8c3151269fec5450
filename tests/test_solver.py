import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indtree import (
    Graph,
    GraphError,
    RootedGraph,
    SearchStats,
    brute_force_t,
    build_g_k,
    build_knn_minus_pm,
    exists_induced_tree_through,
    is_connected,
    is_induced_tree,
    is_triangle_free,
    max_induced_tree,
    max_induced_tree_through,
    rooted_tree_numbers,
    solver,
)
from indtree.graph import vertex_list
from indtree.solver import _search

from helpers import ladder, random_corpus, random_graph, random_triangle_free, to_nx


def c_n(n):
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def test_known_values():
    assert max_induced_tree(c_n(5)).size == 4
    assert brute_force_t(c_n(5)).size == 4
    assert max_induced_tree(build_knn_minus_pm(5)).size == 5
    assert brute_force_t(build_knn_minus_pm(5)).size == 5
    for v in range(4):
        assert max_induced_tree_through(RootedGraph(c_n(4), v)).size == 3
    g5 = build_g_k(5)
    assert max_induced_tree_through(g5).size == 5
    assert brute_force_t(g5.graph, g5.root).size == 5


def test_trees_are_their_own_optimum():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randrange(1, 12)
        # random tree by random parent links
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        g = Graph.from_edge_list(n, edges)
        res = max_induced_tree(g)
        assert res.size == n
        assert res.witness == g.full_mask


def test_single_vertex():
    g = Graph.from_edge_list(1, [])
    assert max_induced_tree(g).size == 1
    assert max_induced_tree_through(RootedGraph(g, 0)).size == 1
    assert brute_force_t(g).size == 1


def test_witnesses_are_valid():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(1, 11)
        g = random_graph(rng, n, 0.35)
        res = max_induced_tree(g)
        assert is_induced_tree(g, res.witness)
        assert res.size == res.witness.bit_count()
        assert res.required_root is None
        v = rng.randrange(n)
        rres = max_induced_tree_through(RootedGraph(g, v))
        assert is_induced_tree(g, rres.witness)
        assert rres.witness >> v & 1
        assert rres.required_root == v
        assert rres.size <= res.size <= n


def test_matches_brute_force_random():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.random() * 0.6)
        assert max_induced_tree(g).size == brute_force_t(g).size
        v = rng.randrange(n)
        assert (
            max_induced_tree_through(RootedGraph(g, v)).size
            == brute_force_t(g, v).size
        )


def test_matches_brute_force_exhaustive_small(enum_cache):
    for n in range(1, 7):
        for g in enum_cache(n):
            assert max_induced_tree(g).size == brute_force_t(g).size
            for v in range(n):
                assert (
                    max_induced_tree_through(RootedGraph(g, v)).size
                    == brute_force_t(g, v).size
                )


def assert_oracle_witness(g, root=None):
    """brute_force_t's witness, checked by networkx rather than by indtree."""
    res = brute_force_t(g, root)
    verts = res.witness_vertices
    assert len(verts) == res.size
    assert root is None or root in verts
    assert nx.is_tree(to_nx(g).subgraph(verts))
    return res


def test_oracle_witnesses_are_trees_by_networkx(enum_cache):
    for n in range(1, 8):
        for g in enum_cache(n):
            assert_oracle_witness(g)
            for v in range(n):
                assert_oracle_witness(g, v)
    # edgeless: every tree is a single vertex, so the answer is the root alone
    for n in range(1, 7):
        g = Graph.from_edge_list(n, [])
        for v in range(n):
            res = assert_oracle_witness(g, v)
            assert (res.size, res.witness) == (1, 1 << v)
    rng = random.Random(25)
    for _ in range(40):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.random() * 0.6)
        assert_oracle_witness(g)
        for v in range(n):
            assert_oracle_witness(g, v)


def all_roots_subset_scan(g):
    """t(G, v) for every root, from one scan of the 2^n vertex subsets that
    uses only is_induced_tree. A subset is tested only if some vertex in it
    has no tree of that size or larger yet; a tree found lifts all of its
    vertices to its size."""
    n = g.n
    short = [g.full_mask] * (n + 1)  # short[k]: the vertices with no tree of >= k vertices yet
    for s in range(1, 1 << n):
        k = s.bit_count()
        if s & short[k] and is_induced_tree(g, s):
            for j in range(1, k + 1):
                short[j] &= ~s
    return [sum(not short[k] >> v & 1 for k in range(1, n + 1)) for v in range(n)]


@pytest.mark.parametrize("n, roots", [(9, 12420), pytest.param(10, 98320, marks=pytest.mark.slow)])
def test_all_roots_subset_scan_matches_the_census(n, roots, enum_cache):
    # an oracle that shares nothing with the search but the predicate, at
    # every root of the census
    checked = 0
    for g in enum_cache(n):
        sizes = all_roots_subset_scan(g)
        assert sizes == [max_induced_tree_through(RootedGraph(g, v)).size for v in range(n)]
        # and the census's floored searches, with each witness a tree of the
        # size through its root
        numbers = rooted_tree_numbers(g)
        assert [r.size for r in numbers] == sizes
        for v, r in enumerate(numbers):
            assert r.required_root == v and r.witness >> v & 1
            assert r.witness.bit_count() == r.size and is_induced_tree(g, r.witness)
        checked += n
    assert checked == roots


def test_refutations_above_t_hold_by_subset_scan():
    # the bench's random(16..18) graphs are past the reach of the other
    # oracles; there, at one seeded root v per graph, no (t + 1)-subset
    # through v induces a tree, and exists at t + 1 says so. Exact size is
    # enough: a larger tree through v sheds leaves other than v down to t + 1.
    rng = random.Random(2)
    for g in random_corpus(16, 18)[:8]:
        v = rng.randrange(g.n)
        rg = RootedGraph(g, v)
        t = max_induced_tree_through(rg).size
        others = [u for u in range(g.n) if u != v]
        assert not any(
            is_induced_tree(g, sum(1 << u for u in s) | 1 << v)
            for s in itertools.combinations(others, t)
        )
        assert not exists_induced_tree_through(rg, t + 1)


def test_t_equals_n_iff_tree(enum_cache):
    for n in range(1, 7):
        for g in enum_cache(n):
            is_tree = g.edge_count == n - 1
            assert (max_induced_tree(g).size == n) == is_tree


def test_exists_variant():
    g5 = build_g_k(5)
    assert exists_induced_tree_through(g5, 1)
    assert exists_induced_tree_through(g5, 5)
    assert not exists_induced_tree_through(g5, 6)
    assert not exists_induced_tree_through(g5, 12)  # above n
    with pytest.raises(GraphError):
        exists_induced_tree_through(g5, 0)


@pytest.mark.parametrize(
    "witness",
    [0b01011, 0b01110],  # {0, 1, 3} is no tree of C5; {1, 2, 3} misses the root 0
)
def test_exists_checks_the_tree_it_stops_at(witness, monkeypatch):
    rg = RootedGraph(c_n(5), 0)
    monkeypatch.setattr("indtree.solver._search", lambda g, root, stop_at: (3, witness, SearchStats(1, 0)))
    with pytest.raises(AssertionError):
        exists_induced_tree_through(rg, 3)
    # a refutation has no tree to check
    monkeypatch.setattr("indtree.solver._search", lambda g, root, stop_at: (2, witness, SearchStats(1, 0)))
    assert not exists_induced_tree_through(rg, 3)


def test_exists_agrees_with_sizes():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, 0.4)
        v = rng.randrange(n)
        t = brute_force_t(g, v).size
        rg = RootedGraph(g, v)
        assert exists_induced_tree_through(rg, t)
        assert not exists_induced_tree_through(rg, t + 1)


def test_stop_at_returns_nothing_on_a_miss():
    # under stop_at only trees of that size count: a miss returns size 0 and
    # the empty set, a hit the first tree of that size through the root. At
    # stop_at = t(G, v) that first tree is the unfloored search's witness:
    # the floor t - 1 is below t, and the first tree past it is a largest one
    rng = random.Random(16)
    for _ in range(100):
        n = rng.randrange(1, 11)
        g = random_graph(rng, n, 0.4)
        v = rng.randrange(n)
        t = brute_force_t(g, v).size
        assert _search(g, v, stop_at=t + 1)[:2] == (0, 0)
        size, witness, _ = _search(g, v, stop_at=t)
        assert size == witness.bit_count() == t
        assert is_induced_tree(g, witness) and witness >> v & 1
        assert (size, witness) == _search(g, v)[:2]


def test_deterministic():
    g = Graph.from_edge_list(
        8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (1, 5)]
    )
    assert max_induced_tree(g) == max_induced_tree(g)
    assert max_induced_tree_through(RootedGraph(g, 3)) == max_induced_tree_through(
        RootedGraph(g, 3)
    )


def test_every_entry_point_counts_its_calls_and_search_in_the_record():
    # each call adds (1, nodes, prunings) of its search under its own kind and
    # leaves the other six fields as they are; max_induced_tree is one call
    # however many roots it searches
    def counted(call):
        start = dict(solver.COUNTERS)
        result = call()
        return result, {k: solver.COUNTERS[k] - v for k, v in start.items()}

    def record(kind, stats):
        want = dict.fromkeys(solver.COUNTERS, 0)
        want.update({kind + "_calls": 1, kind + "_nodes": stats.nodes, kind + "_prunings": stats.prunings})
        return want

    assert set(solver.COUNTERS) == {
        f"{kind}_{field}" for kind in ("rooted", "unrooted", "exists") for field in ("calls", "nodes", "prunings")
    }
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random() * 0.6)
        r, difference = counted(lambda: max_induced_tree(g))
        assert difference == record("unrooted", r.stats)
        for v in range(n):
            rg = RootedGraph(g, v)
            r, difference = counted(lambda: max_induced_tree_through(rg))
            assert difference == record("rooted", r.stats)
            for target in (r.size, r.size + 1):  # a hit that stops early, and a refutation
                _, difference = counted(lambda: exists_induced_tree_through(rg, target))
                assert difference == record("exists", _search(g, v, stop_at=target)[2])


def test_search_stats_populated():
    res = max_induced_tree(build_knn_minus_pm(5))
    assert res.stats.nodes > 0
    assert res.stats.prunings > 0
    assert max_induced_tree_through(build_g_k(4)).stats.nodes > 0


def test_witness_vertices_sorted():
    res = max_induced_tree(c_n(5))
    assert list(res.witness_vertices) == sorted(res.witness_vertices)
    assert len(res.witness_vertices) == res.size


def test_rooted_bound_consistency():
    # with k = t(G, v), n never exceeds 1 + (k-1)k/2 on triangle-free inputs
    rng = random.Random(12)
    checked = 0
    while checked < 100:
        n = rng.randrange(2, 11)
        g = random_graph(rng, n, 0.25)
        if not (is_triangle_free(g) and is_connected(g)):
            continue
        v = rng.randrange(n)
        k = max_induced_tree_through(RootedGraph(g, v)).size
        assert n <= 1 + (k - 1) * k // 2
        checked += 1


def test_guards():
    with pytest.raises(GraphError):
        max_induced_tree(Graph.from_edge_list(0, []))
    with pytest.raises(GraphError):
        brute_force_t(Graph.from_edge_list(0, []))
    with pytest.raises(GraphError):
        brute_force_t(Graph.from_edge_list(21, []))
    with pytest.raises(GraphError):
        brute_force_t(Graph.from_edge_list(3, []), 3)


def path(n):
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def test_long_path_unrooted():
    # deeper than Python's recursion limit: the search keeps its own stack
    assert max_induced_tree(path(5000)).size == 5000


def test_long_path_rooted_in_the_middle():
    assert max_induced_tree_through(RootedGraph(path(5000), 2500)).size == 5000


def test_long_cycle_rooted():
    # the reach bound prunes a cycle at once
    assert max_induced_tree_through(RootedGraph(c_n(2000), 0)).size == 1999


@pytest.mark.parametrize("k, size, node_cap", [(24, 36, 180), (200, 300, 7500)])
def test_ladder_rooted_at_a_corner_takes_few_nodes(k, size, node_cap):
    # every rung closes a cycle that the tree must break, which the bound
    # counts; the caps sit a little above the 159 and 7,199 nodes measured
    # with the one-level degree count
    r = max_induced_tree_through(RootedGraph(ladder(k), k))
    assert r.size == size
    assert r.stats.nodes <= node_cap


@pytest.mark.parametrize("k, node_cap", [(24, 120), (200, 4000)])
def test_ladder_search_is_halved_by_the_degree_profile(k, node_cap):
    # the two-level degree profile and forced leaves took the ladder searches
    # above down to 107 and 3,833 nodes, and the caps sit a little above
    # those; branching on the fewest new frontier vertices now takes 71 and 599
    r = max_induced_tree_through(RootedGraph(ladder(k), k))
    assert r.stats.nodes <= node_cap


def test_ladder_search_follows_the_fewest_new_frontier_vertices():
    # branching on the frontier vertex that opens the fewest new frontier
    # vertices walks the ladder rung by rung: 599 nodes, against 3,833 when
    # branching on the one with the most undecided neighbours; the cap sits
    # a little above 599
    r = max_induced_tree_through(RootedGraph(ladder(200), 200))
    assert r.size == 300 and r.stats.nodes <= 650


def test_triangle_free_corpus_on_16_to_18_vertices_takes_few_nodes():
    # the rooted search and the refutation at t(G, v) + 1 at every root of
    # 24 seeded connected triangle-free graphs, a spanning tree plus n..2n
    # edges each: 17,418 + 7,816 = 25,234 nodes with the fewest-new pick,
    # against 28,914 + 10,038 = 38,952 with the most undecided neighbours;
    # the cap sits a little above 25,234
    rng = random.Random(21)
    nodes = 0
    for i in range(24):
        n = 16 + i % 3
        g = random_triangle_free(rng, n, rng.randint(n, 2 * n))
        assert is_triangle_free(g) and is_connected(g)
        for v in range(n):
            size, _, rooted = _search(g, v)
            refuted = _search(g, v, stop_at=size + 1)[2]
            nodes += rooted.nodes + refuted.nodes
    assert nodes <= 26500


def test_forced_leaves_are_taken_without_branching():
    # a frontier vertex with no undecided neighbour joins the tree at once:
    # a star rooted at a leaf is one branch on the centre, after which every
    # other leaf is forced; branching on each would take 2,001 nodes
    star = Graph.from_edge_list(1001, [(0, i) for i in range(1, 1001)])
    r = max_induced_tree_through(RootedGraph(star, 1))
    assert r.size == 1001 and r.stats.nodes <= 5
    # a spine of 50 vertices with 5 leaves on each, rooted at a spine end:
    # 99 nodes, against 599 when the leaves are branched on
    edges = [(i, i + 1) for i in range(49)]
    edges += [(i, 50 + 5 * i + j) for i in range(50) for j in range(5)]
    caterpillar = Graph.from_edge_list(300, edges)
    r = max_induced_tree_through(RootedGraph(caterpillar, 0))
    assert r.size == 300 and r.stats.nodes <= 120


def test_floor_keeps_the_witness_or_returns_nothing():
    # a floor below t(G, v) only lowers the starting bar, which leaves every
    # ancestor of the first largest tree unpruned; at or above t there is no
    # tree to find
    rng = random.Random(17)
    triangles = disconnected = 0
    for _ in range(60):
        n = rng.randint(1, 13)
        g = random_graph(rng, n, rng.random() * 0.6)
        triangles += not is_triangle_free(g)
        disconnected += not is_connected(g)
        for v in range(n):
            for forbidden in (0, (1 << v) - 1):
                size, witness, _ = _search(g, v, forbidden)
                for b in range(n + 1):
                    found = _search(g, v, forbidden, floor=b)[:2]
                    assert found == ((size, witness) if b < size else (0, 0)), (g.adj, v, b)
    assert triangles >= 10 and disconnected >= 10


def test_a_known_tree_keeps_every_size_on_the_census(enum_cache):
    # at every root v of the n <= 8 census, floored by each other root's
    # witness that holds v: the size is t(G, v), the witness the unfloored
    # one when it is larger than the known tree, and the known tree itself
    # when nothing larger exists
    floored = 0
    for n in range(1, 9):
        for g in enum_cache(n):
            plain = [max_induced_tree_through(RootedGraph(g, v)) for v in range(n)]
            for v, base in enumerate(plain):
                for u, other in enumerate(plain):
                    known = other.witness
                    if u == v or not known >> v & 1:
                        continue
                    r = max_induced_tree_through(RootedGraph(g, v), known)
                    assert r.size == base.size and r.required_root == v
                    assert is_induced_tree(g, r.witness) and r.witness >> v & 1
                    assert r.witness == (known if known.bit_count() == base.size else base.witness)
                    floored += 1
    assert floored > 1000


def test_a_known_tree_below_t_returns_the_unfloored_witness():
    # shed leaves other than the root from the unfloored witness, down to
    # the root alone: each smaller tree as ``known`` finds that witness again
    rng = random.Random(26)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random() * 0.6)
        for v in range(n):
            rg = RootedGraph(g, v)
            base = max_induced_tree_through(rg)
            known = base.witness
            while known != 1 << v:
                leaf = next(
                    u for u in vertex_list(known)
                    if u != v and (g.adj[u] & known).bit_count() == 1
                )
                known ^= 1 << leaf
                r = max_induced_tree_through(rg, known)
                assert (r.size, r.witness) == (base.size, base.witness)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "known",
    [
        0b11111,  # the whole 5-cycle: not acyclic
        0b00101,  # {0, 2}: not connected
        0b01110,  # {1, 2, 3}: a path that misses the root 0
        0b100011,  # {0, 1, 5}: vertex 5 is outside the graph
    ],
)
def test_a_known_set_that_is_no_tree_through_the_root_is_refused(known, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr("indtree.solver._search", no_search)
    with pytest.raises(GraphError):
        max_induced_tree_through(RootedGraph(c_n(5), 0), known)


def test_rooted_tree_numbers_match_brute_force_on_the_pinned_corpus():
    for g in pinned_corpus():
        numbers = rooted_tree_numbers(g)
        assert [r.required_root for r in numbers] == list(range(g.n))
        assert [r.size for r in numbers] == [brute_force_t(g, v).size for v in range(g.n)]


def test_rooted_tree_numbers_make_one_rooted_call_per_root(monkeypatch):
    # through the module's name, each floored by the largest witness so far
    # that holds its root
    real = max_induced_tree_through
    calls = []

    def spy(rg, known=0):
        calls.append((rg.root, known))
        return real(rg, known)

    monkeypatch.setattr("indtree.solver.max_induced_tree_through", spy)
    g = ladder(4)
    numbers = rooted_tree_numbers(g)
    assert [root for root, _ in calls] == list(range(g.n))
    for v, known in calls:
        earlier = [r.witness for r in numbers[:v] if r.witness >> v & 1]
        assert known.bit_count() == max(map(int.bit_count, earlier), default=0)


def test_every_exhaustive_search_counts_two_children_per_branch():
    # every node either branches in two or is pruned, so a search that runs
    # to the end has nodes == 2 * prunings - 1
    rng = random.Random(15)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.random() * 0.6)
        for v in range(n):
            size, _, rooted = _search(g, v)
            per_root = _search(g, v, (1 << v) - 1)[2]  # as max_induced_tree runs it
            refuted = _search(g, v, stop_at=size + 1)[2]  # never stops early
            for stats in (rooted, per_root, refuted):
                assert stats.nodes == 2 * stats.prunings - 1, (g.adj, v, stats)
                checked += 1
    assert checked > 2000


@st.composite
def graphs_with_root(draw):
    n = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = draw(st.integers(0, len(pairs)))
    edges = draw(st.permutations(pairs))[:m]
    return Graph.from_edge_list(n, edges), draw(st.integers(0, n - 1))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graphs_with_root())
@example((Graph.from_edge_list(4, [(0, 1), (1, 2), (0, 2)]), 3))  # triangle + isolated
@example((Graph.from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]), 4))
def test_matches_oracle_on_arbitrary_graphs(case):
    g, v = case
    res = max_induced_tree(g)
    assert res.size == brute_force_t(g).size
    assert is_induced_tree(g, res.witness)
    rg = RootedGraph(g, v)
    rres = max_induced_tree_through(rg)
    t = brute_force_t(g, v).size
    assert rres.size == t
    assert is_induced_tree(g, rres.witness) and rres.witness >> v & 1
    for k in range(1, g.n + 2):
        assert exists_induced_tree_through(rg, k) == (k <= t)
    assert max(max_induced_tree_through(RootedGraph(g, u)).size for u in range(g.n)) == res.size


def pinned_corpus():
    """80 seeded random graphs on 1..16 vertices, at least 10 of them with a
    triangle and at least 10 disconnected."""
    rng = random.Random(14)
    gs = []
    for _ in range(80):
        n = rng.randint(1, 16)
        gs.append(random_graph(rng, n, rng.random() * 0.6))
    assert sum(not is_triangle_free(g) for g in gs) >= 10
    assert sum(not is_connected(g) for g in gs) >= 10
    return gs


def pinned_corpus_digests():
    """sha256 of the values, of the witnesses and of the counters of every
    search on pinned_corpus: the size of each max_induced_tree and
    max_induced_tree_through call plus both exists answers per root, the
    witness of each of those calls, and (nodes, prunings) of each call."""
    values = hashlib.sha256()
    witnesses = hashlib.sha256()
    counters = hashlib.sha256()
    for g in pinned_corpus():
        n = g.n
        res = max_induced_tree(g)
        values.update(repr((res.size,)).encode())
        witnesses.update(repr((res.witness,)).encode())
        counters.update(repr((res.stats.nodes, res.stats.prunings)).encode())
        for v in range(n):
            rg = RootedGraph(g, v)
            r = max_induced_tree_through(rg)
            found = exists_induced_tree_through(rg, r.size)
            larger = exists_induced_tree_through(rg, r.size + 1)
            values.update(repr((r.size, found, larger)).encode())
            witnesses.update(repr((r.witness,)).encode())
            counters.update(repr((r.stats.nodes, r.stats.prunings)).encode())
    return values.hexdigest(), witnesses.hexdigest(), counters.hexdigest()


def test_search_values_are_pinned():
    # every size and exists answer is exact, so no change to the pick rule,
    # the bound or the visit order may move this digest
    values, _, _ = pinned_corpus_digests()
    assert values == "7043c39cd3e3a781d7e1ab59aba6cab10984b23974b5931f37804af09c54ee37"


def test_search_witnesses_are_pinned():
    # the witness is the first largest tree the search reaches, so it moves
    # with the pick rule and the visit order; a bound that prunes more cuts
    # only subtrees that hold no tree above the bar and must leave it
    _, witnesses, _ = pinned_corpus_digests()
    assert witnesses == "aa60d25afc090832238e945b72f789420a323af055f7345dd8ed82548130436b"


def test_search_counters_are_pinned():
    # nodes and prunings depend on the bound too: a faster search that walks
    # the same tree keeps this digest, a stronger bound re-pins it
    _, _, counters = pinned_corpus_digests()
    assert counters == "6ef5920796fb56539439b561be2206217e91e7f0cddadf0baf66ca8ec6e4f329"
