import dataclasses
import hashlib
import itertools
import math

import networkx as nx
import pytest

from indtree import (
    Graph,
    GraphError,
    RootedGraph,
    are_rooted_isomorphic,
    build_g_k,
    canonical_form,
    enumerate_connected_triangle_free,
    from_graph6,
    is_connected,
    is_triangle_free,
    max_induced_tree,
    max_induced_tree_through,
    t3_star_formula,
    tabulate,
    to_graph6,
)
from indtree.enumeration import _children


def labeled_filter_classes(n):
    """Independent oracle: canonical forms of all connected triangle-free
    graphs on n labeled vertices, found by scanning every edge subset."""
    pairs = list(itertools.combinations(range(n), 2))
    classes = set()
    for bits in range(1 << len(pairs)):
        g = Graph.from_edge_list(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        if is_triangle_free(g) and is_connected(g):
            classes.add(canonical_form(g).data)
    return classes


def test_formula_values():
    assert [t3_star_formula(n) for n in range(1, 12)] == [1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5]
    assert t3_star_formula(7) == 4  # boundary: 7 = 1 + 3*4/2
    assert t3_star_formula(11) == 5  # exact square case: 8*11-7 = 81
    with pytest.raises(GraphError):
        t3_star_formula(0)


def test_formula_matches_ceiling_expression():
    for n in range(1, 5000):
        assert t3_star_formula(n) == math.ceil((1 + math.sqrt(8 * n - 7)) / 2)


def test_formula_is_smallest_k():
    for n in range(1, 200):
        k = t3_star_formula(n)
        assert n <= 1 + (k - 1) * k // 2
        assert k == 1 or n > 1 + (k - 2) * (k - 1) // 2


def test_counts_match_labeled_filter(enum_cache):
    expected = [1, 1, 1, 3, 6, 19]
    for n in range(1, 7):
        mine = {canonical_form(g).data for g in enum_cache(n)}
        assert len(enum_cache(n)) == len(mine)
        oracle = labeled_filter_classes(n)
        assert mine == oracle
        assert len(mine) == expected[n - 1]


def test_n4_classes_are_p4_star_c4(enum_cache):
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    c4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    got = {canonical_form(g).data for g in enum_cache(4)}
    assert got == {canonical_form(h).data for h in (p4, star, c4)}


def test_no_duplicates_up_to_n9(enum_cache):
    # class counts from OEIS A024607
    for n, count in ((7, 59), (8, 267), (9, 1380)):
        forms = {canonical_form(g).data for g in enum_cache(n)}
        assert len(forms) == len(enum_cache(n)) == count


def test_emitted_graphs_are_connected_triangle_free(enum_cache):
    for n in range(1, 9):
        for g in enum_cache(n):
            assert g.n == n
            assert is_triangle_free(g)
            assert is_connected(g)


def test_emission_is_deterministic():
    a = [g.adj for g in enumerate_connected_triangle_free(6)]
    b = [g.adj for g in enumerate_connected_triangle_free(6)]
    assert a == b


def test_budget_enforced():
    with pytest.raises(GraphError):
        list(enumerate_connected_triangle_free(0))
    with pytest.raises(GraphError):
        list(enumerate_connected_triangle_free(13))
    with pytest.raises(GraphError):
        tabulate(13)


@pytest.mark.slow
def test_class_count_n11():
    # OEIS A024607; the walk took 75 s, so it runs only under ``-m slow``
    assert sum(1 for _ in enumerate_connected_triangle_free(11)) == 90842


def test_tabulate_small_orders():
    rep1 = tabulate(1)
    assert rep1.t3 == rep1.t3_star == 1 and rep1.graphs_seen == 1
    rep4 = tabulate(4)
    assert rep4.n == 4
    assert rep4.graphs_seen == 3
    assert rep4.t3 == 3 and rep4.t3_star == 3
    assert rep4.t3_star_formula == 3


def test_tabulate_extremal_witnesses_reverify():
    rep = tabulate(5)
    assert rep.extremal_rooted and rep.extremal_unrooted
    for g6 in rep.extremal_unrooted:
        g = from_graph6(g6)
        assert is_triangle_free(g) and is_connected(g)
        assert max_induced_tree(g).size == rep.t3
    for g6, v in rep.extremal_rooted:
        g = from_graph6(g6)
        assert max_induced_tree_through(RootedGraph(g, v)).size == rep.t3_star


def test_tabulate_7_extremal_is_the_blown_up_path():
    rep = tabulate(7)
    assert rep.t3_star == 4 == rep.t3_star_formula
    found = [
        (g6, v)
        for g6, v in rep.extremal_rooted
        if are_rooted_isomorphic(RootedGraph(from_graph6(g6), v), build_g_k(4))
    ]
    assert found  # the extremal family member is among the minimizers


def test_tabulate_reports_identical_across_runs():
    a = dataclasses.replace(tabulate(5), elapsed=0.0)
    b = dataclasses.replace(tabulate(5), elapsed=0.0)
    assert a == b


def test_tabulate_invariants_hold(enum_cache):
    for n in (3, 5, 6):
        rep = tabulate(n)
        assert rep.t3_star <= rep.t3
        assert rep.t3_star == rep.t3_star_formula
        assert rep.graphs_seen == len(enum_cache(n))


# sha256 of the emitted graph6 lines, joined by newlines, in emission order;
# the pruning in front of canonical labeling must leave every byte in place
EMISSION_SHA256 = {
    8: "5ac6649e7576058f77cead9c87c762438d670a7c1fbd3c96a92f506095e0ff56",
    9: "bc8de5ca9731dab068ba0e0adb83d6ea40b5f048dc4208fe2693641335b7fbbc",
}


@pytest.mark.parametrize("n", sorted(EMISSION_SHA256))
def test_emission_digest_is_pinned(n, enum_cache):
    text = b"\n".join(to_graph6(g) for g in enum_cache(n))
    assert hashlib.sha256(text).hexdigest() == EMISSION_SHA256[n]


@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")  # only buckets here
def test_no_two_classes_isomorphic_by_networkx(enum_cache):
    buckets = {}
    for g in enum_cache(8):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(G), []).append(G)
    assert sum(map(len, buckets.values())) == 267
    for members in buckets.values():
        for a, b in itertools.combinations(members, 2):
            assert not nx.is_isomorphic(a, b)


def test_children_reach_every_triangle_free_graph():
    # the augmentation tree below K1, disconnected graphs included, holds one
    # graph per class of triangle-free graphs at each order (OEIS A006785)
    level = [Graph.from_edge_list(1, [])]
    counts = [1]
    for _ in range(8):
        level = [child for g in level for child in _children(g)]
        counts.append(len(level))
    assert counts == [1, 2, 3, 7, 14, 38, 107, 410, 1897]
