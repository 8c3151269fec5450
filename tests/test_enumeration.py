import collections
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
    canonical_labeling,
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
from indtree import canon, enumeration
from indtree.enumeration import TwinClasses, _children, _independent_sets, _leads_its_orbit, _orbit


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
    for n in [*range(1, 10**5 + 1), 10**18]:
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
        tabulate(0)
    with pytest.raises(GraphError):
        tabulate(13)


@pytest.mark.slow
def test_class_count_n11():
    # OEIS A024607, and the emission digest as for n = 8..10 below; the walk
    # takes about 5 s, so it runs only under ``-m slow``
    text = [to_graph6(g) for g in enumerate_connected_triangle_free(11)]
    assert len(text) == 90842
    assert hashlib.sha256(b"\n".join(text)).hexdigest() == (
        "a0e2843432cc806dc5cd9a5ec31687582190d0b09c3174538df4ccb6b0b1b0d7"
    )


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
    assert tabulate(5) == tabulate(5)


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
    10: "c217accc82911f4d5e6a569a0db37e15645e0d6603cf5d42d266696db9907811",
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
    level = [(Graph.from_edge_list(1, []), ())]
    counts = [1]
    for _ in range(8):
        level = [found for g, autos in level for found in _children(g, autos, False)]
        counts.append(len(level))
    assert counts == [1, 2, 3, 7, 14, 38, 107, 410, 1897]


@pytest.mark.parametrize("top", [9, pytest.param(10, marks=pytest.mark.slow)])
def test_level_sets_by_vertex_extension_equal_the_walk(top, enum_cache):
    # a second generator, sharing nothing with the walk but canonical_form:
    # extend every class by a new vertex joined to a nonempty independent
    # set, keep one graph per form. Complete, since a connected graph on two
    # or more vertices has a non-cut vertex, and deleting it leaves a
    # connected triangle-free graph.
    k1 = Graph.from_edge_list(1, [])
    level = {canonical_form(k1).data: k1}
    for n in range(2, top + 1):
        nxt = {}
        for g in level.values():
            independent = [0]
            for v in range(g.n):
                independent += [s | 1 << v for s in independent if not g.adj[v] & s]
            for s in independent[1:]:
                child = Graph(n, tuple(a | (s >> v & 1) << g.n for v, a in enumerate(g.adj)) + (s,))
                nxt.setdefault(canonical_form(child).data, child)
        level = nxt
        assert set(level) == {canonical_form(g).data for g in enum_cache(n)}


def reference_children(g):
    """Children of g by the uncut algorithm: every independent set in
    ``_independent_sets`` order, labeled, kept when rooted canonical forms put
    the new vertex with the last canonical one and its form is new here."""
    new = g.n
    kept, forms = [], set()
    for s in _independent_sets(g):
        child = Graph(new + 1, tuple(a | (s >> v & 1) << new for v, a in enumerate(g.adj)) + (s,))
        form, perm = canonical_labeling(child)
        last = perm.index(new)
        if form.data not in forms and are_rooted_isomorphic(
            RootedGraph(child, new), RootedGraph(child, last)
        ):
            forms.add(form.data)
            kept.append(child)
    return kept


def test_children_match_the_uncut_reference():
    # the degree and last-cell cuts, the orbit skip, the disconnected-child
    # cut and the leaf accepts by degree and by twins change only what is
    # labeled, never what is yielded, at every node up to order 8
    level = [(Graph.from_edge_list(1, []), ())]
    for _ in range(7):
        nxt = []
        for g, autos in level:
            want = reference_children(g)
            found = list(_children(g, autos, False))
            assert [child for child, _ in found] == want
            connected = [child for child, _ in _children(g, autos, True)]
            assert connected == [child for child in want if is_connected(child)]
            nxt += found
        level = nxt
    assert len(level) == 410


def test_bounded_independent_sets_keep_the_unbounded_order():
    # the masks to meet drop partial sets early, yet keep exactly the sets
    # of the full list that meet every mask, in its order, at every parent
    # up to order 8, K1 and the edgeless graphs among them
    level = [(Graph.from_edge_list(1, []), ())]
    parents = edgeless = 0
    for _ in range(8):
        nxt = []
        for g, autos in level:
            every = _independent_sets(g)
            components = enumeration._components(g)
            assert _independent_sets(g, components) == [
                s for s in every if all(s & c for c in components)
            ]
            nxt += _children(g, autos, False)
            parents += 1
            edgeless += not any(g.adj)
        level = nxt
    assert parents == 1 + 2 + 3 + 7 + 14 + 38 + 107 + 410
    assert edgeless == 8  # K1 and the empty graphs on 2..8 vertices


def test_leaf_shortcuts_agree_with_the_full_decision():
    # at the last level _children accepts a candidate without the search
    # when the new vertex alone has the largest degree, or when the finished
    # last cell holds the new vertex and false twins of it only. For every
    # set of at least top vertices at every parent up to order 8 (children
    # up to order 9, disconnected ones too, every set and not one per
    # orbit), each rule that fires gives the full decision: the degree rule
    # puts the new vertex alone in the last cell, and the twin rule puts it
    # with the vertex that an unrooted labeling puts last
    level = [(Graph.from_edge_list(1, []), ())]
    fired = collections.Counter()
    for _ in range(8):
        nxt = []
        for g, autos in level:
            new = g.n
            top = max(a.bit_count() for a in g.adj)
            top_mask = sum(1 << v for v, a in enumerate(g.adj) if a.bit_count() == top)
            for s in _independent_sets(g):
                if s.bit_count() < top:
                    continue  # _children keeps only the sets of at least top vertices
                if s & top_mask and s.bit_count() == top:
                    continue  # rejected by degree before either rule
                rows = tuple(a | (s >> v & 1) << new for v, a in enumerate(g.adj)) + (s,)
                child = Graph(new + 1, rows)
                last = canon._refine(child.adj, [child.full_mask])[-1]
                if s.bit_count() > top + (s & top_mask != 0):
                    assert last == 1 << new
                    fired["degree"] += 1
                elif last >> new & 1 and last != 1 << new and all(
                    g.adj[u] == s for u in range(new) if last >> u & 1
                ):
                    w = canonical_labeling(child)[1].index(new)
                    assert are_rooted_isomorphic(RootedGraph(child, new), RootedGraph(child, w))
                    fired["twins"] += 1
            nxt += _children(g, autos, False)
        level = nxt
    assert fired == {"degree": 3572, "twins": 185}


def test_children_equal_checked_graphs():
    # _children builds its children without Graph's checks; each must be the
    # graph that the checked constructors build from the same rows or edges
    level = [(Graph.from_edge_list(1, []), ())]
    checked = 0
    for _ in range(7):
        nxt = []
        for g, autos in level:
            found = list(_children(g, autos, False))
            for child, _ in found + list(_children(g, autos, True)):
                assert child == Graph(child.n, child.adj)
                assert child == Graph.from_edge_list(child.n, child.edges())
                checked += 1
            nxt += found
        level = nxt
    assert len(level) == 410 and checked > 410


def test_orbit_accept_agrees_with_rooted_isomorphism(monkeypatch):
    # every candidate that is refined or yielded is accepted exactly when an
    # isomorphism maps the new vertex to the one an unrooted labeling puts
    # last; the shortcuts before the search and the search itself each
    # accept and reject, and every vertex the stored automorphisms put in
    # the new vertex's orbit is one that rooted canonical forms put there too
    refine, label, children = enumeration._refine, enumeration.canonical_labeling, enumeration._children
    # keyed by the id of the child's rows; candidates holds every row tuple
    # refined or yielded, so no two of them ever share an id
    candidates, orbits, accepted = {}, {}, set()

    def refining(adj, cells, *args, **kwargs):
        candidates[id(adj)] = adj
        return refine(adj, cells, *args, **kwargs)

    def labeling(child, *, cells):
        form, perm = label(child, cells=cells)
        orbit = _orbit(1 << (child.n - 1), form.automorphisms)
        orbits[id(child.adj)] = [mask.bit_length() - 1 for mask in orbit]
        return form, perm

    def accepting(g, autos, leaves):
        for child, child_autos in children(g, autos, leaves):
            candidates[id(child.adj)] = child.adj  # a degree accept is never refined
            accepted.add(id(child.adj))
            yield child, child_autos

    monkeypatch.setattr(enumeration, "_refine", refining)
    monkeypatch.setattr(enumeration, "canonical_labeling", labeling)
    monkeypatch.setattr(enumeration, "_children", accepting)
    for n in range(1, 10):
        sum(1 for _ in enumerate_connected_triangle_free(n))
    kinds = collections.Counter()
    for adj in candidates.values():
        child = Graph(len(adj), adj)
        new = child.n - 1
        rooted = lambda w: are_rooted_isomorphic(RootedGraph(child, new), RootedGraph(child, w))
        answer = id(adj) in accepted
        assert answer == rooted(label(child)[1].index(new))
        searched = id(adj) in orbits
        if searched:
            assert all(rooted(w) for w in orbits[id(adj)])
        kinds[searched, answer] += 1
    assert len(kinds) == 4, kinds


def test_early_last_cell_gives_the_full_verdict(monkeypatch):
    # _children stops refining once the last cell misses the new vertex or
    # is the new vertex alone; for every candidate it refines up to order 9,
    # that verdict is the one the finished equitable partition gives. An
    # inner candidate left with the new vertex alone finishes the refinement
    # from the cells where it stopped, and reaches the partition that a
    # fresh refinement of the unit partition gives
    refine = enumeration._refine
    verdicts = collections.Counter()
    finishes = collections.Counter()

    def verdict(last, new):
        return "reject" if not last & new else "alone" if last == new else "label"

    def checking(adj, cells, stable=frozenset(), settle=0):
        if not settle:
            assert not stable and cells[-1] == 1 << (len(adj) - 1)
            finished = refine(adj, list(cells))
            assert finished == refine(adj, [(1 << len(adj)) - 1])
            finishes[finished == cells] += 1
            return finished
        early = refine(adj, list(cells), stable, settle)
        full = refine(adj, list(cells), stable)
        assert settle and not full[-1] & ~early[-1]  # the full last cell lies in the early one
        assert verdict(early[-1], settle) == verdict(full[-1], settle)
        verdicts[verdict(full[-1], settle), early == full] += 1
        return early

    monkeypatch.setattr(enumeration, "_refine", checking)
    for n in range(1, 10):
        sum(1 for _ in enumerate_connected_triangle_free(n))
    # a stopped refinement has settled, so it never leaves a label verdict;
    # the other two are reached both by stopped and by finished refinements
    assert set(verdicts) == {(v, done) for v in ("reject", "alone") for done in (False, True)} | {
        ("label", True)
    }
    # some finishing refinements split further, and some find the cells equitable
    assert set(finishes) == {False, True}


def test_labeled_candidates_come_with_their_refinement(monkeypatch):
    # every candidate labeled in the walks up to order 9 is handed to canon
    # with the equitable refinement of its unit partition, where _children
    # left it, and the labeling from those cells is the plain one
    label = enumeration.canonical_labeling
    labeled = 0

    def labeling(child, *, cells):
        nonlocal labeled
        labeled += 1
        assert cells == canon._refine(child.adj, [child.full_mask])
        form, perm = label(child, cells=cells)
        plain, plain_perm = label(child)
        assert (form.data, perm, form.automorphisms) == (plain.data, plain_perm, plain.automorphisms)
        return form, perm

    monkeypatch.setattr(enumeration, "canonical_labeling", labeling)
    for n in range(1, 10):
        sum(1 for _ in enumerate_connected_triangle_free(n))
    assert labeled == 754


# per order: labeling search nodes; the candidate sets of the last level;
# the candidates that the partition rejects; the leaves it accepts, the last
# cell being the new vertex alone; the leaves accepted by degree before any
# refinement; those whose finished last cell is the new vertex and false
# twins of it; the inner candidates whose finished partition has twin
# classes for cells; and the candidates labeled
DECIDED = {7: (194, 219, 24, 8, 29, 7, 28, 51), 8: (649, 931, 140, 55, 122, 19, 77, 165)}


@pytest.mark.parametrize("n, partitions, unsettled", [(7, 118, 79), (8, 456, 242)])
def test_work_per_walk_is_pinned(n, partitions, unsettled):
    # candidates that pass the degree and orbit tests, those of them that
    # reach the equitable partition, those whose place the early last cell
    # leaves unsettled, which the twin cells or canon's search decide, that
    # search's nodes (a twin taken in one step is none) and the candidates
    # that the partition or a leaf shortcut decides
    nodes, sets, rejected, settled, degree, twins, twin_cells, labelings = DECIDED[n]
    starts = dict(enumeration.COUNTERS), dict(canon.COUNTERS)
    sum(1 for _ in enumerate_connected_triangle_free(n))
    walk, search = (
        {k: v - start[k] for k, v in record.items()}
        for record, start in zip((enumeration.COUNTERS, canon.COUNTERS), starts)
    )
    candidates = partitions + degree
    assert walk == {
        "walks": 1, "leaf_sets": sets, "degree": degree, "rejected": rejected, "settled": settled,
        "twins": twins, "twin_cells": twin_cells, "labelings": labelings,
    }
    assert search == {"searches": labelings, "nodes": nodes}
    # the record keeps no sums: each refined candidate is rejected, settled,
    # twins, twin cells or labeled, and each other candidate is accepted by
    # degree
    assert unsettled == twin_cells + labelings
    assert partitions == rejected + settled + twins + twin_cells + labelings
    assert candidates == degree + rejected + settled + twins + twin_cells + labelings


def inner_levels(top):
    """Every node of the augmentation tree below K1 of order at most
    ``top``, with the group ``_children`` gives it, level by level."""
    level = [(Graph.from_edge_list(1, []), ())]
    for _ in range(top):
        yield from level
        level = [found for g, group in level for found in _children(g, group, False)]


def test_twin_cell_rule_agrees_with_canon():
    # an inner candidate whose finished partition has twin classes for cells
    # is accepted, unlabeled, exactly when the new vertex is in the last
    # cell. For every independent set, not one per orbit, at every parent up
    # to order 7, wherever the cells are twin classes that is canon's
    # decision, and every automorphism canon stores keeps each cell
    fired = collections.Counter()
    for g, _ in inner_levels(7):
        new = g.n
        for s in _independent_sets(g):
            child = Graph(new + 1, tuple(a | (s >> v & 1) << new for v, a in enumerate(g.adj)) + (s,))
            cells = canon._refine(child.adj, [child.full_mask])
            if len(cells) != len(set(child.adj)):
                continue
            form, perm = canonical_labeling(child)
            accepted = canon._closure(1 << new, form.automorphisms) >> perm.index(new) & 1
            assert accepted == cells[-1] >> new & 1
            for phi in form.automorphisms:
                assert all(sum(1 << phi[v] for v in range(child.n) if c >> v & 1) == c for c in cells)
            fired[bool(accepted)] += 1
    assert fired == {True: 810, False: 2518}


def test_twin_class_prefix_keeps_one_set_per_orbit():
    # a parent whose group is the product of the symmetric groups on its
    # twin classes tries the sets that meet each class in its lowest
    # vertices: at every such parent up to order 8 those are the sets that
    # the orbit loop tries under the automorphisms canon stores for it, and
    # the children are the ones the stored maps give
    parents = collections.Counter()
    for g, group in inner_levels(8):
        if not isinstance(group, TwinClasses):
            continue
        autos = canonical_labeling(g)[0].automorphisms
        tried, kept = set(), []
        for s in _independent_sets(g):
            if s not in tried:
                tried |= _orbit(s, autos)
                kept.append(s)
        assert [s for s in _independent_sets(g) if _leads_its_orbit(s, group)] == kept
        for leaves in (False, True):
            by_twins = [child for child, _ in _children(g, group, leaves)]
            assert by_twins == [child for child, _ in _children(g, autos, leaves)]
        parents[len(group) > 0] += 1
    assert parents == {True: 245, False: 28}  # twin classes, and none: a trivial group
