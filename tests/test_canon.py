import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indtree import (
    Graph,
    GraphError,
    RootedGraph,
    are_rooted_isomorphic,
    canonical_form,
    canonical_labeling,
)
from indtree.canon import _refine, last_cell
from indtree.graph import bits


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def relabel(g, perm):
    return Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edge_list(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def test_invariant_under_relabeling():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.random())
        f = canonical_form(g).data
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)).data == f


def test_partition_matches_isomorphism_exhaustive_n4():
    # 64 labeled graphs fall into the 11 unlabeled classes on 4 vertices
    graphs = list(all_labeled_graphs(4))
    by_form = {}
    for g in graphs:
        by_form.setdefault(canonical_form(g).data, []).append(g)
    assert len(by_form) == 11
    for members in by_form.values():
        G0 = to_nx(members[0])
        for g in members[1:]:
            assert nx.is_isomorphic(G0, to_nx(g))
    reps = [to_nx(m[0]) for m in by_form.values()]
    for a, b in itertools.combinations(reps, 2):
        assert not nx.is_isomorphic(a, b)


def brute_force_isomorphic(a, b):
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if sorted(a.degree(v) for v in range(a.n)) != sorted(b.degree(v) for v in range(b.n)):
        return False
    edges = a.edges()
    for perm in itertools.permutations(range(a.n)):
        if all(b.has_edge(perm[u], perm[v]) for u, v in edges):
            return True
    return False


def brute_force_rooted_isomorphic(a, ra, b, rb):
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    edges = a.edges()
    for perm in itertools.permutations(range(a.n)):
        if perm[ra] == rb and all(b.has_edge(perm[u], perm[v]) for u, v in edges):
            return True
    return False


def test_separates_all_connected_graphs_up_to_n6():
    # group every labeled connected graph by canonical form, then confirm
    # with raw permutation search that the grouping is exactly isomorphism
    for n in range(1, 7):
        by_form = {}
        for g in all_labeled_graphs(n):
            if nx.is_connected(to_nx(g)):
                by_form.setdefault(canonical_form(g).data, []).append(g)
        reps = [members[0] for members in by_form.values()]
        for a, b in itertools.combinations(reps, 2):
            assert not brute_force_isomorphic(a, b)
        for members in by_form.values():
            if len(members) > 1:
                assert brute_force_isomorphic(members[0], members[-1])


def test_rooted_matches_permutation_search_n_up_to_7():
    rng = random.Random(7)
    agree = 0
    while agree < 60:
        n = rng.randrange(2, 8)
        a = random_graph(rng, n, 0.4)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            b = relabel(a, perm)
        else:
            b = random_graph(rng, n, 0.4)
        ra, rb = rng.randrange(n), rng.randrange(n)
        want = brute_force_rooted_isomorphic(a, ra, b, rb)
        got = are_rooted_isomorphic(RootedGraph(a, ra), RootedGraph(b, rb))
        assert got == want
        # symmetry and reflexivity
        assert are_rooted_isomorphic(RootedGraph(b, rb), RootedGraph(a, ra)) == got
        assert are_rooted_isomorphic(RootedGraph(a, ra), RootedGraph(a, ra))
        agree += 1


def test_distinguishes_nonisomorphic_random_pairs():
    rng = random.Random(2)
    tried = 0
    while tried < 100:
        n = rng.randrange(4, 9)
        a = random_graph(rng, n, 0.4)
        b = random_graph(rng, n, 0.4)
        iso = nx.is_isomorphic(to_nx(a), to_nx(b))
        assert (canonical_form(a).data == canonical_form(b).data) == iso
        tried += 1


def test_labeling_achieves_the_form():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, 0.4)
        form, perm = canonical_labeling(g)
        assert sorted(perm) == list(range(n))
        assert canonical_form(relabel(g, list(perm))).data == form.data


def test_labelings_compose_to_isomorphism():
    # mapping vertices of a through canonical positions of b is an isomorphism
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randrange(2, 9)
        a = random_graph(rng, n, 0.5)
        perm = list(range(n))
        rng.shuffle(perm)
        b = relabel(a, perm)
        _, pa = canonical_labeling(a)
        _, pb = canonical_labeling(b)
        inv_pb = [0] * n
        for v, pos in enumerate(pb):
            inv_pb[pos] = v
        phi = [inv_pb[pa[v]] for v in range(n)]
        for u, v in a.edges():
            assert b.has_edge(phi[u], phi[v])
        assert a.edge_count == b.edge_count


def test_symmetric_graphs():
    empty = Graph.from_edge_list(8, [])
    k8 = Graph.from_edge_list(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    assert canonical_form(empty).data != canonical_form(k8).data
    pet = nx.petersen_graph()
    g = Graph.from_edge_list(10, list(pet.edges()))
    f = canonical_form(g).data
    rng = random.Random(5)
    for _ in range(20):
        perm = list(range(10))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)).data == f


def test_sizes_never_collide():
    assert canonical_form(Graph.from_edge_list(0, [])).data != canonical_form(
        Graph.from_edge_list(1, [])
    ).data


def test_colors_refine_classes():
    p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    uncolored = canonical_form(p3)
    center = canonical_form(p3, (0, 1, 0))
    leaf = canonical_form(p3, (1, 0, 0))
    other_leaf = canonical_form(p3, (0, 0, 1))
    assert center.data != leaf.data
    assert leaf.data == other_leaf.data
    assert uncolored.data != center.data  # color multiset is part of the form
    with pytest.raises(GraphError):
        canonical_form(p3, (0, 1))


def test_color_values_matter_only_by_order():
    p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert canonical_form(p3, (0, 5, 0)).data != canonical_form(p3, (0, 1, 0)).data
    # same partition, same relative order of color values
    c4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert canonical_form(c4, (2, 7, 2, 7)).data == canonical_form(
        relabel(c4, [1, 2, 3, 0]), (7, 2, 7, 2)
    ).data


def test_rooted_isomorphism():
    p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert are_rooted_isomorphic(RootedGraph(p3, 0), RootedGraph(p3, 2))
    assert not are_rooted_isomorphic(RootedGraph(p3, 0), RootedGraph(p3, 1))
    c5 = Graph.from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])
    for v in range(1, 5):
        assert are_rooted_isomorphic(RootedGraph(c5, 0), RootedGraph(c5, v))
    star = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert not are_rooted_isomorphic(RootedGraph(star, 0), RootedGraph(star, 1))
    p2 = Graph.from_edge_list(2, [(0, 1)])
    assert not are_rooted_isomorphic(RootedGraph(p3, 0), RootedGraph(p2, 0))


def test_rooted_isomorphism_respects_structure_not_labels():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randrange(2, 9)
        g = random_graph(rng, n, 0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        v = rng.randrange(n)
        assert are_rooted_isomorphic(RootedGraph(g, v), RootedGraph(h, perm[v]))


def test_form_equality_ignores_color_payload():
    # equal data means equal forms even though color tuples differ
    p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    a = canonical_form(p3, (1, 0, 0))
    b = canonical_form(p3, (0, 0, 1))
    assert a == b
    assert a.colors != b.colors


def reference_refine(adj, cells):
    """The restart-from-scratch refinement that _refine must reproduce: after
    every split the scan starts again at the first (splitter, cell) pair."""
    changed = True
    while changed:
        changed = False
        for w in cells:
            for ci, c in enumerate(cells):
                if c.bit_count() == 1:
                    continue
                groups = {}
                for v in bits(c):
                    d = (adj[v] & w).bit_count()
                    groups[d] = groups.get(d, 0) | 1 << v
                if len(groups) > 1:
                    cells[ci : ci + 1] = [groups[d] for d in sorted(groups)]
                    changed = True
                    break
            if changed:
                break
    return cells


def random_ordered_partition(rng, n):
    k = rng.randint(1, n)
    color = [rng.randrange(k) for _ in range(n)]
    cells = [sum(1 << v for v in range(n) if color[v] == c) for c in range(k)]
    cells = [c for c in cells if c]
    rng.shuffle(cells)
    return cells


def test_refine_matches_restart_reference():
    # the resumed scan gives the same ordered partition, not just the same cells
    rng = random.Random(8)
    splits = 0
    for _ in range(6000):
        n = rng.randint(1, 13)
        g = random_graph(rng, n, rng.random())
        cells = random_ordered_partition(rng, n)
        want = reference_refine(g.adj, list(cells))
        assert _refine(g.adj, list(cells)) == want
        splits += len(want) - len(cells)
    assert splits > 10000  # the pairs exercise many splits, not only stable input


def test_refine_after_individualizing_matches_reference():
    # the search passes the cells of the equitable parent partition as
    # known non-splitters; skipping them must not change the result
    rng = random.Random(9)
    checked = 0
    for _ in range(2000):
        n = rng.randint(2, 13)
        g = random_graph(rng, n, rng.random())
        cells = reference_refine(g.adj, [(1 << n) - 1])
        for _ in range(3):
            target = next((i for i, c in enumerate(cells) if c.bit_count() > 1), None)
            if target is None:
                break
            v = rng.choice(list(bits(cells[target])))
            child = cells[:target] + [1 << v, cells[target] & ~(1 << v)] + cells[target + 1 :]
            want = reference_refine(g.adj, list(child))
            assert _refine(g.adj, list(child), frozenset(cells)) == want
            cells = want
            checked += 1
    assert checked > 2000


def test_last_canonical_vertex_lies_in_last_cell():
    rng = random.Random(10)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        cell = last_cell(g)
        _, perm = canonical_labeling(g)
        assert cell >> perm.index(n - 1) & 1
        top = max(g.degree(v) for v in range(n))
        assert all(g.degree(v) == top for v in bits(cell))
        # isomorphism-invariant: a relabeled copy's cell is the image of this one
        p = list(range(n))
        rng.shuffle(p)
        assert last_cell(relabel(g, p)) == sum(1 << p[v] for v in bits(cell))
    assert last_cell(Graph.from_edge_list(0, [])) == 0


def test_labelings_are_pinned():
    # sha256 over (form, labeling) of a seeded corpus, colored and plain:
    # enumeration accepts a child by the vertex its labeling puts last, so a
    # change to the labeling, not only to the form, changes what it emits
    rng = random.Random(12)
    h = hashlib.sha256()
    for _ in range(3000):
        n = rng.randint(0, 11)
        g = random_graph(rng, n, rng.random())
        colors = None if rng.random() < 0.5 else [rng.randrange(3) for _ in range(n)]
        form, perm = canonical_labeling(g, colors)
        h.update(form.data + bytes(perm))
    assert h.hexdigest() == "f31db1ed146c8a44b859382a412a300d93a1716051c917af60c4e63de1e8b921"


@st.composite
def rooted_pairs(draw):
    """Two rooted graphs on the same 1..8 vertices; half the time the second
    is a relabeled copy of the first, with the root carried over or not."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))

    def graph():
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edge_list(n, edges)

    a, ra = graph(), draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        b = relabel(a, perm)
        rb = perm[ra] if draw(st.booleans()) else draw(st.integers(0, n - 1))
    else:
        b, rb = graph(), draw(st.integers(0, n - 1))
    return a, ra, b, rb


def rooted_nx(g, root):
    G = to_nx(g)
    nx.set_node_attributes(G, {v: v == root for v in range(g.n)}, "root")
    return G


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rooted_pairs())
def test_forms_agree_with_networkx_isomorphism(case):
    a, ra, b, rb = case
    assert (canonical_form(a) == canonical_form(b)) == nx.is_isomorphic(to_nx(a), to_nx(b))
    same_root = lambda x, y: x["root"] == y["root"]
    assert are_rooted_isomorphic(RootedGraph(a, ra), RootedGraph(b, rb)) == nx.is_isomorphic(
        rooted_nx(a, ra), rooted_nx(b, rb), node_match=same_root
    )
