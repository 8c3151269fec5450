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
    blow_up_path,
    canonical_form,
    canonical_labeling,
)
from indtree import canon
from indtree.canon import _refine
from indtree.graph import bits

from helpers import random_graph, to_nx


def relabel(g, perm):
    return Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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


def test_form_is_the_relabeled_upper_triangle():
    # the search builds each leaf's code from neighbour masks; here the bits
    # come from the relabeled graph's adjacency matrix, one pair at a time,
    # in row-major upper-triangle order and packed to whole bytes
    rng = random.Random(19)
    for _ in range(600):
        n = rng.randint(1, 11)
        g = random_graph(rng, n, rng.random())
        for root in (None, rng.randrange(n)):
            form, perm = canonical_labeling(g, root)
            h = relabel(g, list(perm))
            code = 0
            for i in range(n):
                for j in range(i + 1, n):
                    code = code << 1 | h.has_edge(i, j)
            nbytes = (n * (n - 1) // 2 + 7) // 8 or 1
            assert form.data[:5] == n.to_bytes(4, "big") + bytes((root is not None,))
            assert form.data[5:] == code.to_bytes(nbytes, "big")


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


def test_root_refines_classes():
    p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    unrooted = canonical_form(p3)
    center = canonical_form(p3, 1)
    leaf = canonical_form(p3, 0)
    other_leaf = canonical_form(p3, 2)
    assert center.data != leaf.data
    assert leaf.data == other_leaf.data
    assert unrooted.data not in (center.data, leaf.data)  # the root flag is part of the form
    for root in (-1, 3, 1.5):
        with pytest.raises(GraphError):
            canonical_form(p3, root)


def test_rooted_form_follows_relabeling():
    c4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    perm = [1, 2, 3, 0]
    assert canonical_form(c4, 0).data == canonical_form(relabel(c4, perm), perm[0]).data


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


def test_form_equality_ignores_automorphisms():
    # equal data means equal forms even though the stored maps differ
    p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    a = canonical_form(p3, 0)
    b = canonical_form(p3, 2)
    assert a == b


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


def with_singletons(rng, cells, count):
    """``cells`` with ``count`` random vertices moved into cells of their own,
    put at random places in the order."""
    cells = list(cells)
    for _ in range(count):
        cells = [c for c in cells if c]
        c = rng.randrange(len(cells))
        v = rng.choice(list(bits(cells[c])))
        cells[c] &= ~(1 << v)
        cells.insert(rng.randint(0, len(cells)), 1 << v)
    return [c for c in cells if c]


def test_refine_matches_restart_reference():
    # the resumed scan gives the same ordered partition, not just the same
    # cells; rooted-style starts and split-off vertices give one-vertex
    # splitters from the first pair on
    rng = random.Random(8)
    extra = random.Random(18)  # draws for the singleton starts; rng's stream is unchanged
    splits = 0
    for _ in range(6000):
        n = rng.randint(1, 13)
        g = random_graph(rng, n, rng.random())
        cells = random_ordered_partition(rng, n)
        r = extra.randrange(n)
        starts = [
            cells,
            [c for c in ((1 << n) - 1 ^ 1 << r, 1 << r) if c],
            with_singletons(extra, cells, 1),
            with_singletons(extra, cells, min(2, n)),
        ]
        for start in starts:
            want = reference_refine(g.adj, list(start))
            assert _refine(g.adj, list(start)) == want
            splits += len(want) - len(start)
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


def test_last_canonical_vertex_has_largest_degree():
    # enumeration drops a candidate whose new vertex is not of largest
    # degree before labeling it, since it cannot be put last
    rng = random.Random(10)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        p = list(range(n))
        rng.shuffle(p)
        top = max(g.degree(v) for v in range(n))
        for h in (g, relabel(g, p)):
            _, perm = canonical_labeling(h)
            assert h.degree(perm.index(n - 1)) == top


def unit_refinement(g):
    """The equitable refinement of g's unit partition; no cells when n = 0."""
    return _refine(g.adj, [g.full_mask] if g.n else [])


def test_equitable_partition_holds_the_last_vertex_and_orbits():
    # enumeration decides a candidate from its equitable partition before it
    # labels it: the cells must cover V, the last cell must hold the last
    # canonical vertex, and every cell must be a union of orbits
    assert unit_refinement(Graph.from_edge_list(0, [])) == []
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randint(1, 11)
        g = random_graph(rng, n, rng.random())
        cells = unit_refinement(g)
        assert sum(cells) == (1 << n) - 1 and sum(c.bit_count() for c in cells) == n
        form, perm = canonical_labeling(g)
        assert cells[-1] >> perm.index(n - 1) & 1
        for a in form.automorphisms:
            assert all(sum(1 << a[v] for v in bits(c)) == c for c in cells)


def test_labelings_are_pinned():
    # sha256 over the labelings of a seeded corpus, rooted and plain, and
    # over the forms of the plain ones: enumeration accepts a child by the
    # vertex its labeling puts last, so a change to the labeling, not only
    # to the form, changes what it emits
    rng = random.Random(12)
    h = hashlib.sha256()
    for _ in range(3000):
        n = rng.randint(1, 11)
        g = random_graph(rng, n, rng.random())
        if rng.random() < 0.5:
            form, perm = canonical_labeling(g)
            h.update(form.data + bytes(perm))
        else:
            _, perm = canonical_labeling(g, rng.randrange(n))
            h.update(bytes(perm))
    assert h.hexdigest() == "2a87474bfec63e965e145b374ebb47a11b12692239340e23f18fe77dc2b225ab"


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


@st.composite
def rooted_graphs(draw, max_n=9):
    """A graph on 0..max_n vertices, unrooted half the time, else with a root."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    root = draw(st.none() | st.integers(0, n - 1)) if n else None
    return Graph.from_edge_list(n, edges), root


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rooted_graphs())
def test_stored_automorphisms_are_automorphisms(case):
    g, root = case
    edges = set(g.edges())
    for phi in canonical_labeling(g, root)[0].automorphisms:
        assert sorted(phi) == list(range(g.n)) and list(phi) != list(range(g.n))
        assert {tuple(sorted((phi[u], phi[v]))) for u, v in edges} == edges
        if root is not None:
            assert phi[root] == root


def generated_group(n, gens):
    """Every permutation of range(n) that a product of ``gens`` makes."""
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        p = stack.pop()
        for a in gens:
            q = tuple(a[v] for v in p)
            if q not in group:
                group.add(q)
                stack.append(q)
    return group


def scanned_automorphisms(g, root):
    """Every root-fixing automorphism of g, by scanning all n! maps."""
    found = set()
    for p in itertools.permutations(range(g.n)):
        if root is not None and p[root] != root:
            continue
        if all(sum(1 << p[w] for w in bits(g.adj[v])) == g.adj[p[v]] for v in range(g.n)):
            found.add(p)
    return found


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rooted_graphs(max_n=7))
def test_stored_automorphisms_generate_the_whole_group(case):
    g, root = case
    autos = canonical_labeling(g, root)[0].automorphisms
    assert generated_group(g.n, autos) == scanned_automorphisms(g, root)


def test_symmetric_families_store_few_automorphisms():
    # edgeless graphs, complete bipartite graphs and stars have groups of
    # order up to n!; a search that stored every tie without returning to
    # the common ancestor kept 120 maps for the edgeless graph at n = 16 and
    # did not finish the edgeless graph on 40 vertices or K_{20,20}
    families = [s for n in range(16, 21) for s in ([n], [n // 2, n - n // 2], [1, n - 1])]
    for sizes in families + [[40], [20, 20]]:
        assert len(canonical_labeling(blow_up_path(sizes))[0].automorphisms) <= sum(sizes) - 1


def with_twins(rng, g, extra):
    """g plus ``extra`` new vertices, each a false twin of a random vertex:
    adjacent to exactly that vertex's neighbours."""
    edges = list(g.edges())
    n = g.n
    for _ in range(extra):
        v = rng.randrange(n)
        edges += [(w, n) for w in bits(Graph.from_edge_list(n, edges).adj[v])]
        n += 1
    return Graph.from_edge_list(n, edges)


def test_twin_seeds_keep_the_labeling(monkeypatch):
    # the stored twin swaps only prune: on twin-rich graphs, rooted at a twin
    # and elsewhere, the form and the labeling are those of the search
    # without seeds, every stored map fixes the root, and the stored maps
    # generate the same group
    rng = random.Random(19)
    cases = [blow_up_path(sizes) for sizes in ([1, 5], [3, 4], [2, 1, 2], [2, 2, 2], [3, 1, 1, 3])]
    cases += [Graph.from_edge_list(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])]  # pendant twins
    cases += [Graph.from_edge_list(5, [])]
    cases += [with_twins(rng, random_graph(rng, rng.randint(1, 5), rng.random()), 2) for _ in range(60)]
    seeded = {}
    swaps = 0
    for g in cases:
        for root in (None, *range(g.n)):
            seeds = canon._twin_swaps(g.adj, root)
            swaps += len(seeds)
            form, perm = canonical_labeling(g, root)
            assert form.automorphisms[: len(seeds)] == tuple(seeds)
            for phi in form.automorphisms:
                assert all(sum(1 << phi[w] for w in bits(g.adj[v])) == g.adj[phi[v]] for v in range(g.n))
                if root is not None:
                    assert phi[root] == root
            seeded[g, root] = form, perm
    assert swaps > 500
    monkeypatch.setattr(canon, "_twin_swaps", lambda adj, root: [])
    for (g, root), (form, perm) in seeded.items():
        plain, plain_perm = canonical_labeling(g, root)
        assert (form.data, perm) == (plain.data, plain_perm)
        assert generated_group(g.n, form.automorphisms) == generated_group(g.n, plain.automorphisms)


def twin_heavy_graphs():
    """A seeded corpus whose search meets many cells of false twins: blown-up
    paths with random class sizes, K_{a,b} and the stars K_{1,b}, edgeless
    graphs and random graphs with twins added, half of them relabeled at
    random so that a twin class is not a run of consecutive vertices."""
    rng = random.Random(29)
    graphs = [blow_up_path([rng.randint(1, 4) for _ in range(rng.randint(1, 5))]) for _ in range(200)]
    graphs += [blow_up_path([a, b]) for a in range(1, 7) for b in range(a, 7)]
    graphs += [Graph.from_edge_list(n, []) for n in range(1, 11)]
    graphs += [with_twins(rng, random_graph(rng, rng.randint(1, 6), rng.random()), 3) for _ in range(100)]
    return [relabel(g, rng.sample(range(g.n), g.n)) if rng.random() < 0.5 else g for g in graphs]


def test_twin_cell_labelings_are_pinned():
    # the search takes a cell of false twins whose first vertex's orbit is
    # the whole cell in one step, without a node per twin; sha256 over the
    # form, the labeling and the stored automorphisms, unrooted and at every
    # root, of a twin-heavy corpus: the digest was computed by the search
    # that individualized such a cell one vertex per node
    h = hashlib.sha256()
    labelings = 0
    for g in twin_heavy_graphs():
        for root in (None, *range(g.n)):
            form, perm = canonical_labeling(g, root)
            h.update(repr((form.data, perm, form.automorphisms)).encode())
            labelings += 1
    assert labelings == 2660
    assert h.hexdigest() == "c3516109d91b7dfe16e060c151e970cbb06cf65803088774d5e9b0da7549f056"


def test_handed_refinement_keeps_the_labeling():
    # a caller that holds the equitable refinement of the unit partition
    # hands it over and the search starts at it: on a seeded random corpus
    # and the twin-heavy one, the form, the labeling, the stored
    # automorphisms and the search's node count are those of the plain call
    rng = random.Random(43)
    corpus = [random_graph(rng, rng.randint(0, 11), rng.random()) for _ in range(1000)]
    for g in corpus + twin_heavy_graphs():
        start = canon.COUNTERS["nodes"]
        plain, plain_perm = canonical_labeling(g)
        middle = canon.COUNTERS["nodes"]
        form, perm = canonical_labeling(g, cells=unit_refinement(g))
        assert (form.data, perm, form.automorphisms) == (plain.data, plain_perm, plain.automorphisms)
        assert canon.COUNTERS["nodes"] - middle == middle - start


@pytest.mark.parametrize(
    "cells, root",
    [
        ([0b0011, 0b0110, 0b1000], None),  # overlapping cells
        ([0b0011, 0b0100], None),  # vertex 3 in no cell
        ([0b0011, 0, 0b1100], None),  # an empty cell
        ([0b0011, 0b11100], None),  # a vertex outside the graph
        ([0b1001, 0b0110], 0),  # the unit refinement, given with a root
    ],
)
def test_malformed_handed_cells_raise(cells, root):
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert unit_refinement(g) == [0b1001, 0b0110]
    with pytest.raises(GraphError):
        canonical_labeling(g, root, cells=cells)
