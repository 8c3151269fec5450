"""Exact maximum induced tree search.

t(G) is the largest vertex count of an induced subgraph that is a tree;
t(G, v) additionally requires the tree to contain v. Both are computed by a
branch-and-bound that grows a connected acyclic chosen set outward from the
root, so every node of the search tree is itself a valid induced tree.

A 2^n subset-scan oracle (guarded to n <= 20) cross-validates the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, RootedGraph, bits, is_induced_tree, vertex_list

_BRUTE_FORCE_MAX_N = 20

# work done since import, read as differences around a run: per entry point,
# rooted (max_induced_tree_through), unrooted (max_induced_tree, one call
# however many roots it searches) and exists (exists_induced_tree_through),
# its calls and the nodes and prunings of their searches. A rooted call with
# a ``known`` tree counts once, with the nodes and prunings of its floored
# search. The keys are literals, which are interned, so the increments below
# match them by identity
COUNTERS = {
    "rooted_calls": 0, "rooted_nodes": 0, "rooted_prunings": 0,
    "unrooted_calls": 0, "unrooted_nodes": 0, "unrooted_prunings": 0,
    "exists_calls": 0, "exists_nodes": 0, "exists_prunings": 0,
}


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    prunings: int


@dataclass(frozen=True)
class TreeSearchResult:
    """Size of the best tree found, one witness set, and search counters."""

    size: int
    witness: int
    required_root: int | None
    stats: SearchStats

    @property
    def witness_vertices(self) -> tuple[int, ...]:
        return tuple(vertex_list(self.witness))


def _search(
    g: Graph,
    root: int,
    forbidden: int = 0,
    stop_at: int | None = None,
    floor: int = 0,
) -> tuple[int, int, SearchStats]:
    """Largest induced tree through ``root`` that avoids ``forbidden``.

    Returns its size, its vertex set and the search counters. Only trees
    larger than ``floor`` are searched for; if there is none, the size is 0
    and the set empty. With ``stop_at`` the floor is ``stop_at - 1`` and
    the search ends at the first tree that passes it, which may be larger
    than ``stop_at``.

    Depth-first over nodes (chosen, undecided, near, size), so the depth is
    not bounded by Python's recursion limit. ``chosen`` is a connected
    acyclic set of ``size`` vertices holding the root; ``undecided`` holds
    the vertices neither chosen nor ruled out; ``near`` is the union of the
    chosen vertices' neighbourhoods, forced leaves (below) left out. Every
    undecided vertex has at most one chosen neighbour: adding ``pick`` rules
    out ``adj[pick] & near``, the vertices it would give a second one, as
    they would close a cycle. The frontier is then ``near & undecided``.

    A frontier vertex with no undecided neighbour is a forced leaf: it
    joins ``chosen`` at once, with no branch. Any tree below the node that
    lacks it stays a tree with it added, so every largest tree there holds
    it; and it changes no other vertex's undecided neighbours, so the pick
    and the bound are the same with it taken (its neighbours need not join
    ``near``: none is undecided). The search is the one that branches on
    such vertices, with each include child taken at once and each exclude
    child dropped. A node whose frontier is then empty is a leaf. Any other
    node branches on the frontier vertex with the fewest undecided
    neighbours outside ``near`` (the lowest index on ties): the one whose
    inclusion adds the fewest new vertices to the frontier, so the search
    closes the cycles near the tree before it opens new ones. Any frontier
    vertex with an undecided neighbour splits the node into include and
    exclude children that between them hold every tree below it, so the
    pick changes the sizes and ``exists`` answers of no search, only which
    largest tree is found first and returned. The search descends into the
    include child in place and pushes only the exclude child on an explicit
    stack, which is popped when a node is pruned, so nodes are visited in
    depth-first order, include child first.

    A node is pruned unless its bound passes ``bar``, the best size so far
    (``floor`` until a tree passes it, ``stop_at - 1`` under ``stop_at``,
    where the first tree that passes it ends the search). Any tree the node
    can still grow into lies in H = G[chosen + R], where the reach R holds
    the undecided vertices reachable from chosen through undecided ones; H
    is connected. Each frontier vertex has exactly one chosen neighbour and
    every undecided neighbour of a vertex of R is in R, so H has cycle rank
    mu = e(R) + |F| - |R| for the frontier F, with 2 e(R) the sum over R of
    the undecided neighbour counts. A tree T >= chosen inside H keeps no
    edge that touches S = V(H) - T, and T keeps |T| - 1 edges, so
    mu <= sum over S of w, with w = deg_H - 1. So S holds at least as many
    vertices as it takes to reach mu with the largest w values of R. The
    walk keeps a two-level profile of those values: ``hi``, the largest,
    ``hic`` vertices that have it, and ``lo``, the next largest; every
    other vertex has w <= lo. The count is ceil(mu / hi) when
    hic * hi >= mu, else hic + ceil((mu - hic * hi) / lo), and the bound is
    ``size + |R| - count``; it holds with triangles too. Every vertex of R
    has w >= 0, and 2 mu never exceeds the sum of w over the walked
    vertices, so mu > hic * hi leaves some 0 < w < hi, that is lo >= 1.

    The walk over R goes vertex by vertex, layer by layer, and stops early
    once the bound passes ``bar``. The count is the fewest values that reach
    mu when hic of them are hi and the rest lo. A vertex still to come
    raises |R| by one and mu by (w - 1) / 2 <= w for its own w, and no value
    of the profile falls when it is added; so the values that reached mu
    before, with w added, reach the new mu, the count grows by at most one,
    and the bound taken on the vertices walked so far is never above the
    bound at the end.

    A subtree is cut only when it holds no tree larger than ``bar``, so it
    could neither raise ``bar`` nor give the returned witness: a stronger
    bound visits a subsequence of the nodes of a weaker one, with the same
    pick and the same ``bar`` at each, and returns the same size and
    witness (and under ``stop_at`` the same first tree that passes it). A
    largest tree lies at a leaf and every node above it has a bound of at
    least its size, so any ``floor`` below t(G, v) finds the same witness.

    Every node either branches in two or is pruned, so an exhaustive search
    has ``nodes == 2 * prunings - 1``.
    """
    adj = g.adj
    n = g.n
    best_set = 0
    nodes = 0
    prunings = 0
    # floor, then the best size so far, or stop_at - 1: a node is searched
    # only if its bound passes bar
    bar = floor if stop_at is None else stop_at - 1
    stack = []
    chosen = 1 << root
    undecided = g.full_mask & ~chosen & ~forbidden
    near = adj[root]
    size = 1
    while True:
        nodes += 1
        # upper bound: size plus the reach R, the undecided vertices reachable
        # from chosen through undecided ones, less the vertices that must stay
        # out to break every cycle of chosen + R (see the docstring). The walk
        # is skipped when all undecided vertices together cannot pass bar; its
        # first step is taken in the same pass over the frontier that takes
        # the forced leaves and picks the branch vertex
        if size + undecided.bit_count() > bar:
            front = near & undecided
            # the undecided vertices off the frontier, which a pick would add
            # to it; forced leaves lie on the frontier, so taking them below
            # leaves fresh as it is
            fresh = undecided & ~near
            pick = 0
            fewest = n
            grow = 0
            cycles = 0
            # the profile of w = deg_H - 1 over the walked part of R: d
            # undecided neighbours give w = d on the frontier and d - 1 beyond
            hi = hic = lo = 0
            rest = front
            while rest:
                low = rest & -rest
                nbrs = adj[low.bit_length() - 1]
                d = (nbrs & undecided).bit_count()
                if d:
                    grow |= nbrs
                    cycles += d
                    opens = (nbrs & fresh).bit_count()
                    if opens < fewest:
                        fewest = opens
                        pick = low
                        pick_nbrs = nbrs
                    if d > hi:
                        lo = hi
                        hi = d
                        hic = 1
                    elif d == hi:
                        hic += 1
                    elif d > lo:
                        lo = d
                else:
                    # a forced leaf
                    chosen |= low
                    undecided ^= low
                    size += 1
                rest ^= low
            if size > bar:
                bar = size
                best_set = chosen
                if stop_at is not None:
                    break
            if pick:
                # cycles sums 2 mu vertex by vertex over the walked part of R:
                # d on the frontier, whose chosen edge counts, and d - 2 beyond
                front &= undecided
                reach = front.bit_count()
                outside = fresh
                frontier = grow & outside
                while True:
                    ub = size + reach
                    if cycles > 0:
                        over = cycles - 2 * hic * hi
                        if over <= 0:
                            ub += -cycles // (2 * hi)
                        else:
                            ub += -over // (2 * lo) - hic
                    if ub > bar or not frontier:
                        break
                    reach += frontier.bit_count()
                    outside ^= frontier
                    grow = 0
                    while frontier:
                        low = frontier & -frontier
                        nbrs = adj[low.bit_length() - 1]
                        grow |= nbrs
                        d = (nbrs & undecided).bit_count()
                        cycles += d - 2
                        d -= 1
                        if d > hi:
                            lo = hi
                            hi = d
                            hic = 1
                        elif d == hi:
                            hic += 1
                        elif d > lo:
                            lo = d
                        frontier ^= low
                    frontier = grow & outside
                if ub > bar:
                    stack.append((chosen, undecided ^ pick, near, size))
                    chosen |= pick
                    undecided &= ~(pick | pick_nbrs & near)
                    near |= pick_nbrs
                    size += 1
                    continue
        prunings += 1
        if not stack:
            break
        chosen, undecided, near, size = stack.pop()
    return best_set.bit_count(), best_set, SearchStats(nodes, prunings)


def max_induced_tree_through(rg: RootedGraph, known: int = 0) -> TreeSearchResult:
    """t(G, v): largest induced tree containing the root.

    ``known`` is the vertex mask of an induced tree through the root that the
    caller already holds, or 0. The search is floored at its size, so it
    looks only for larger trees: it finds the witness an unfloored search
    finds when there is one (see ``_search``), and returns ``known`` itself
    when there is none. A nonzero ``known`` that is not an induced tree of
    the graph holding the root raises GraphError before any search.
    """
    g = rg.graph
    root = rg.root
    if known and not (is_induced_tree(g, known) and known >> root & 1):
        raise GraphError(f"known {known:#x} is not an induced tree through the root {root}")
    size, witness, stats = _search(g, root, floor=known.bit_count())
    COUNTERS["rooted_calls"] += 1
    COUNTERS["rooted_nodes"] += stats.nodes
    COUNTERS["rooted_prunings"] += stats.prunings
    if known and not size:
        # nothing larger: known, checked above, is the answer
        size = known.bit_count()
        witness = known
    else:
        _check_witness(g, size, witness, root)
    return TreeSearchResult(size, witness, root, stats)


def rooted_tree_numbers(g: Graph) -> tuple[TreeSearchResult, ...]:
    """t(G, v) for every root v, in root order.

    One max_induced_tree_through call per root. A tree of s vertices found
    through one root shows t(G, u) >= s for every vertex u in it, so each
    call is passed as ``known`` the largest witness found so far that holds
    its root, and searches only for larger trees.
    """
    best = [0] * g.n  # best[u]: the largest witness so far that holds u
    results = []
    for v in range(g.n):
        known = best[v]
        r = max_induced_tree_through(RootedGraph(g, v), known=known)
        results.append(r)
        if r.witness != known:
            # larger than known: it raises the roots after v that it holds
            size = r.witness.bit_count()
            for u in bits(r.witness & -(2 << v)):
                if best[u].bit_count() < size:
                    best[u] = r.witness
    return tuple(results)


def max_induced_tree(g: Graph) -> TreeSearchResult:
    """t(G): largest induced tree anywhere in the graph.

    Runs the rooted search once per vertex r with all vertices below r
    forbidden, so each tree is counted exactly at its minimum-index vertex.
    Each search is floored at the best size so far, so it looks only for
    strictly larger trees and returns the same witness as an unfloored one
    when it finds any. Roots r with n - r <= best cannot improve and are
    skipped.
    """
    if g.n == 0:
        raise GraphError("t(G) is undefined for the empty graph")
    best_size = 0
    best_set = 0
    nodes = 0
    prunings = 0
    for r in range(g.n):
        if best_size >= g.n - r:
            break
        size, witness, stats = _search(g, r, (1 << r) - 1, floor=best_size)
        nodes += stats.nodes
        prunings += stats.prunings
        if size > best_size:
            best_size = size
            best_set = witness
    COUNTERS["unrooted_calls"] += 1
    COUNTERS["unrooted_nodes"] += nodes
    COUNTERS["unrooted_prunings"] += prunings
    _check_witness(g, best_size, best_set)
    return TreeSearchResult(best_size, best_set, None, SearchStats(nodes, prunings))


def exists_induced_tree_through(rg: RootedGraph, target: int) -> bool:
    """True iff t(G, v) >= target; stops at the first tree of at least that
    size.

    A True answer has its witness checked like the other entry points; a
    False one has no witness to check.
    """
    if target < 1:
        raise GraphError(f"target must be >= 1, got {target}")
    size, witness, stats = _search(rg.graph, rg.root, stop_at=target)
    COUNTERS["exists_calls"] += 1
    COUNTERS["exists_nodes"] += stats.nodes
    COUNTERS["exists_prunings"] += stats.prunings
    if size < target:
        return False
    _check_witness(rg.graph, size, witness, rg.root)
    return True


def brute_force_t(g: Graph, root: int | None = None) -> TreeSearchResult:
    """Independent oracle: scan all 2^n vertex subsets.

    Deliberately shares no code with the branch-and-bound beyond the
    induced-tree predicate. Guarded to n <= 20.
    """
    n = g.n
    if n == 0:
        raise GraphError("t(G) is undefined for the empty graph")
    if n > _BRUTE_FORCE_MAX_N:
        raise GraphError(
            f"brute force is limited to n <= {_BRUTE_FORCE_MAX_N} (got {n}); "
            "use max_induced_tree instead"
        )
    if root is not None and not 0 <= root < n:
        raise GraphError(f"root {root} out of range for {n} vertices")
    best_size = 0
    best_set = 0
    tested = 0
    for s in range(1, 1 << n):
        if root is not None and not s >> root & 1:
            continue
        if s.bit_count() <= best_size:
            continue
        tested += 1
        if is_induced_tree(g, s):
            best_size = s.bit_count()
            best_set = s
    return TreeSearchResult(best_size, best_set, root, SearchStats(tested, 0))


def _check_witness(g: Graph, size: int, witness: int, root: int | None = None) -> None:
    """Raise AssertionError unless the vertex set ``witness`` induces a tree
    of ``size`` vertices in g that holds ``root``, if one is given."""
    if size != witness.bit_count() or not is_induced_tree(g, witness):
        raise AssertionError(f"witness {witness:#x} is not an induced tree of size {size}")
    if root is not None and not witness >> root & 1:
        raise AssertionError(f"witness {witness:#x} misses the root {root}")
