"""Exact maximum induced tree search.

t(G) is the largest vertex count of an induced subgraph that is a tree;
t(G, v) additionally requires the tree to contain v. Both are computed by a
branch-and-bound that grows a connected acyclic chosen set outward from the
root, so every node of the search tree is itself a valid induced tree.

A 2^n subset-scan oracle (guarded to n <= 20) cross-validates the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, RootedGraph, is_induced_tree, vertex_list

_BRUTE_FORCE_MAX_N = 20


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
    g: Graph, root: int, forbidden: int = 0, stop_at: int | None = None
) -> tuple[int, int, SearchStats]:
    """Largest induced tree through ``root`` that avoids ``forbidden``.

    Returns its size, its vertex set and the search counters. With
    ``stop_at`` the search ends at the first tree of that size, and only
    trees of that size or larger are searched for; if there is none, the
    size is 0 and the set empty.

    Depth-first over nodes (chosen, undecided, near, size), so the depth is
    not bounded by Python's recursion limit. ``chosen`` is a connected
    acyclic set of ``size`` vertices holding the root; ``undecided`` holds
    the vertices neither chosen nor ruled out; ``near`` is the union of the
    chosen vertices' neighbourhoods. Every undecided vertex has at most one
    chosen neighbour: adding ``pick`` rules out ``adj[pick] & near``, the
    vertices it would give a second one, as they would close a cycle. The
    frontier is then ``near & undecided``. A node branches on the frontier
    vertex with the most undecided neighbours (the lowest index on ties).
    It descends into the include child in place and pushes only the exclude
    child on an explicit stack, which is popped when a node is pruned, so
    nodes are visited in depth-first order, include child first.

    A node is pruned unless its bound passes ``bar``, the best size so far
    (``stop_at - 1`` under ``stop_at``, where the first tree that passes it
    ends the search). Any tree the node can still grow into lies in
    H = G[chosen + R], where the reach R holds the undecided vertices
    reachable from chosen through undecided ones; H is connected. Each
    frontier vertex has exactly one chosen neighbour and every undecided
    neighbour of a vertex of R is in R, so H has cycle rank
    mu = e(R) + |F| - |R| for the frontier F, with 2 e(R) the sum over R of
    the undecided neighbour counts. A tree T >= chosen inside H keeps no
    edge that touches S = V(H) - T, and T keeps |T| - 1 edges, so
    mu <= sum over S of (deg_H - 1) <= |S| (top - 1) with top the largest
    deg_H over R. The bound is therefore
    ``size + |R| - ceil(mu / (top - 1))``; it holds with triangles too. The
    walk over R counts mu and top vertex by vertex, layer by layer, and
    stops early once the bound passes ``bar``: each vertex still to come
    raises |R| by one and mu by at most (top - 2) / 2 for the final top,
    and top only grows, so the bound taken on the vertices walked so far is
    never above the bound at the end.

    A subtree is cut only when it holds no tree larger than ``bar``, so it
    could neither raise ``bar`` nor give the returned witness: a stronger
    bound visits a subsequence of the nodes of a weaker one, with the same
    pick and the same ``bar`` at each, and returns the same size and
    witness (and under ``stop_at`` the same first tree of that size).

    Every node either branches in two or is pruned, so an exhaustive search
    has ``nodes == 2 * prunings - 1``. An exclude child that already fails
    the bound when it would be pushed is counted as a node and a pruning
    there and never pushed: the bar only rises, so it would fail when
    popped too. Under ``stop_at`` the counters may therefore include such
    children that the search would not have reached before stopping;
    ``exists_induced_tree_through`` discards them.
    """
    adj = g.adj
    best_set = 0
    nodes = 0
    prunings = 0
    # the best size so far, or stop_at - 1: a node is searched only if its bound passes bar
    bar = 0 if stop_at is None else stop_at - 1
    stack = []
    chosen = 1 << root
    undecided = g.full_mask & ~chosen & ~forbidden
    near = adj[root]
    size = 1
    while True:
        nodes += 1
        if size > bar:
            bar = size
            best_set = chosen
            if stop_at is not None:
                break
        # upper bound: size plus the reach R, the undecided vertices reachable
        # from chosen through undecided ones, less ceil(mu / (top - 1)) of
        # them that must stay out to break every cycle of chosen + R (see the
        # docstring). The walk is skipped when all undecided vertices
        # together cannot pass bar; its first step is taken in the same pass
        # over the frontier that picks the branch vertex
        left = undecided.bit_count()
        if size + left > bar:
            front = near & undecided
            pick_deg = -1
            grow = 0
            cycles = 0
            rest = front
            while rest:
                low = rest & -rest
                nbrs = adj[low.bit_length() - 1]
                grow |= nbrs
                d = (nbrs & undecided).bit_count()
                cycles += d
                if d > pick_deg:
                    pick_deg = d
                    pick = low
                    pick_nbrs = nbrs
                rest ^= low
            # cycles sums 2 mu vertex by vertex over the walked part of R, for
            # d undecided neighbours: d on the frontier, whose chosen edge
            # counts, and d - 2 beyond it; top is the largest degree in
            # chosen + R there, d + 1 on the frontier and d beyond it
            top = pick_deg + 1
            reach = front.bit_count()
            outside = undecided & ~front
            frontier = grow & outside
            while True:
                ub = size + reach
                if cycles > 0:
                    ub += -cycles // (2 * top - 2)
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
                    if d > top:
                        top = d
                    frontier ^= low
                frontier = grow & outside
            if ub > bar:
                # the exclude child has one undecided vertex fewer; if that
                # already fails the bound it is counted and not pushed
                if size + left - 1 > bar:
                    stack.append((chosen, undecided ^ pick, near, size))
                else:
                    nodes += 1
                    prunings += 1
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


def max_induced_tree_through(rg: RootedGraph) -> TreeSearchResult:
    """t(G, v): largest induced tree containing the root."""
    size, witness, stats = _search(rg.graph, rg.root)
    result = TreeSearchResult(size, witness, rg.root, stats)
    _check_witness(rg.graph, result)
    return result


def max_induced_tree(g: Graph) -> TreeSearchResult:
    """t(G): largest induced tree anywhere in the graph.

    Runs the rooted search once per vertex r with all vertices below r
    forbidden, so each tree is counted exactly at its minimum-index vertex.
    Roots r with n - r <= best cannot improve and are skipped.
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
        size, witness, stats = _search(g, r, (1 << r) - 1)
        nodes += stats.nodes
        prunings += stats.prunings
        if size > best_size:
            best_size = size
            best_set = witness
    result = TreeSearchResult(best_size, best_set, None, SearchStats(nodes, prunings))
    _check_witness(g, result)
    return result


def exists_induced_tree_through(rg: RootedGraph, target: int) -> bool:
    """True iff t(G, v) >= target; stops at the first tree of that size.

    A True answer has its witness checked like the other entry points; a
    False one has no witness to check.
    """
    if target < 1:
        raise GraphError(f"target must be >= 1, got {target}")
    size, witness, stats = _search(rg.graph, rg.root, stop_at=target)
    if size < target:
        return False
    _check_witness(rg.graph, TreeSearchResult(size, witness, rg.root, stats))
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
    if best_size == 0:
        # root given but isolated is impossible: the singleton is a tree
        raise AssertionError("subset scan found no tree at all")
    result = TreeSearchResult(best_size, best_set, root, SearchStats(tested, 0))
    _check_witness(g, result)
    return result


def _check_witness(g: Graph, r: TreeSearchResult) -> None:
    if r.size != r.witness.bit_count() or not is_induced_tree(g, r.witness):
        raise AssertionError(f"witness {r.witness:#x} is not an induced tree of size {r.size}")
    if r.required_root is not None and not r.witness >> r.required_root & 1:
        raise AssertionError(f"witness {r.witness:#x} misses the root {r.required_root}")
