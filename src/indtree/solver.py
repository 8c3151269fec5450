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


class _Search:
    """One rooted branch-and-bound run over an immutable graph."""

    __slots__ = ("adj", "full", "best_size", "best_set", "nodes", "prunings", "stop_at")

    def __init__(self, g: Graph, stop_at: int | None = None):
        self.adj = g.adj
        self.full = g.full_mask
        self.best_size = 0
        self.best_set = 0
        self.nodes = 0
        self.prunings = 0
        self.stop_at = stop_at

    def run(self, root: int, forbidden: int) -> bool:
        return self._rec(1 << root, forbidden)

    def _rec(self, chosen: int, forbidden: int) -> bool:
        adj = self.adj
        self.nodes += 1
        undecided = self.full & ~chosen & ~forbidden
        # cycle exclusion: a vertex with >= 2 neighbors in the connected
        # chosen set would close a cycle, so it can never be added
        kill = 0
        for v in bits(undecided):
            if (adj[v] & chosen).bit_count() >= 2:
                kill |= 1 << v
        forbidden |= kill
        undecided &= ~kill

        size = chosen.bit_count()
        if size > self.best_size:
            self.best_size = size
            self.best_set = chosen
            if self.stop_at is not None and size >= self.stop_at:
                return True

        # upper bound: only undecided vertices reachable from chosen through
        # undecided territory can ever join this tree
        reach = chosen
        frontier = chosen
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & undecided & ~reach
            reach |= frontier
        ub = reach.bit_count()
        bar = self.best_size if self.stop_at is None else max(self.best_size, self.stop_at - 1)
        if ub <= bar:
            self.prunings += 1
            return False

        front = 0
        for v in bits(chosen):
            front |= adj[v]
        front &= undecided
        if not front:
            return False
        # branch on the frontier vertex seeing the most undecided vertices
        pick = -1
        pick_deg = -1
        for v in bits(front):
            d = (adj[v] & undecided).bit_count()
            if d > pick_deg:
                pick_deg = d
                pick = v
        if self._rec(chosen | 1 << pick, forbidden):
            return True
        return self._rec(chosen, forbidden | 1 << pick)


def max_induced_tree_through(rg: RootedGraph) -> TreeSearchResult:
    """t(G, v): largest induced tree containing the root."""
    s = _Search(rg.graph)
    s.run(rg.root, 0)
    result = TreeSearchResult(s.best_size, s.best_set, rg.root, SearchStats(s.nodes, s.prunings))
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
        s = _Search(g)
        s.run(r, (1 << r) - 1)
        nodes += s.nodes
        prunings += s.prunings
        if s.best_size > best_size:
            best_size = s.best_size
            best_set = s.best_set
    result = TreeSearchResult(best_size, best_set, None, SearchStats(nodes, prunings))
    _check_witness(g, result)
    return result


def exists_induced_tree_through(rg: RootedGraph, target: int) -> bool:
    """True iff t(G, v) >= target; stops at the first tree of that size."""
    if target < 1:
        raise GraphError(f"target must be >= 1, got {target}")
    if target > rg.graph.n:
        return False
    if target == 1:
        return True
    s = _Search(rg.graph, stop_at=target)
    return s.run(rg.root, 0)


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
