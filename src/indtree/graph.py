"""Immutable bitset graphs.

Vertices are ``0..n-1``. A vertex set is a plain ``int`` bitmask (bit ``v``
set means vertex ``v`` is in the set), which keeps search loops
allocation-free; :func:`bits` and :func:`vertex_list` list the vertices of
a mask. Adjacency is stored as one neighbor mask per vertex, symmetric and
loop-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(ValueError):
    """A graph construction or query violated the representation contract."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_list(mask: int) -> list[int]:
    """Sorted vertices of a bitmask."""
    return list(bits(mask))


def _outside(what: str, n: int, has: str = "") -> GraphError:
    """The error for ``what`` outside the vertices ``0..n-1`` of a graph;
    ``has`` joins the two, as in "edge (0, 2) has an endpoint outside 0..1".
    With n = 0 the range is empty, and the message says so."""
    if not n:
        return GraphError(f"{what}: the graph has no vertices")
    return GraphError(f"{what}{has} outside 0..{n - 1}")


class Graph:
    """Simple undirected graph on vertices ``0..n-1`` with bitmask adjacency.

    Instances are immutable after construction and safe to share; every
    operation on them is a pure function.

    ``Graph(n, adj)`` checks its rows: n of them, each symmetric, loop-free
    and inside ``0..n-1``. ``Graph._trusted(n, rows)`` skips those checks
    and is for rows that hold them by construction, such as a child that
    enumeration builds from a valid graph's rows and an independent set;
    rows read from outside the program go through ``Graph(...)``.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        rows = tuple(adj)
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        for u, row in enumerate(rows):
            if row < 0 or row >> n:
                raise _outside(f"adjacency row {u}", n, " has bits")
            if row >> u & 1:
                raise GraphError(f"self-loop at vertex {u}")
        for u, row in enumerate(rows):
            for v in bits(row):
                if not rows[v] >> u & 1:
                    raise GraphError(f"asymmetric edge ({u}, {v})")
        self.n = n
        self.adj = rows

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """The graph with adjacency ``rows``, built without the checks of
        ``__init__``. Precondition: ``rows`` is a tuple of n rows, symmetric
        and loop-free, with no bit outside ``0..n-1``."""
        g = object.__new__(cls)
        g.n = n
        g.adj = rows
        return g

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; duplicate pairs collapse.

        Raises :class:`GraphError` on endpoints outside ``0..n-1``, loops, or
        an ``n`` too large for a list of rows.
        """
        try:
            rows = [0] * n
        except (OverflowError, MemoryError):
            raise GraphError(f"cannot allocate {n} adjacency rows") from None
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise _outside(f"edge ({u}, {v})", n, " has an endpoint")
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) rejected")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @property
    def full_mask(self) -> int:
        """Bitmask of all vertices."""
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted pairs, lexicographic order."""
        return [
            (u, v)
            for u in range(self.n)
            for v in bits(self.adj[u] >> (u + 1) << (u + 1))
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


@dataclass(frozen=True)
class RootedGraph:
    """A graph with one distinguished vertex."""

    graph: Graph
    root: int

    def __post_init__(self) -> None:
        if not 0 <= self.root < self.graph.n:
            raise _outside(f"root {self.root}", self.graph.n)


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are mutually adjacent."""
    adj = g.adj
    for u in range(g.n):
        row = adj[u] >> (u + 1) << (u + 1)
        for v in bits(row):
            if adj[u] & adj[v]:
                return False
    return True


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (n <= 1 counts as connected)."""
    if g.n <= 1:
        return True
    return _component_of(g.adj, 1, g.full_mask) == g.full_mask


def _component_of(adj: tuple[int, ...], seed: int, allowed: int) -> int:
    """Vertices reachable from the ``seed`` mask through ``allowed`` vertices."""
    seen = frontier = seed & allowed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def is_induced_tree(g: Graph, s: int) -> bool:
    """True iff ``s`` is nonempty and induces a connected, acyclic subgraph.

    Equivalently: the induced subgraph is connected with exactly ``|s| - 1``
    edges. One walk from the lowest vertex of ``s`` through ``s`` finds the
    vertices it reaches and sums their degrees inside ``s``; ``s`` is a
    tree iff the walk reaches all of it and the sum is ``2(|s| - 1)``. The
    empty set is not a tree.
    """
    if s == 0:
        return False
    if s & ~g.full_mask:
        raise GraphError("vertex set has bits outside the graph")
    adj = g.adj
    degree_sum = 0
    seen = frontier = s & -s
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            row = adj[low.bit_length() - 1] & s
            degree_sum += row.bit_count()
            nxt |= row
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == s and degree_sum == 2 * (s.bit_count() - 1)


def closed_neighborhood(g: Graph, v: int) -> int:
    """``{v}`` together with the neighbors of ``v``, as a bitmask."""
    if not 0 <= v < g.n:
        raise _outside(f"vertex {v}", g.n)
    return g.adj[v] | 1 << v


def diameter(g: Graph) -> int:
    """Maximum shortest-path distance over vertex pairs; 0 for a single vertex.

    Raises :class:`GraphError` on disconnected (or empty) input.
    """
    if g.n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    adj = g.adj
    full = g.full_mask
    ecc_max = 0
    for v in range(g.n):
        seen = frontier = 1 << v
        dist = 0
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= adj[u]
            frontier = nxt & ~seen
            if frontier:
                dist += 1
                seen |= frontier
        if seen != full:
            raise GraphError("diameter of a disconnected graph is infinite")
        if dist > ecc_max:
            ecc_max = dist
    return ecc_max
