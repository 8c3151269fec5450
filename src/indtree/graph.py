"""Immutable bitset graphs.

Vertices are ``0..n-1``. A vertex set is a plain ``int`` bitmask (bit ``v``
set means vertex ``v`` is in the set), which keeps search loops
allocation-free; :func:`mask_of` and :func:`vertex_list` convert to and from
explicit vertex collections. Adjacency is stored as one neighbor mask per
vertex, symmetric and loop-free.
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


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertex_list(mask: int) -> list[int]:
    """Sorted vertices of a bitmask."""
    return list(bits(mask))


class Graph:
    """Simple undirected graph on vertices ``0..n-1`` with bitmask adjacency.

    Instances are immutable after construction and safe to share; every
    operation on them is a pure function.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        rows = tuple(adj)
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for u, row in enumerate(rows):
            if row < 0 or row & ~full:
                raise GraphError(f"adjacency row {u} has bits outside 0..{n - 1}")
            if row >> u & 1:
                raise GraphError(f"self-loop at vertex {u}")
        for u, row in enumerate(rows):
            for v in bits(row):
                if not rows[v] >> u & 1:
                    raise GraphError(f"asymmetric edge ({u}, {v})")
        self.n = n
        self.adj = rows

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
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
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
            raise GraphError(f"root {self.root} outside 0..{self.graph.n - 1}")


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
    seen = seed & allowed
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def induced_edge_count(g: Graph, s: int) -> int:
    """Number of edges of ``g`` with both endpoints in the vertex set ``s``."""
    adj = g.adj
    return sum((adj[v] & s).bit_count() for v in bits(s)) // 2


def is_induced_tree(g: Graph, s: int) -> bool:
    """True iff ``s`` is nonempty and induces a connected, acyclic subgraph.

    Equivalently: the induced subgraph is connected with exactly ``|s| - 1``
    edges. The empty set is not a tree.
    """
    if s == 0:
        return False
    if s & ~g.full_mask:
        raise GraphError("vertex set has bits outside the graph")
    k = s.bit_count()
    if induced_edge_count(g, s) != k - 1:
        return False
    return _component_of(g.adj, s & -s, s) == s


def closed_neighborhood(g: Graph, v: int) -> int:
    """``{v}`` together with the neighbors of ``v``, as a bitmask."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} outside 0..{g.n - 1}")
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
