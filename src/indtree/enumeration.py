"""Isomorphism-free generation of connected triangle-free graphs.

Generation is by canonical augmentation: a graph on m+1 vertices is built
from a graph on m vertices by adding one new vertex adjacent to an
independent set (which preserves triangle-freeness), and the child is kept
only when the new vertex sits in the same automorphism orbit as the vertex
in the last position of the child's canonical labeling. Every isomorphism
class then arrives exactly once from exactly one parent class, so a
per-parent seen-set is the only deduplication needed.

Intermediate graphs may be disconnected; connectivity is enforced only on
the final n-vertex graphs. The search is depth-first, so memory stays
proportional to n, not to the class counts.

Orders 1..MAX_N are accepted. A default budget is the caller's: the n = 11
walk took 75 s, and the CLI asks for a flag before it starts n = 12.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .canon import are_rooted_isomorphic, canonical_labeling, last_cell
from .formats import to_graph6
from .graph import Graph, GraphError, RootedGraph, is_connected
from .solver import max_induced_tree_through

MAX_N = 12


@dataclass(frozen=True)
class EnumerationReport:
    """Exact minima of t(G) and t(G, v) over one vertex count.

    extremal_rooted lists every (graph6, root) pair attaining the rooted
    minimum; extremal_unrooted lists every graph6 attaining the unrooted
    minimum. Both are sorted, so reports are reproducible byte for byte;
    elapsed is wall-clock seconds and is excluded from any identity checks.
    """

    n: int
    graphs_seen: int
    t3: int
    t3_star: int
    t3_star_formula: int
    extremal_rooted: tuple[tuple[str, int], ...]
    extremal_unrooted: tuple[str, ...]
    elapsed: float


def t3_star_formula(n: int) -> int:
    """Smallest k with n <= 1 + (k-1)k/2, in pure integer arithmetic.

    This equals ceil((1 + sqrt(8n - 7)) / 2), the closed form for the
    minimum rooted tree number over connected triangle-free graphs on n
    vertices.
    """
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    k = 1
    while 1 + (k - 1) * k // 2 < n:
        k += 1
    return k


def _check_order(n: int, name: str = "n") -> None:
    """Raise GraphError unless 1 <= n <= MAX_N; ``name`` labels the message."""
    if not 1 <= n <= MAX_N:
        raise GraphError(f"{name} must be in 1..{MAX_N}, got {n}")


def enumerate_connected_triangle_free(n: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected
    triangle-free graphs on n vertices, 1 <= n <= MAX_N.

    Emission order is deterministic.
    """
    _check_order(n)
    yield from _extend(Graph.from_edge_list(1, []), n)


def _extend(g: Graph, target: int) -> Iterator[Graph]:
    if g.n == target:
        if is_connected(g):
            yield g
        return
    for child in _children(g):
        yield from _extend(child, target)


def _children(g: Graph) -> Iterator[Graph]:
    """Accepted one-vertex extensions of g, one per child class.

    A candidate whose new vertex lies outside the child's ``last_cell`` is
    in no orbit of the last canonical vertex, so ``_accept`` would reject
    it; it is dropped before any canonical labeling. The cell holds only
    vertices of largest degree, which the first test decides from g alone.
    """
    m = g.n
    new = m
    top = max(a.bit_count() for a in g.adj)
    top_mask = sum(1 << v for v, a in enumerate(g.adj) if a.bit_count() == top)
    emitted: set[bytes] = set()
    for s in _independent_sets(g):
        d = s.bit_count()  # degree of new; a vertex of top_mask in s gets top + 1
        if d < top or d == top and s & top_mask:
            continue  # an old vertex has a larger degree than new
        child = Graph(m + 1, tuple(a | (s >> v & 1) << new for v, a in enumerate(g.adj)) + (s,))
        if not last_cell(child) >> new & 1:
            continue
        form, perm = canonical_labeling(child)
        if form.data in emitted:
            continue
        last = perm.index(m)  # vertex in the final canonical position
        if _accept(child, new, last):
            emitted.add(form.data)
            yield child


def _accept(child: Graph, new: int, last: int) -> bool:
    """Is the new vertex in the same automorphism orbit as ``last``?

    Decided by rooted canonical forms, which is unconditionally correct;
    being merely interchangeable-by-deletion (pseudo-similar) is not enough.
    """
    return new == last or are_rooted_isomorphic(
        RootedGraph(child, new), RootedGraph(child, last)
    )


def _independent_sets(g: Graph) -> list[int]:
    """All independent vertex sets of g as bitmasks, the empty set included."""
    sets = [0]
    for v in range(g.n):
        av = g.adj[v]
        bit = 1 << v
        sets += [s | bit for s in sets if not av & s]
    return sets


def rooted_census(n: int) -> Iterator[tuple[Graph, str, tuple[int, ...]]]:
    """Yield (g, graph6, sizes) for every class on n vertices, sizes[v] = t(G, v).

    One enumeration walk and one rooted solve per (G, v). Every exhaustive
    claim over rooted graphs reads this stream; t(G) is max(sizes).
    """
    for g in enumerate_connected_triangle_free(n):
        g6 = to_graph6(g).decode("ascii")
        yield g, g6, tuple(max_induced_tree_through(RootedGraph(g, v)).size for v in range(n))


def tabulate(n: int) -> EnumerationReport:
    """Exact t3(n) and t3_star(n) with every extremal witness.

    One pass over rooted_census: every vertex of every graph is tried as the
    root, and t(G) is the largest of those rooted values.
    """
    start = time.perf_counter()
    seen = 0
    t3 = n + 1
    t3s = n + 1
    ext_unrooted: list[str] = []
    ext_rooted: list[tuple[str, int]] = []
    for _, g6, sizes in rooted_census(n):
        seen += 1
        tg = max(sizes)
        if tg < t3:
            t3 = tg
            ext_unrooted = [g6]
        elif tg == t3:
            ext_unrooted.append(g6)
        for v, tv in enumerate(sizes):
            if tv < t3s:
                t3s = tv
                ext_rooted = [(g6, v)]
            elif tv == t3s:
                ext_rooted.append((g6, v))
    if seen == 0:
        raise AssertionError(f"no connected triangle-free graphs on {n} vertices")
    return EnumerationReport(
        n=n,
        graphs_seen=seen,
        t3=t3,
        t3_star=t3s,
        t3_star_formula=t3_star_formula(n),
        extremal_rooted=tuple(sorted(ext_rooted)),
        extremal_unrooted=tuple(sorted(ext_unrooted)),
        elapsed=time.perf_counter() - start,
    )
