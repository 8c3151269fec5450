"""Isomorphism-free generation of connected triangle-free graphs.

Generation is by canonical augmentation: a graph on m+1 vertices is built
from a graph on m vertices by adding one new vertex adjacent to an
independent set (which preserves triangle-freeness), and the child is kept
only when the new vertex sits in the same automorphism orbit as the vertex
in the last position of the child's canonical labeling. Every isomorphism
class then arrives exactly once, from exactly one parent class.

Intermediate graphs may be disconnected. At the last level a candidate
whose independent set misses a component of its parent is dropped before it
is built, since its child would be disconnected; so every n-vertex graph
reached is connected. The search is depth-first, so memory stays
proportional to n, not to the class counts.

Each node carries the automorphisms that canon stored while labeling it,
which generate its automorphism group (McKay's orbit pruning, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998). One candidate set per orbit
of that group is tried, and a child is accepted when its own automorphisms
map the new vertex to the last canonical one.

As in McKay's generator and geng, cheap invariants decide first: the last
cell of a candidate's equitable partition holds the last canonical vertex
and is a union of orbits. A new vertex outside it is rejected, and at the
last level a new vertex that is the whole cell is accepted. Only the other
candidates are labeled.

Orders 1..MAX_N are accepted. A default budget is the caller's: the n = 11
walk takes about 13 s (shared 2-core Xeon, CPython 3.11.7), and the CLI
asks for a flag before it starts n = 12.
"""

from __future__ import annotations

from typing import Iterator

from .canon import canonical_labeling, equitable_partition
from .graph import Graph, GraphError, _component_of

MAX_N = 12

Automorphisms = tuple[tuple[int, ...], ...]


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
    yield from _extend(Graph.from_edge_list(1, []), (), n)


def _extend(g: Graph, autos: Automorphisms, target: int) -> Iterator[Graph]:
    """Leaves of order ``target`` below g; ``autos`` are automorphisms of g."""
    if g.n == target:
        yield g
        return
    for child, child_autos in _children(g, autos, g.n + 1 == target):
        yield from _extend(child, child_autos, target)


def _children(
    g: Graph, autos: Automorphisms, leaves: bool
) -> Iterator[tuple[Graph, Automorphisms]]:
    """Accepted one-vertex extensions of g, one per child class, each with
    the automorphisms canon stored for it.

    ``autos`` generate the automorphism group of g; K1's ``()`` does.
    ``leaves`` says that the children are leaves of the walk: their
    automorphisms are never read, and a disconnected one is never wanted.
    A candidate set is dropped before it is built when
    - some old vertex of the child has a larger degree than the new one:
      canon puts a vertex of largest degree last, so the new vertex is in
      no orbit of the last canonical vertex and ``_accept`` would reject it;
    - ``leaves`` is set and the set misses a component of g, so the
      child is disconnected;
    - the group generated by ``autos`` maps an earlier tried set onto it.
      The two children are isomorphic by a map that fixes the new vertex,
      so they share their form and accept decision, and the earlier one
      has decided both. Accepted children from two orbits are never
      isomorphic (McKay's lemma), so no seen-set is needed.

    Every other candidate is built, and its equitable partition is
    refined once. The last cell holds the last canonical vertex and is a
    union of orbits, so a new vertex outside it is rejected. If ``leaves``
    is set and the cell is the new vertex alone, the child is accepted and
    yielded with ``()``. Otherwise the child is labeled.
    """
    m = g.n
    new = m
    top = max(a.bit_count() for a in g.adj)
    top_mask = sum(1 << v for v, a in enumerate(g.adj) if a.bit_count() == top)
    components = _components(g) if leaves else []
    tried: set[int] = set()  # every image of a tried set under autos
    for s in _independent_sets(g):
        d = s.bit_count()  # degree of new; a vertex of top_mask in s gets top + 1
        if d < top or d == top and s & top_mask:
            continue  # an old vertex has a larger degree than new
        if components and any(not s & c for c in components):
            continue  # the child is disconnected
        if s in tried:
            continue  # an automorphic image of a tried set
        tried |= _orbit(s, autos)
        rows = list(g.adj)
        rest = s
        while rest:  # new joins exactly the vertices of s
            low = rest & -rest
            rows[low.bit_length() - 1] |= 1 << new
            rest ^= low
        rows.append(s)
        # symmetric and loop-free by construction, so Graph's checks are skipped
        child = Graph._trusted(m + 1, tuple(rows))
        cells = equitable_partition(child)
        if not cells[-1] >> new & 1:
            continue  # the last canonical vertex is in the last cell, new is not
        if leaves and cells[-1] == 1 << new:
            yield child, ()  # new is put last
            continue
        form, perm = canonical_labeling(child)
        last = perm.index(m)  # vertex in the final canonical position
        if _accept(new, last, form.automorphisms):
            yield child, form.automorphisms


def _accept(new: int, last: int, autos: Automorphisms) -> bool:
    """Is the new vertex in the same automorphism orbit as ``last``? ``autos``
    generate the child's automorphism group, so their orbit decides; the
    walk over it stops once it meets ``last``."""
    seen = 1 << new
    stack = [new]
    while stack:
        u = stack.pop()
        if u == last:
            return True
        for phi in autos:
            w = phi[u]
            if not seen >> w & 1:
                seen |= 1 << w
                stack.append(w)
    return False


def _orbit(s: int, autos: Automorphisms) -> set[int]:
    """Orbit of the vertex set ``s`` under the group generated by ``autos``."""
    orbit = {s}
    if not autos:
        return orbit
    stack = [s]
    while stack:
        x = stack.pop()
        for phi in autos:
            y = 0
            rest = x
            while rest:
                low = rest & -rest
                y |= 1 << phi[low.bit_length() - 1]
                rest ^= low
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def _components(g: Graph) -> list[int]:
    """Vertex masks of the connected components of g."""
    out = []
    rest = g.full_mask
    while rest:
        c = _component_of(g.adj, rest & -rest, rest)
        out.append(c)
        rest &= ~c
    return out


def _independent_sets(g: Graph) -> list[int]:
    """All independent vertex sets of g as bitmasks, the empty set included."""
    sets = [0]
    for v in range(g.n):
        av = g.adj[v]
        bit = 1 << v
        sets += [s | bit for s in sets if not av & s]
    return sets
