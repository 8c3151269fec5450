"""Isomorphism-free generation of connected triangle-free graphs.

Generation is by canonical augmentation: a graph on m+1 vertices is built
from a graph on m vertices by adding one new vertex adjacent to an
independent set (which preserves triangle-freeness), and the child is kept
only when the new vertex sits in the same automorphism orbit as the vertex
in the last position of the child's canonical labeling. Every isomorphism
class then arrives exactly once, from exactly one parent class.

Intermediate graphs may be disconnected. At the last level the candidate
sets are listed only among those that meet every component of the parent,
since any other set gives a disconnected child; so every n-vertex graph
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
last level a new vertex that is the whole cell is accepted, before any
refinement when its degree alone is the largest, and so is one whose cell
holds only it and its false twins. The refinement stops as soon as the
last cell settles either question, since later splits only shrink it. Only
the other candidates are labeled.

Orders 1..MAX_N are accepted. A default budget is the caller's: n = 12
runs far longer than n = 11, and the CLI asks for a flag before it starts
n = 12.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .canon import _closure, _refine, canonical_labeling
from .graph import Graph, GraphError, _component_of

MAX_N = 12

# work done since import, read as differences around a run: the walks
# started; the candidate sets listed at the last level of a walk; the
# leaves accepted by degree; the partition's rejects, and the leaves
# accepted by the new vertex alone in the last cell and by its false twins
# filling that cell; the labelings of the rest. Each candidate takes one of
# these decisions, so sums of them count the candidates and those refined
COUNTERS = dict.fromkeys(("walks", "leaf_sets", "degree", "rejected", "settled", "twins", "labelings"), 0)

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
    COUNTERS["walks"] += 1
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
    Only sets of at least ``top`` vertices, the largest degree of g, are
    listed, and when ``leaves`` is set only those that meet every
    component of g: ``_independent_sets`` drops the others while it builds
    them. The components are passed only when there are two or more, or
    when g is K1, whose empty set is the one set of at least ``top`` = 0
    vertices that misses its single component. A listed set is dropped
    before its child is built when
    - some old vertex of the child has a larger degree than the new one:
      canon puts a vertex of largest degree last, so the new vertex is not
      in the orbit of the last canonical vertex and would be rejected;
    - the group generated by ``autos`` maps an earlier tried set onto it.
      The two children are isomorphic by a map that fixes the new vertex,
      so they share their form and accept decision, and the earlier one
      has decided both. Accepted children from two orbits are never
      isomorphic (McKay's lemma), so no seen-set is needed.

    Every other candidate is built. At the last level one whose new vertex
    has a larger degree than every old vertex, |s| > top, or > top + 1
    when s holds a vertex of degree top, is yielded with ``()`` at once:
    the first degree split of the refinement puts the new vertex alone in
    the last cell. The others are refined from the unit partition towards
    its equitable partition, whose last cell holds the last canonical
    vertex and is a union of orbits. The refinement stops once its last
    cell misses the new vertex or is the new vertex alone (``_refine``'s
    ``settle``); later splits would only shrink that cell, so the answer is
    the finished refinement's. A new vertex outside the cell is rejected.
    If ``leaves`` is set and every other vertex of the cell is a false twin
    of the new one (its row in g is s), the child is accepted and yielded
    with ``()``: the last canonical vertex lies in the cell, and each twin
    swap is an automorphism, so that vertex is in the new vertex's orbit.
    This covers the cell of the new vertex alone. Otherwise the child is
    labeled.
    """
    m = g.n
    new = m
    top = max(a.bit_count() for a in g.adj)
    top_mask = sum(1 << v for v, a in enumerate(g.adj) if a.bit_count() == top)
    meet = ()
    if leaves:
        components = _components(g)
        if len(components) > 1 or not top:
            meet = components  # with one component only K1's empty set misses it
    tried: set[int] = set()  # every image of a tried set under autos
    sets = _independent_sets(g, top, meet)
    if leaves:
        COUNTERS["leaf_sets"] += len(sets)
    for s in sets:
        # new has degree |s| >= top; an old vertex has at most top + 1,
        # and top + 1 only when it is a vertex of top_mask in s
        size = s.bit_count()
        if s & top_mask and size == top:
            continue  # an old vertex has a larger degree than new
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
        if leaves and size > top + (s & top_mask != 0):
            COUNTERS["degree"] += 1
            yield child, ()  # new alone has the largest degree
            continue
        last = _refine(child.adj, [child.full_mask], settle=1 << new)[-1]
        if not last >> new & 1:
            COUNTERS["rejected"] += 1
            continue  # the last canonical vertex is in the last cell, new is not
        if leaves:
            rest = last ^ 1 << new
            while rest:  # is every other vertex of the cell a false twin of new?
                low = rest & -rest
                if g.adj[low.bit_length() - 1] != s:
                    break
                rest ^= low
            else:
                COUNTERS["twins" if last ^ 1 << new else "settled"] += 1
                yield child, ()  # the last canonical vertex is new or its twin
                continue
        COUNTERS["labelings"] += 1
        form, perm = canonical_labeling(child)
        # new's orbit holds the vertex in the final canonical position
        if _closure(1 << new, form.automorphisms) >> perm.index(m) & 1:
            yield child, form.automorphisms


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


def _independent_sets(g: Graph, least: int = 0, meet: Iterable[int] = ()) -> list[int]:
    """The independent vertex sets of g with at least ``least`` vertices
    that meet every (non-empty) mask of ``meet``, as bitmasks in increasing
    order; the empty set is one when ``least`` is 0 and ``meet`` is empty.

    A partial set is dropped as soon as the vertices left cannot bring it
    to ``least``, or once the loop has passed the highest vertex of a mask
    of ``meet`` that it misses; the sets kept are those of the unbounded
    list, in its order."""
    sets = [0] if least <= g.n else []
    ends: dict[int, list[int]] = {}  # highest vertex -> the masks of meet it ends
    for c in meet:
        ends.setdefault(c.bit_length() - 1, []).append(c)
    for v, av in enumerate(g.adj):
        bit = 1 << v
        grown = [s | bit for s in sets if not av & s]
        # once v is decided a set needs ``need`` vertices; a grown set has
        # them, since its parent had need - 1. need first exceeds 0 at 1,
        # where only the empty set, always first if still there, falls short
        need = least - (g.n - 1 - v)
        if need == 1:
            if sets and not sets[0]:
                del sets[0]
        elif need > 1:
            sets = [s for s in sets if s.bit_count() >= need]
        # a grown set holds v, so it meets every mask that v ends; a set
        # without v meets none of them later
        for c in ends.get(v, ()):
            sets = [s for s in sets if s & c]
        sets += grown
    return sets
