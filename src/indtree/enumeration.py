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

Each node carries its automorphism group (McKay's orbit pruning,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): the
automorphisms that canon stored while labeling it, or, when the group is
the product of the symmetric groups on its classes of false twins
(vertices with equal rows), the masks of those classes, the
"known automorphisms" that McKay and Piperno's search starts from
("Practical graph isomorphism, II", 2014). One candidate set per orbit of
that group is tried, and a child is accepted when its own group maps the
new vertex to the last canonical one.

As in McKay's generator and geng, cheap invariants decide first: the last
cell of a candidate's equitable partition holds the last canonical vertex
and is a union of orbits. A new vertex outside it is rejected, and at the
last level a new vertex that is the whole cell is accepted, before any
refinement when its degree alone is the largest, and so is one whose cell
holds only it and its false twins. The refinement stops as soon as the
last cell settles either question, since later splits only shrink it.
Below the last level, a candidate whose finished partition has twin
classes for cells is accepted with that group, since no automorphism moves
a vertex out of its cell. Only the other candidates are labeled, and canon's
search starts at their finished partition rather than refining them again.

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
# filling that cell; the inner candidates whose finished partition has
# twin classes for cells; the labelings of the rest. Each candidate takes
# one of these decisions, so sums of them count the candidates and those
# refined
COUNTERS = dict.fromkeys(
    ("walks", "leaf_sets", "degree", "rejected", "settled", "twins", "twin_cells", "labelings"), 0
)

Automorphisms = tuple[tuple[int, ...], ...]


class TwinClasses(tuple):
    """The masks of the twin classes of two or more vertices of a graph
    whose automorphism group is the product of the symmetric groups on its
    twin classes; a node carries them in place of generating maps."""


Group = Automorphisms | TwinClasses


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


def _extend(g: Graph, group: Group, target: int) -> Iterator[Graph]:
    """Leaves of order ``target`` below g; ``group`` is g's automorphism
    group, as ``_children`` takes it."""
    if g.n == target:
        yield g
        return
    for child, child_group in _children(g, group, g.n + 1 == target):
        yield from _extend(child, child_group, target)


def _children(g: Graph, group: Group, leaves: bool) -> Iterator[tuple[Graph, Group]]:
    """Accepted one-vertex extensions of g, one per child class, each with
    its automorphism group.

    ``group`` is g's group, given either by maps that generate it, K1's
    ``()`` among them, or as ``TwinClasses`` when it is the product of the
    symmetric groups on g's twin classes. ``leaves`` says that the children
    are leaves of the walk: their groups are never read, and a
    disconnected one is never wanted.
    ``_independent_sets`` lists the candidate sets, and when ``leaves`` is
    set only those that meet every component of g: it drops the others
    while it builds them. The components are passed only when there are
    two or more, or when g is K1, whose empty set is the one set of at
    least ``top`` = 0 vertices that misses its single component. Every
    degree rule is applied here: only the listed sets of at least ``top``
    vertices, the largest degree of g, are kept, and a kept set is dropped
    before its child is built when
    - some old vertex of the child has a larger degree than the new one:
      canon puts a vertex of largest degree last, so the new vertex is not
      in the orbit of the last canonical vertex and would be rejected;
    - the group maps an earlier tried set onto it. The two children are
      isomorphic by a map that fixes the new vertex, so they share their
      form and accept decision, and the earlier one has decided both.
      Accepted children from two orbits are never isomorphic (McKay's
      lemma), so no seen-set is needed. Under maps, the orbits of tried
      sets are collected. Under twin classes no orbit is built: the sets
      are listed in increasing order, and the group maps a listed set to
      listed sets only (the degree cut, the size bound and the components
      to meet are invariant), so a set is the first of its orbit exactly
      when it meets each class in that class's lowest vertices.

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
    This covers the cell of the new vertex alone. Below the last level the
    refinement is finished, resumed from where ``settle`` stopped it. If
    every cell is then a twin class (as many cells as distinct rows), each
    automorphism keeps each cell and each permutation of a twin class is an
    automorphism, so the group is the product of the symmetric groups on
    the cells, and its orbits are the cells. The new vertex lies in the
    last cell, so the child is accepted without a labeling and yielded with
    its cells of two or more vertices as ``TwinClasses``. Otherwise the
    child is labeled, and yielded with the automorphisms that canon
    stored, which generate its group. Its cells go to
    ``canonical_labeling`` as the equitable partition that the search
    starts at. They are finished at either level: a leaf's refinement
    stops early only when its last cell misses the new vertex or is the new
    vertex alone, and both decide the leaf unlabeled.
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
    twins = group if isinstance(group, TwinClasses) else None
    tried: set[int] = set()  # every image of a tried set under the maps
    sets = [s for s in _independent_sets(g, meet) if s.bit_count() >= top]
    if leaves:
        COUNTERS["leaf_sets"] += len(sets)
    for s in sets:
        # new has degree |s| >= top; an old vertex has at most top + 1,
        # and top + 1 only when it is a vertex of top_mask in s
        size = s.bit_count()
        if s & top_mask and size == top:
            continue  # an old vertex has a larger degree than new
        if twins is not None:
            if not _leads_its_orbit(s, twins):
                continue  # an automorphic image of an earlier set
        elif s in tried:
            continue  # an automorphic image of a tried set
        else:
            tried |= _orbit(s, group)
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
        cells = _refine(child.adj, [child.full_mask], settle=1 << new)
        last = cells[-1]
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
        else:
            if last == 1 << new:  # the refinement may have stopped early
                cells = _refine(child.adj, cells)
            if len(cells) == len(set(child.adj)):
                # every cell is a twin class, so the group is the product of
                # their symmetric groups, and new is in the last cell's orbit
                COUNTERS["twin_cells"] += 1
                yield child, TwinClasses(c for c in cells if c & (c - 1))
                continue
        COUNTERS["labelings"] += 1
        form, perm = canonical_labeling(child, cells=cells)
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


def _leads_its_orbit(s: int, twins: TwinClasses) -> bool:
    """Whether ``s`` is the least set of its orbit under the product of the
    symmetric groups on ``twins``: whether it meets each class in that
    class's lowest vertices."""
    for c in twins:
        x = s & c
        if x != c & ((1 << x.bit_length()) - 1):
            return False
    return True


def _components(g: Graph) -> list[int]:
    """Vertex masks of the connected components of g."""
    out = []
    rest = g.full_mask
    while rest:
        c = _component_of(g.adj, rest & -rest, rest)
        out.append(c)
        rest &= ~c
    return out


def _independent_sets(g: Graph, meet: Iterable[int] = ()) -> list[int]:
    """The independent vertex sets of g that meet every (non-empty) mask of
    ``meet``, as bitmasks in increasing order; the empty set is one when
    ``meet`` is empty.

    A partial set is dropped once the loop has passed the highest vertex of
    a mask of ``meet`` that it misses; the sets kept are those of the
    unfiltered list, in its order. Size bounds are the caller's:
    ``_children`` keeps the sets of at least ``top`` vertices."""
    sets = [0]
    ends: dict[int, list[int]] = {}  # highest vertex -> the masks of meet it ends
    for c in meet:
        ends.setdefault(c.bit_length() - 1, []).append(c)
    for v, av in enumerate(g.adj):
        bit = 1 << v
        grown = [s | bit for s in sets if not av & s]
        # a grown set holds v, so it meets every mask that v ends; a set
        # without v meets none of them later
        for c in ends.get(v, ()):
            sets = [s for s in sets if s & c]
        sets += grown
    return sets
