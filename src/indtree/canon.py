"""Canonical labeling via partition refinement and individualization.

The canonical form of a (optionally vertex-colored) graph is the
lexicographically minimal row-major upper-triangle bit string of the
adjacency matrix, minimized over all labelings that respect the equitable
refinement of the color partition. Two graphs get equal forms exactly when
they are (color-preserving) isomorphic.

The backtracking search individualizes one vertex of the first non-singleton
cell at a time. Automorphisms discovered when two leaves tie on the minimal
encoding are reused to prune sibling branches, which keeps highly symmetric
inputs (empty graphs, complete bipartite blowups) from exploding; pruning
never changes the minimum, since a skipped branch is the image of an explored
one under a known automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .graph import Graph, GraphError, RootedGraph, bits

_MAX_STORED_AUTOMORPHISMS = 200


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-class certificate: equal ``data`` iff isomorphic.

    ``data`` embeds the vertex count and the color multiset, so forms of
    different sizes or colorings never collide. ``colors`` records the input
    assignment and does not participate in equality.
    """

    data: bytes
    n: int
    colors: tuple[int, ...] | None = field(default=None, compare=False)


def canonical_form(g: Graph, colors: Sequence[int] | None = None) -> CanonicalForm:
    """Canonical form of ``g``; ``colors`` assigns one int per vertex."""
    form, _ = canonical_labeling(g, colors)
    return form


def canonical_labeling(
    g: Graph, colors: Sequence[int] | None = None
) -> tuple[CanonicalForm, tuple[int, ...]]:
    """Canonical form plus one labeling achieving it.

    The labeling maps each original vertex to its canonical position; any
    relabeled copy of ``g`` yields the same form and an equivalent labeling.
    """
    n = g.n
    color_tuple: tuple[int, ...] | None = None
    if colors is not None:
        color_tuple = tuple(colors)
        if len(color_tuple) != n:
            raise GraphError(f"expected {n} colors, got {len(color_tuple)}")
    if n == 0:
        return CanonicalForm(_pack(0, color_tuple, 0), 0, color_tuple), ()

    if color_tuple is None:
        cells = [(1 << n) - 1]
    else:
        cells = [
            _mask_where(color_tuple, c) for c in sorted(set(color_tuple))
        ]
    code, perm = _search(g.adj, n, cells)
    return CanonicalForm(_pack(n, color_tuple, code), n, color_tuple), perm


def are_rooted_isomorphic(a: RootedGraph, b: RootedGraph) -> bool:
    """True iff some isomorphism maps ``a.root`` to ``b.root``.

    Implemented by giving the root a unique color and comparing canonical
    forms.
    """
    if a.graph.n != b.graph.n:
        return False
    ca = canonical_form(a.graph, _root_colors(a.graph.n, a.root))
    cb = canonical_form(b.graph, _root_colors(b.graph.n, b.root))
    return ca.data == cb.data


def _root_colors(n: int, root: int) -> tuple[int, ...]:
    return tuple(1 if v == root else 0 for v in range(n))


def _mask_where(colors: tuple[int, ...], value: int) -> int:
    m = 0
    for v, c in enumerate(colors):
        if c == value:
            m |= 1 << v
    return m


def _pack(n: int, colors: tuple[int, ...] | None, code: int) -> bytes:
    head = n.to_bytes(4, "big")
    if colors is None:
        head += b"\x00"
    else:
        head += b"\x01"
        head += b"".join(
            c.to_bytes(8, "big", signed=True) for c in sorted(colors)
        )
    nbits = n * (n - 1) // 2
    return head + code.to_bytes((nbits + 7) // 8 or 1, "big")


def _refine(
    adj: tuple[int, ...], cells: list[int], stable: frozenset[int] = frozenset()
) -> list[int]:
    """Equitable refinement: split cells by degree into every cell, smallest
    degree first, until stable. Deterministic in the cell order, so the
    result is isomorphism-invariant.

    Each split is made at the first unstable (splitter w, cell c) pair in
    scan order, w-major. Splitting only refines, and a piece of a cell that
    is stable with respect to some w is stable with respect to it too, so
    every pair scanned before the split stays stable. The scan therefore
    resumes where a restart from the first pair would find its first
    unstable pair, and the splits, and the ordered result, are those of
    that restart.

    ``stable`` holds masks known to split no cell of ``cells``, such as
    the cells of an equitable partition that ``cells`` refines; the scan
    passes over them as splitters, since it would find no split there.

    Degrees into w are held bit-sliced: vertex v has degree
    sum(2**j for j, p in enumerate(planes) if p >> v & 1), so a cell is
    stable when every plane holds all of it or none of it.
    """
    wi = ci = 0
    k = len(cells)
    while wi < k:
        w = cells[wi]
        if w in stable:
            wi += 1
            continue
        planes: list[int] = []
        rest = w
        while rest:  # add each neighbourhood of a w vertex, ripple carry
            low = rest & -rest
            rest ^= low
            carry = adj[low.bit_length() - 1]
            j = 0
            while carry:
                if j == len(planes):
                    planes.append(carry)
                    break
                p = planes[j]
                planes[j] = p ^ carry
                carry &= p
                j += 1
        while ci < k:
            c = cells[ci]
            if c & (c - 1):  # two or more vertices
                for p in planes:
                    x = c & p
                    if x and x != c:
                        break
                else:
                    ci += 1
                    continue
                pieces = [c]
                for p in reversed(planes):  # most significant plane first
                    split = []
                    for x in pieces:
                        hi = x & p
                        if hi and hi != x:
                            split += (x ^ hi, hi)
                        else:
                            split.append(x)
                    pieces = split
                cells[ci : ci + 1] = pieces
                k += len(pieces) - 1
                if ci <= wi:
                    # the splitter or a cell before it changed: resume
                    # with the first piece as the splitter
                    wi, ci = ci, 0
                    break
                ci += len(pieces)
            else:
                ci += 1
        else:
            wi, ci = wi + 1, 0
    return cells


def last_cell(g: Graph) -> int:
    """Last cell, as a bitmask, of the equitable refinement of g's unit partition.

    ``canonical_labeling`` refines this partition first and then only
    individualizes and refines further; each split replaces a cell by its
    pieces in place and keeps the order of the cells. So the vertex that the
    labeling puts in the final position, n - 1, always lies in this cell.
    The cell is isomorphism-invariant and hence a union of Aut(g) orbits: a
    vertex outside it is in no orbit of the final vertex. The first split
    orders the cells by degree, smallest first, so the cell holds only
    vertices of largest degree.
    """
    return _refine(g.adj, [(1 << g.n) - 1])[-1]


def _search(
    adj: tuple[int, ...], n: int, init_cells: list[int]
) -> tuple[int, tuple[int, ...]]:
    """Minimal encoding and a labeling achieving it."""
    best_code: int | None = None
    best_perm: list[int] | None = None
    best_inv: list[int] | None = None
    autos: list[tuple[int, ...]] = []

    def leaf(cells: list[int]) -> None:
        nonlocal best_code, best_perm, best_inv
        order = [c.bit_length() - 1 for c in cells]  # position -> vertex
        code = 0
        for i in range(n):
            ai = adj[order[i]]
            row = 0
            for j in range(i + 1, n):
                row = row << 1 | (ai >> order[j] & 1)
            code = code << (n - 1 - i) | row
        if best_code is None or code < best_code:
            best_code = code
            perm = [0] * n
            for pos, v in enumerate(order):
                perm[v] = pos
            best_perm = perm
            best_inv = order
        elif code == best_code and len(autos) < _MAX_STORED_AUTOMORPHISMS:
            assert best_inv is not None and best_perm is not None
            phi = [0] * n
            for pos, v in enumerate(order):
                phi[v] = best_inv[pos]
            if any(phi[v] != v for v in range(n)):
                autos.append(tuple(phi))

    def descend(cells: list[int], base: tuple[int, ...], stable: frozenset[int]) -> None:
        cells = _refine(adj, cells, stable)
        target = -1
        for ci, c in enumerate(cells):
            if c.bit_count() > 1:
                target = ci
                break
        if target < 0:
            leaf(cells)
            return
        cell = cells[target]
        equitable = frozenset(cells)  # no cell splits a refinement of cells
        explored = 0
        gens: list[tuple[int, ...]] = []  # stored automorphisms fixing the base
        checked = 0
        for v in bits(cell):
            # skip v if an automorphism fixing the base maps it into an
            # already-explored sibling's orbit
            for a in autos[checked:]:
                if all(a[b] == b for b in base):
                    gens.append(a)
            checked = len(autos)
            orbit = 1 << v
            if gens:
                stack = [v]
                while stack:
                    u = stack.pop()
                    for a in gens:
                        w = a[u]
                        if not orbit >> w & 1:
                            orbit |= 1 << w
                            stack.append(w)
            if orbit & explored:
                continue
            explored |= 1 << v
            child = cells[:target] + [1 << v, cell & ~(1 << v)] + cells[target + 1 :]
            descend(child, base + (v,), equitable)

    descend(list(init_cells), (), frozenset())
    assert best_code is not None and best_perm is not None
    return best_code, tuple(best_perm)
