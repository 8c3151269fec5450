"""Canonical labeling via partition refinement and individualization.

The canonical form of a (optionally rooted) graph is the lexicographically
minimal row-major upper-triangle bit string of the adjacency matrix,
minimized over all labelings that respect the equitable refinement of the
unit partition, or of the partition that puts the root alone. Two graphs
get equal forms exactly when they are (root-preserving) isomorphic.

The backtracking search individualizes one vertex of the first non-singleton
cell at a time. Automorphisms discovered when two leaves tie on the minimal
encoding prune sibling branches, and each tie returns the search to the two
leaves' common ancestor, as in nauty. The swaps of false twins, vertices
with equal rows, are automorphisms known before the search; they are
stored before it starts, so the siblings they relate are pruned without
first reaching a tie. A cell of false twins is individualized in one
step, in index order, without a node per twin: individualizing a twin
splits no cell, and the swaps prune every sibling. This keeps highly
symmetric inputs (empty graphs, complete bipartite blowups) from
exploding, and never changes the labeling, since a skipped branch is the
image of an explored one.

Cells keep their order through every split, and the first split orders them
by degree, so an unrooted graph's last canonical vertex has the largest
degree and lies in the last cell of ``_refine(adj, [full])``, the equitable
refinement of the unit partition that the search starts below. Each cell is
a union of automorphism orbits. Enumeration relies on these facts to decide
most candidates without a search, and refines only until the new vertex's
place in the last cell is settled (``_refine``'s ``settle``). For the
candidates it does label it holds the finished refinement, and hands it to
``canonical_labeling`` as ``cells``: the search then starts at that
partition, as McKay and Piperno's does below known equitable cells, and
does not refine the unit partition a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, GraphError, RootedGraph, _outside, bits

# work done since import, never reset; read as differences around a run:
# ``searches``, the labeling searches, and ``nodes``, their nodes, one
# refinement each. A cell of false twins that a node individualizes in one
# step, twin after twin in index order, adds no node: it splits nothing,
# and every sibling would be pruned
COUNTERS = {"searches": 0, "nodes": 0}


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-class certificate: equal ``data`` iff isomorphic.

    ``data`` embeds the vertex count and a root flag, so forms of different
    sizes, or a rooted and an unrooted form, never collide. ``automorphisms``
    holds non-identity automorphisms of the input (``phi[v]`` is the image
    of ``v``): first the swaps of consecutive false twins other than the
    root, then those that the labeling search met at tying leaves. Together
    they generate the whole root-fixing automorphism group. They do not
    participate in equality.
    """

    data: bytes
    automorphisms: tuple[tuple[int, ...], ...] = field(default=(), compare=False)


def canonical_form(g: Graph, root: int | None = None) -> CanonicalForm:
    """Canonical form of ``g``, rooted at ``root`` when one is given."""
    form, _ = canonical_labeling(g, root)
    return form


def canonical_labeling(
    g: Graph, root: int | None = None, *, cells: list[int] | None = None
) -> tuple[CanonicalForm, tuple[int, ...]]:
    """Canonical form plus one labeling achieving it.

    The labeling maps each original vertex to its canonical position; any
    relabeled copy of ``g`` yields the same form and an equivalent labeling.
    A ``root`` is individualized before the search, so the form and the
    automorphisms are those of ``g`` rooted there. Without a root, the
    vertex put in the final position, n - 1, has the largest degree in ``g``
    and lies in the last cell of ``_refine(g.adj, [g.full_mask])``: the
    first refinement orders the cells by degree, smallest first, and every
    later split, by refinement or by individualization, replaces a cell by
    its pieces in place.

    ``cells``, for an unrooted labeling only, hands over that refinement
    when the caller has it: the cell masks, in order, of
    ``_refine(g.adj, [g.full_mask])`` (``[]`` for n = 0). The search starts
    at them as its equitable root partition instead of refining the unit
    partition, so the form, the labeling, the automorphisms and the node
    count are those of the plain call. Only their shape is checked: cells
    that are not a partition of the vertices into nonempty disjoint masks,
    or cells given with a root, raise GraphError. Other cells give a
    labeling that need not be canonical.
    """
    n = g.n
    full = (1 << n) - 1
    if cells is not None:
        if root is not None:
            raise GraphError("cells are the unrooted refinement; give no root with them")
        _check_partition(cells, full)
    elif root is None:
        start = [full]
    elif isinstance(root, int) and 0 <= root < n:
        start = [c for c in (full ^ 1 << root, 1 << root) if c]
    else:
        raise _outside(f"root {root}", n)
    if n == 0:
        return CanonicalForm(_pack(0, False, 0)), ()
    if cells is None:
        cells = _refine(g.adj, start)
    code, perm, autos = _search(g.adj, n, cells, _twin_swaps(g.adj, root))
    return CanonicalForm(_pack(n, root is not None, code), autos), perm


def _check_partition(cells: list[int], full: int) -> None:
    """Raise GraphError unless ``cells`` are nonempty disjoint masks whose
    union is ``full``."""
    seen = 0
    for c in cells:
        if not isinstance(c, int) or c <= 0 or c & seen or c & ~full:
            raise GraphError(f"cells {cells!r} are no partition of the vertices into nonempty cells")
        seen |= c
    if seen != full:
        raise GraphError(f"cells {cells!r} miss vertices of {full:#b}")


def are_rooted_isomorphic(a: RootedGraph, b: RootedGraph) -> bool:
    """True iff some isomorphism maps ``a.root`` to ``b.root``."""
    return canonical_form(a.graph, a.root) == canonical_form(b.graph, b.root)


def _pack(n: int, rooted: bool, code: int) -> bytes:
    nbits = n * (n - 1) // 2
    return n.to_bytes(4, "big") + bytes((rooted,)) + code.to_bytes((nbits + 7) // 8 or 1, "big")


def _refine(
    adj: tuple[int, ...], cells: list[int], stable: frozenset[int] = frozenset(), settle: int = 0
) -> list[int]:
    """Equitable refinement: split cells by degree into every cell, smallest
    degree first, until stable. Deterministic in the cell order, so the
    result is isomorphism-invariant. Each cell is replaced by its pieces in
    place, so the order of the input cells is kept.

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

    A ``settle`` mask of one vertex stops the refinement early: each time
    the last cell splits, the cells are returned as they stand if the new
    last cell misses that vertex or is that vertex alone. A split keeps the
    last piece last, so the last cell of the finished refinement is a
    subset of the current one and would give the same answer. The early
    partition need not be equitable; only its last cell is meant to be read.

    Degrees into w are held bit-sliced: vertex v has degree
    sum(2**j for j, p in enumerate(planes) if p >> v & 1), so a cell is
    stable when every plane holds all of it or none of it. A one-vertex
    splitter {u}, the common one after individualization, gives every
    vertex degree 0 or 1 into it, so its planes are just ``[adj[u]]``
    (none when u is isolated). The ripple-carry sum is skipped for it, and
    a cell that u's row cuts splits into its non-neighbours of u, then its
    neighbours: the pieces, in the order, that the one plane gives.
    """
    wi = ci = 0
    k = len(cells)
    while wi < k:
        w = cells[wi]
        if w in stable:
            wi += 1
            continue
        if not w & (w - 1):
            # one vertex u: the only plane is u's row
            p = adj[w.bit_length() - 1]
            while ci < k:
                c = cells[ci]
                x = c & p
                if x and x != c:
                    cells[ci : ci + 1] = (c ^ x, x)
                    k += 1
                    if settle and ci + 2 == k and (not x & settle or x == settle):
                        return cells  # the last cell split and settled
                    if ci <= wi:
                        wi, ci = ci, 0
                        break
                    ci += 2
                else:
                    ci += 1
            else:
                wi, ci = wi + 1, 0
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
                if settle and ci + len(pieces) == k:
                    x = pieces[-1]
                    if not x & settle or x == settle:
                        return cells  # the last cell split and settled
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


def _twin_swaps(adj: tuple[int, ...], root: int | None) -> list[tuple[int, ...]]:
    """The transpositions of consecutive false twins, vertices with equal
    rows, other than ``root``: (v_i, v_(i+1)) for each twin class
    v_0 < v_1 < ..., ordered by v_(i+1). Each is a root-fixing
    automorphism, and the pairs of a class generate its symmetric group."""
    n = len(adj)
    swaps = []
    prev: dict[int, int] = {}  # row -> the largest vertex seen with it
    for v, row in enumerate(adj):
        if v == root:
            continue
        u = prev.get(row)
        if u is not None:
            phi = list(range(n))
            phi[u], phi[v] = v, u
            swaps.append(tuple(phi))
        prev[row] = v
    return swaps


def _search(
    adj: tuple[int, ...],
    n: int,
    init_cells: list[int],
    seeds: list[tuple[int, ...]],
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Minimal encoding, a labeling achieving it and automorphisms that
    generate the root-fixing automorphism group Aut.

    ``init_cells`` is an equitable partition, so the root node passes every
    cell to ``_refine`` as stable, and nothing splits there.

    A leaf that ties with the best leaf differs from it by an automorphism,
    which maps each vertex of the one to the vertex at the same position in
    the other. It is stored, and the search returns to the two leaves'
    deepest common ancestor, since the rest of the later branch there is the
    image of the earlier, searched one. No skip loses the first leaf that
    reaches the minimum, so the labeling is that of the unpruned search. Let
    b_1..b_L be that leaf's base. An image of b_(i+1) under the stabiliser of
    b_1..b_i follows b_(i+1) in its cell, or an earlier leaf would reach the
    minimum. If the search enters it, a tie fixes b_1..b_i and maps it to
    b_(i+1); if not, it is in the stored maps' orbit of an entered one. So
    the stored maps have Aut's orbits along that stabiliser chain, and
    generate Aut.

    ``seeds`` are maps of Aut known before the search, ``_twin_swaps`` in
    practice. They are stored first, so they prune from the root node on.
    Like a tie's map, a seed skips a branch only when the branch holds
    images of leaves in an explored sibling's branch, and those come earlier
    in depth-first order. So the first leaf that reaches the minimum is
    still visited, and the labeling is that of the unseeded search. The
    seeds fix the empty base, so they are among the stored maps that every
    node fixing them receives, and the argument above still shows that the
    stored maps generate Aut.

    A node whose first cell of two or more vertices is a set of false
    twins, and whose first vertex v of that cell has the whole cell as its
    orbit under the maps that fix the base, takes v into its base and goes
    on with the next such cell, without a refinement and without a node of
    its own. Individualizing a twin splits no cell of an equitable
    partition, since each cell is joined to all of the twins or to none,
    and the twins have equal rows; and v's siblings would all be pruned.
    So each such step stands for a node of the search without it, whose
    only explored child is v: the leaves, the labeling and the stored maps
    are the same. With the twin swaps as seeds the orbit test always holds:
    the search individualizes a twin class's vertices lowest first, so a
    cell of twins is the rest of its class, and the swaps of its
    consecutive vertices are seeds that fix the base.

    Each node gets from its parent the stored maps that fix its base, and
    filters only the maps stored since against that base. It keeps the
    union of its explored children's orbits, adds a child's orbit only
    before the next sibling is tested, and recomputes the union only when
    its list of maps grows, so a child is skipped exactly when some map
    fixing the base takes it to an explored one.
    """
    best_code = -1  # no leaf yet; every encoding is >= 0
    best_perm: list[int] = []
    best_inv: list[int] = []
    best_base: tuple[int, ...] = ()
    autos = list(seeds)
    nodes = 0  # added to COUNTERS once, after the search

    def leaf(cells: list[int], base: tuple[int, ...]) -> int:
        """Record the leaf; return the depth of the node to resume at."""
        nonlocal best_code, best_perm, best_inv, best_base
        order = [c.bit_length() - 1 for c in cells]  # position -> vertex
        # the vertex at position i owns bit n - 1 - i, and its row holds the
        # bits of its neighbours at later positions
        at = [0] * n
        bit = 1 << n
        for v in order:
            bit >>= 1
            at[v] = bit
        code = 0
        later = (1 << n) - 1
        for c, v in zip(cells, order):
            later ^= c
            rest = adj[v] & later
            row = 0
            while rest:
                low = rest & -rest
                row |= at[low.bit_length() - 1]
                rest ^= low
            code = code * at[v] | row  # shift by the row's n - 1 - i bits
        if best_code < 0 or code < best_code:
            best_code = code
            perm = [0] * n
            for pos, v in enumerate(order):
                perm[v] = pos
            best_perm = perm
            best_inv = order
            best_base = base
        elif code == best_code:
            phi = [0] * n
            for pos, v in enumerate(order):
                phi[v] = best_inv[pos]
            autos.append(tuple(phi))
            # the deepest common ancestor; two leaves' bases differ before either ends
            return next(i for i, (a, b) in enumerate(zip(base, best_base)) if a != b)
        return len(base)

    def descend(
        cells: list[int],
        base: tuple[int, ...],
        stable: frozenset[int],
        gens: list[tuple[int, ...]],
    ) -> int:
        """Search below the node ``base``; ``gens`` are the stored
        automorphisms that fix ``base``. Return the depth to resume at."""
        nonlocal nodes
        nodes += 1
        cells = _refine(adj, cells, stable)
        target = 0
        while True:
            for target in range(target, len(cells)):
                cell = cells[target]
                if cell & (cell - 1):  # the first cell of two or more vertices
                    break
            else:
                return leaf(cells, base)
            # the twin-cell step: v is taken into the base without a node
            bit = cell & -cell
            v = bit.bit_length() - 1
            row = adj[v]
            rest = cell ^ bit
            while rest and adj[(rest & -rest).bit_length() - 1] == row:
                rest &= rest - 1
            if rest or _closure(bit, gens) & cell != cell:
                break  # a vertex of the cell is no twin of v, or outside its orbit
            cells[target : target + 1] = (bit, cell ^ bit)
            base += (v,)
            gens = [a for a in gens if a[v] == v]
        head, tail = cells[:target], cells[target + 1 :]
        equitable = frozenset(cells)  # no cell splits a refinement of cells
        depth = len(base)
        explored = 0
        closed = 0  # the explored children's orbits under gens, once updated
        checked = len(autos)  # gens holds every map stored before this one
        rest = cell
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            # skip v if an automorphism fixing the base maps it into an
            # already-explored sibling's orbit
            if checked < len(autos):
                fresh = [a for a in autos[checked:] if all(a[b] == b for b in base)]
                checked = len(autos)
                if fresh:
                    gens = gens + fresh
                    closed = 0
            if explored & ~closed:
                closed |= _closure(explored & ~closed, gens)
            if closed & bit:
                continue
            explored |= bit
            resume = descend(
                head + [bit, cell ^ bit] + tail,
                base + (v,),
                equitable,
                [a for a in gens if a[v] == v] if gens else gens,
            )
            if resume < depth:
                return resume
        return depth

    descend(list(init_cells), (), frozenset(init_cells), list(seeds))
    COUNTERS["searches"] += 1
    COUNTERS["nodes"] += nodes
    return best_code, tuple(best_perm), tuple(autos)


def _closure(seed: int, gens: list[tuple[int, ...]]) -> int:
    """Union of the orbits of the vertices in ``seed`` under the group that
    ``gens`` generate."""
    closed = seed
    stack = list(bits(seed))
    while stack:
        u = stack.pop()
        for a in gens:
            w = a[u]
            if not closed >> w & 1:
                closed |= 1 << w
                stack.append(w)
    return closed
