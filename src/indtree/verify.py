"""Machine checks of the extremal claims at desk scale.

Each verifier enumerates every relevant instance, tests the claimed
inequality or equality, and returns a report carrying a replayable failure
record for anything that falsified the claim; the claim passed exactly when
there are none. Reports are plain values: two runs with the same arguments
return equal reports. Each report's ``to_json_dict`` is its JSON shape. They
carry no timing; the CLI measures its one call and adds ``elapsed`` to what
it prints.

The claims, in the verifier's vocabulary:

* rooted_bound (theorem1): a connected triangle-free graph whose largest
  induced tree through v has k vertices has at most 1 + (k-1)k/2 vertices,
  with equality exactly for the blown-up path built by build_g_k rooted at
  its singleton class.
* remote_bound (theorem2): under the same hypothesis, at most (k-2)(k-1)/2
  vertices lie outside the closed neighborhood of v.
* corollary: the minimum rooted tree number over all connected triangle-free
  graphs on n vertices equals the closed-form t3_star_formula(n), and the
  unrooted minimum is sandwiched between it and 2*sqrt(n) + 1.
* counterexample_b5: K_{5,5} minus a perfect matching has tree number 5 on
  10 vertices, beating the 9-vertex B_5 at the same tree number.
* diameter_remark: among graphs with diameter exactly k-1 and tree number
  at most k, none has more vertices than B_k.

The rooted claims read one instance stream, rooted_census: every class of
one order with t(G, v) for each root. The census floors each root's search
at the largest tree already found through it by an earlier root, since a
tree found through one vertex bounds t(G, u) from below at every vertex u
in it; it still makes one rooted solve per (G, v). tabulate reduces that
stream to the exact minima t3(n) and t3_star(n) with their extremal
witnesses, which the corollary and the ``tabulate`` command report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

from .canon import are_rooted_isomorphic
from .constructions import b_k_order, build_b_k, build_g_k, build_knn_minus_pm, g_k_order
from .enumeration import _check_order, enumerate_connected_triangle_free
from .formats import to_graph6
from .graph import Graph, GraphError, RootedGraph, closed_neighborhood, diameter
from .solver import max_induced_tree, rooted_tree_numbers

# claim -> the parameters of verify_<claim>, in the order the CLI asks for them
CLAIMS = {
    "theorem1": ("max_n",),
    "theorem2": ("max_n",),
    "corollary": ("max_n",),
    "counterexample_b5": (),
    "diameter_remark": ("max_n", "k"),
}


@dataclass(frozen=True)
class EnumerationReport:
    """Exact minima of t(G) and t(G, v) over one vertex count.

    extremal_rooted lists every (graph6, root) pair attaining the rooted
    minimum; extremal_unrooted lists every graph6 attaining the unrooted
    minimum. Both are sorted, so equal runs give equal reports.
    """

    n: int
    graphs_seen: int
    t3: int
    t3_star: int
    t3_star_formula: int
    extremal_rooted: tuple[tuple[str, int], ...]
    extremal_unrooted: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)


def t3_star_formula(n: int) -> int:
    """Smallest k with n <= 1 + (k-1)k/2, in pure integer arithmetic.

    This equals ceil((1 + sqrt(8n - 7)) / 2), the closed form for the
    minimum rooted tree number over connected triangle-free graphs on n
    vertices. ``(1 + isqrt(8n - 7)) // 2`` is that value or one below it,
    so one comparison finds it in O(1) arithmetic operations.
    """
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    k = (1 + math.isqrt(8 * n - 7)) // 2
    if g_k_order(k) < n:
        k += 1
    return k


def rooted_census(n: int) -> Iterator[tuple[Graph, tuple[int, ...]]]:
    """Yield (g, sizes) for every class on n vertices, sizes[v] = t(G, v).

    One enumeration walk and one rooted solve per (G, v), through
    rooted_tree_numbers: each root's search is floored at the largest tree
    already found through it. Every exhaustive claim over rooted graphs reads
    this stream; t(G) is max(sizes).
    """
    for g in enumerate_connected_triangle_free(n):
        yield g, tuple(r.size for r in rooted_tree_numbers(g))


def tabulate(n: int) -> EnumerationReport:
    """Exact t3(n) and t3_star(n) with every extremal witness.

    One pass over rooted_census: every vertex of every graph is tried as the
    root, and t(G) is the largest of those rooted values. The extremal
    graphs are kept as they come and encoded as graph6 once each, at the end.
    """
    seen = 0
    t3 = n + 1
    t3s = n + 1
    ext_unrooted: list[Graph] = []
    ext_rooted: list[tuple[Graph, int]] = []
    for g, sizes in rooted_census(n):
        seen += 1
        tg = max(sizes)
        if tg < t3:
            t3 = tg
            ext_unrooted = [g]
        elif tg == t3:
            ext_unrooted.append(g)
        for v, tv in enumerate(sizes):
            if tv < t3s:
                t3s = tv
                ext_rooted = [(g, v)]
            elif tv == t3s:
                ext_rooted.append((g, v))
    g6 = {g: to_graph6(g).decode("ascii") for g in ext_unrooted + [g for g, _ in ext_rooted]}
    return EnumerationReport(
        n=n,
        graphs_seen=seen,
        t3=t3,
        t3_star=t3s,
        t3_star_formula=t3_star_formula(n),
        extremal_rooted=tuple(sorted((g6[g], v) for g, v in ext_rooted)),
        extremal_unrooted=tuple(sorted(g6[g] for g in ext_unrooted)),
    )


@dataclass(frozen=True)
class FailureRecord:
    """One falsifying instance, replayable from the graph6 string alone."""

    graph6: str
    root: int | None
    observed: tuple[tuple[str, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "root": self.root,
            "observed": dict(self.observed),
        }


@dataclass(frozen=True)
class VerificationReport:
    """The verdict on one claim: it passed exactly when ``failures`` is empty."""

    claim: str
    parameters: tuple[tuple[str, int], ...]
    instances_checked: int
    failures: tuple[FailureRecord, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "claim": self.claim,
            "parameters": dict(self.parameters),
            "instances_checked": self.instances_checked,
            "status": self.status,
            "failures": [f.to_json_dict() for f in self.failures],
        }


def _failure(g: Graph | str, root: int | None = None, /, **observed: int) -> FailureRecord:
    """The record of one falsifying instance. ``g`` is the graph or its
    graph6 text; ``observed`` is given in the order it is printed."""
    g6 = g if isinstance(g, str) else to_graph6(g).decode("ascii")
    return FailureRecord(g6, root, tuple(observed.items()))


def verify_theorem1(max_n: int) -> VerificationReport:
    """Order bound and uniqueness of the extremal rooted graph.

    For every connected triangle-free graph on n <= max_n vertices and every
    root v, with k the largest induced tree through v: n <= 1 + (k-1)k/2,
    and in the equality case the rooted graph is the blown-up path from
    build_g_k(k) rooted at its singleton class.
    """
    return _verify_rooted("theorem1", _theorem1_failure, max_n)


def verify_theorem2(max_n: int) -> VerificationReport:
    """Bound on vertices outside the root's closed neighborhood.

    Same instance stream as verify_theorem1: for every (G, v) with
    k = t(G, v), at most (k-2)(k-1)/2 vertices avoid N[v].
    """
    return _verify_rooted("theorem2", _theorem2_failure, max_n)


def _verify_rooted(
    claim: str,
    failure: Callable[[Graph, int, int], FailureRecord | None],
    max_n: int,
) -> VerificationReport:
    """Run ``failure(g, v, k)`` on every (G, v) of the census up to max_n."""
    _check_order(max_n, "max_n")
    instances = 0
    failures: list[FailureRecord] = []
    for n in range(1, max_n + 1):
        for g, sizes in rooted_census(n):
            instances += n
            for v, k in enumerate(sizes):
                record = failure(g, v, k)
                if record is not None:
                    failures.append(record)
    return VerificationReport(claim, (("max_n", max_n),), instances, tuple(failures))


def _theorem1_failure(g: Graph, v: int, k: int) -> FailureRecord | None:
    n = g.n
    bound = g_k_order(k)
    if n > bound:
        return _failure(g, v, n=n, t_rooted=k, bound=bound)
    if n == bound and not are_rooted_isomorphic(RootedGraph(g, v), build_g_k(k)):
        return _failure(g, v, n=n, t_rooted=k, bound=bound, extremal_match=0)
    return None


def _theorem2_failure(g: Graph, v: int, k: int) -> FailureRecord | None:
    outside = g.n - closed_neighborhood(g, v).bit_count()
    bound = (k - 2) * (k - 1) // 2
    if outside <= bound:
        return None
    return _failure(g, v, n=g.n, t_rooted=k, outside_closed_nbhd=outside, bound=bound)


def verify_corollary(max_n: int) -> VerificationReport:
    """Closed form for the rooted minimum; sandwich for the unrooted one.

    Per n: the tabulated rooted minimum equals t3_star_formula(n); it is at
    most the unrooted minimum; and at each n that is the exact order of some
    B_k, the unrooted minimum is at most k <= floor(2*sqrt(n)) + 1, which is
    the certificate form of the upper bound.
    """
    _check_order(max_n, "max_n")
    instances = 0
    failures: list[FailureRecord] = []
    b_orders = {}
    k = 1
    while b_k_order(k) <= max_n:
        b_orders[b_k_order(k)] = k
        k += 1
    for n in range(1, max_n + 1):
        rep = tabulate(n)
        instances += rep.graphs_seen
        g6_any = rep.extremal_rooted[0][0]
        if rep.t3_star != rep.t3_star_formula:
            failures.append(_failure(g6_any, n=n, t3_star=rep.t3_star, formula=rep.t3_star_formula))
        if rep.t3_star > rep.t3:
            failures.append(_failure(g6_any, n=n, t3_star=rep.t3_star, t3=rep.t3))
        if n in b_orders:
            kk = b_orders[n]
            bk = build_b_k(kk)
            t_bk = max_induced_tree(bk).size
            cap = math.isqrt(4 * n) + 1
            if rep.t3 > t_bk or t_bk > kk or kk > cap:
                failures.append(_failure(bk, n=n, t3=rep.t3, t_b_k=t_bk, k=kk, cap=cap))
    return VerificationReport("corollary", (("max_n", max_n),), instances, tuple(failures))


def verify_counterexample_b5() -> VerificationReport:
    """The 10-vertex K_{5,5} minus a perfect matching ties B_5's tree number.

    Confirms t = 5 on 10 vertices versus |B_5| = 9 with t(B_5) = 5, so B_5
    is not the largest graph with tree number 5.
    """
    failures: list[FailureRecord] = []
    km = build_knn_minus_pm(5)
    b5 = build_b_k(5)
    t_km = max_induced_tree(km).size
    t_b5 = max_induced_tree(b5).size
    if not (t_km == 5 and km.n == 10):
        failures.append(_failure(km, n=km.n, t=t_km))
    if not (b5.n == 9 and t_b5 == 5):
        failures.append(_failure(b5, n=b5.n, t=t_b5))
    return VerificationReport("counterexample_b5", (), 2, tuple(failures))


def verify_diameter_remark(k: int, max_n: int) -> VerificationReport:
    """Order-extremality of B_k under a fixed diameter.

    No connected triangle-free graph with diameter exactly k-1 and tree
    number at most k has more than |B_k| vertices; checked exhaustively for
    |B_k| < n <= max_n. B_k itself must qualify. Only the order is checked,
    not uniqueness.
    """
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    _check_order(max_n, "max_n")
    order = b_k_order(k)  # known before B_k is built
    if order + 1 > max_n:
        raise GraphError(
            f"nothing to check: |B_{k}| + 1 = {order + 1} exceeds max_n = {max_n}"
        )
    bk = build_b_k(k)
    failures: list[FailureRecord] = []
    t_bk = max_induced_tree(bk).size
    d_bk = diameter(bk)
    if d_bk != k - 1 or t_bk > k:
        failures.append(_failure(bk, n=bk.n, diameter=d_bk, t=t_bk))
    instances = 1
    for n in range(bk.n + 1, max_n + 1):
        for g in enumerate_connected_triangle_free(n):
            instances += 1
            if diameter(g) != k - 1:
                continue
            t_g = max_induced_tree(g).size
            if t_g <= k:
                failures.append(_failure(g, n=n, diameter=k - 1, t=t_g))
    return VerificationReport(
        "diameter_remark", (("k", k), ("max_n", max_n)), instances, tuple(failures)
    )

