"""Machine checks of the extremal claims at desk scale.

Each verifier enumerates every relevant instance, tests the claimed
inequality or equality, and returns a report carrying pass/fail status plus
a replayable failure record for anything that falsified the claim. Reports
are deterministic apart from the elapsed field.

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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from .canon import are_rooted_isomorphic
from .constructions import build_b_k, build_g_k, build_knn_minus_pm
from .enumeration import (
    _check_order,
    enumerate_connected_triangle_free,
    rooted_census,
    tabulate,
)
from .formats import to_graph6
from .graph import Graph, GraphError, RootedGraph, closed_neighborhood, diameter
from .solver import max_induced_tree

CLAIMS = (
    "theorem1",
    "theorem2",
    "corollary",
    "counterexample_b5",
    "diameter_remark",
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
    claim: str
    parameters: tuple[tuple[str, int], ...]
    instances_checked: int
    status: str
    failures: tuple[FailureRecord, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "claim": self.claim,
            "parameters": dict(self.parameters),
            "instances_checked": self.instances_checked,
            "status": self.status,
            "failures": [f.to_json_dict() for f in self.failures],
            "elapsed": self.elapsed,
        }


def _report(
    claim: str,
    parameters: tuple[tuple[str, int], ...],
    instances: int,
    failures: list[FailureRecord],
    start: float,
) -> VerificationReport:
    return VerificationReport(
        claim=claim,
        parameters=parameters,
        instances_checked=instances,
        status="pass" if not failures else "fail",
        failures=tuple(failures),
        elapsed=time.perf_counter() - start,
    )


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
    failure: Callable[[Graph, str, int, int], FailureRecord | None],
    max_n: int,
) -> VerificationReport:
    """Run ``failure(g, graph6, v, k)`` on every (G, v) of the census up to max_n."""
    _check_order(max_n, "max_n")
    start = time.perf_counter()
    instances = 0
    failures: list[FailureRecord] = []
    for n in range(1, max_n + 1):
        for g, g6, sizes in rooted_census(n):
            instances += n
            for v, k in enumerate(sizes):
                record = failure(g, g6, v, k)
                if record is not None:
                    failures.append(record)
    return _report(claim, (("max_n", max_n),), instances, failures, start)


def _theorem1_failure(g: Graph, g6: str, v: int, k: int) -> FailureRecord | None:
    n = g.n
    bound = 1 + (k - 1) * k // 2
    observed = (("n", n), ("t_rooted", k), ("bound", bound))
    if n > bound:
        return FailureRecord(g6, v, observed)
    if n == bound and not are_rooted_isomorphic(RootedGraph(g, v), build_g_k(k)):
        return FailureRecord(g6, v, observed + (("extremal_match", 0),))
    return None


def _theorem2_failure(g: Graph, g6: str, v: int, k: int) -> FailureRecord | None:
    outside = g.n - closed_neighborhood(g, v).bit_count()
    bound = (k - 2) * (k - 1) // 2
    if outside <= bound:
        return None
    return FailureRecord(
        g6, v, (("n", g.n), ("t_rooted", k), ("outside_closed_nbhd", outside), ("bound", bound))
    )


def verify_corollary(max_n: int) -> VerificationReport:
    """Closed form for the rooted minimum; sandwich for the unrooted one.

    Per n: the tabulated rooted minimum equals t3_star_formula(n); it is at
    most the unrooted minimum; and at each n that is the exact order of some
    B_k, the unrooted minimum is at most k <= floor(2*sqrt(n)) + 1, which is
    the certificate form of the upper bound.
    """
    _check_order(max_n, "max_n")
    start = time.perf_counter()
    instances = 0
    failures: list[FailureRecord] = []
    b_orders = {}
    k = 1
    while (k + 1) ** 2 // 4 <= max_n:
        b_orders[(k + 1) ** 2 // 4] = k
        k += 1
    for n in range(1, max_n + 1):
        rep = tabulate(n)
        instances += rep.graphs_seen
        g6_any = rep.extremal_rooted[0][0] if rep.extremal_rooted else ""
        if rep.t3_star != rep.t3_star_formula:
            failures.append(
                FailureRecord(
                    g6_any,
                    None,
                    (("n", n), ("t3_star", rep.t3_star), ("formula", rep.t3_star_formula)),
                )
            )
        if rep.t3_star > rep.t3:
            failures.append(
                FailureRecord(
                    g6_any, None, (("n", n), ("t3_star", rep.t3_star), ("t3", rep.t3))
                )
            )
        if n in b_orders:
            kk = b_orders[n]
            bk = build_b_k(kk)
            t_bk = max_induced_tree(bk).size
            cap = math.isqrt(4 * n) + 1
            if rep.t3 > t_bk or t_bk > kk or kk > cap:
                failures.append(
                    FailureRecord(
                        to_graph6(bk).decode("ascii"),
                        None,
                        (
                            ("n", n),
                            ("t3", rep.t3),
                            ("t_b_k", t_bk),
                            ("k", kk),
                            ("cap", cap),
                        ),
                    )
                )
    return _report("corollary", (("max_n", max_n),), instances, failures, start)


def verify_counterexample_b5() -> VerificationReport:
    """The 10-vertex K_{5,5} minus a perfect matching ties B_5's tree number.

    Confirms t = 5 on 10 vertices versus |B_5| = 9 with t(B_5) = 5, so B_5
    is not the largest graph with tree number 5.
    """
    start = time.perf_counter()
    failures: list[FailureRecord] = []
    km = build_knn_minus_pm(5)
    b5 = build_b_k(5)
    t_km = max_induced_tree(km).size
    t_b5 = max_induced_tree(b5).size
    if not (t_km == 5 and km.n == 10):
        failures.append(
            FailureRecord(
                to_graph6(km).decode("ascii"), None, (("n", km.n), ("t", t_km))
            )
        )
    if not (b5.n == 9 and t_b5 == 5):
        failures.append(
            FailureRecord(
                to_graph6(b5).decode("ascii"), None, (("n", b5.n), ("t", t_b5))
            )
        )
    return _report("counterexample_b5", (), 2, failures, start)


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
    order = (k + 1) ** 2 // 4  # |B_k|, known before B_k is built
    if order + 1 > max_n:
        raise GraphError(
            f"nothing to check: |B_{k}| + 1 = {order + 1} exceeds max_n = {max_n}"
        )
    start = time.perf_counter()
    bk = build_b_k(k)
    failures: list[FailureRecord] = []
    t_bk = max_induced_tree(bk).size
    d_bk = diameter(bk)
    if d_bk != k - 1 or t_bk > k:
        failures.append(
            FailureRecord(
                to_graph6(bk).decode("ascii"),
                None,
                (("n", bk.n), ("diameter", d_bk), ("t", t_bk)),
            )
        )
    instances = 1
    for n in range(bk.n + 1, max_n + 1):
        for g in enumerate_connected_triangle_free(n):
            instances += 1
            if diameter(g) != k - 1:
                continue
            t_g = max_induced_tree(g).size
            if t_g <= k:
                failures.append(
                    FailureRecord(
                        to_graph6(g).decode("ascii"),
                        None,
                        (("n", n), ("diameter", k - 1), ("t", t_g)),
                    )
                )
    return _report(
        "diameter_remark", (("k", k), ("max_n", max_n)), instances, failures, start
    )

