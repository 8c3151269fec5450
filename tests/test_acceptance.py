"""Acceptance suite: one test per criterion, one printed verdict line each.

Verdict lines bypass pytest's capture so they always land in the terminal:
    [criterion N] PASS <name>: <details>
Every expected value here is either a consequence the verifiers check
exhaustively, an independently computed oracle (subset scan, labeled-graph
filter, integer ceiling arithmetic), or a closed-form size formula.
"""

import itertools
import math
import random
import time

from indtree import (
    Graph,
    RootedGraph,
    are_rooted_isomorphic,
    brute_force_t,
    build_b_k,
    build_g_k,
    build_knn_minus_pm,
    canonical_form,
    closed_neighborhood,
    from_graph6,
    is_connected,
    is_triangle_free,
    max_induced_tree,
    max_induced_tree_through,
    tabulate,
    to_graph6,
    verify_diameter_remark,
    verify_theorem2,
)
from indtree.constructions import b_k_order, g_k_order

CRITERION_1_TIME_LIMIT = 300.0

# OEIS A024607: connected triangle-free graphs on n = 1..10 vertices
A024607 = [1, 1, 1, 3, 6, 19, 59, 267, 1380, 9832]


def _verdict(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def _ceiling_formula(n):
    # smallest k with (2k-1)^2 >= 8n-7, the integer form of
    # ceil((1 + sqrt(8n-7)) / 2); kept separate from the library's own loop
    k = 1
    while (2 * k - 1) ** 2 < 8 * n - 7:
        k += 1
    return k


def test_criterion_1_corollary_formula(capsys):
    start = time.perf_counter()
    mismatches = []
    graphs_seen = []
    for n in range(1, 11):
        rep = tabulate(n)
        graphs_seen.append(rep.graphs_seen)
        want = _ceiling_formula(n)
        if rep.t3_star != want or rep.t3_star != rep.t3_star_formula:
            mismatches.append((n, rep.t3_star, want))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed <= CRITERION_1_TIME_LIMIT
    _verdict(
        capsys,
        1,
        "corollary formula n=1..10",
        ok,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s (limit {CRITERION_1_TIME_LIMIT:.0f}s)",
    )
    assert not mismatches
    assert graphs_seen == A024607
    assert elapsed <= CRITERION_1_TIME_LIMIT


def test_criterion_2_extremal_uniqueness(capsys):
    problems = []
    for n, k in ((4, 3), (7, 4)):
        rep = tabulate(n)
        if rep.t3_star != k:
            problems.append((n, "min", rep.t3_star))
            continue
        if not rep.extremal_rooted:
            problems.append((n, "empty", 0))
        for g6, v in rep.extremal_rooted:
            if not are_rooted_isomorphic(RootedGraph(from_graph6(g6), v), build_g_k(k)):
                problems.append((n, g6, v))
    ok = not problems
    _verdict(
        capsys,
        2,
        "rooted extremal pairs at n=4,7 are exactly the blown-up path",
        ok,
        f"problems={problems}",
    )
    assert not problems


def test_criterion_3_neighborhood_bound(capsys):
    rep = verify_theorem2(9)
    equality_misses = []
    for k in (3, 4):
        rg = build_g_k(k)
        outside = rg.graph.n - closed_neighborhood(rg.graph, rg.root).bit_count()
        if outside != (k - 2) * (k - 1) // 2 or max_induced_tree_through(rg).size != k:
            equality_misses.append(k)
    ok = rep.passed and not equality_misses
    _verdict(
        capsys,
        3,
        "outside-closed-neighborhood bound n<=9",
        ok,
        f"instances={rep.instances_checked} violations={len(rep.failures)} "
        f"equality_misses={equality_misses}",
    )
    assert rep.passed
    assert not equality_misses


def test_criterion_4_counterexample_values(capsys):
    km = build_knn_minus_pm(5)
    b5 = build_b_k(5)
    values = {
        "t_km_solver": max_induced_tree(km).size,
        "t_km_oracle": brute_force_t(km).size,
        "n_km": km.n,
        "t_b5_solver": max_induced_tree(b5).size,
        "t_b5_oracle": brute_force_t(b5).size,
        "n_b5": b5.n,
    }
    ok = values == {
        "t_km_solver": 5,
        "t_km_oracle": 5,
        "n_km": 10,
        "t_b5_solver": 5,
        "t_b5_oracle": 5,
        "n_b5": 9,
    }
    _verdict(capsys, 4, "10-vertex counterexample ties B_5", ok, f"{values}")
    assert ok


def test_criterion_5_diameter_remark(capsys):
    rep3 = verify_diameter_remark(3, max_n=8)
    rep4 = verify_diameter_remark(4, max_n=9)
    ok = rep3.passed and rep4.passed
    _verdict(
        capsys,
        5,
        "order extremality under fixed diameter, k=3,4",
        ok,
        f"k=3 instances={rep3.instances_checked} fails={len(rep3.failures)}; "
        f"k=4 instances={rep4.instances_checked} fails={len(rep4.failures)}",
    )
    assert rep3.passed
    assert rep4.passed


def test_criterion_6_oracle_equivalence(capsys, enum_cache):
    mismatches = 0
    graphs = 0
    solves = 0
    for n in range(1, 9):
        for g in enum_cache(n):
            graphs += 1
            solves += 1
            if max_induced_tree(g).size != brute_force_t(g).size:
                mismatches += 1
            for v in range(n):
                solves += 1
                if (
                    max_induced_tree_through(RootedGraph(g, v)).size
                    != brute_force_t(g, v).size
                ):
                    mismatches += 1
    ok = mismatches == 0
    _verdict(
        capsys,
        6,
        "solver equals subset-scan oracle on all graphs n<=8",
        ok,
        f"graphs={graphs} solves={solves} mismatches={mismatches}",
    )
    assert mismatches == 0


def test_criterion_7_infrastructure(capsys, enum_cache):
    rng = random.Random(20260819)
    bad_roundtrips = 0
    for _ in range(1000):
        n = rng.randrange(0, 31)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < rng.random()]
        g = Graph.from_edge_list(n, edges)
        if from_graph6(to_graph6(g)) != g:
            bad_roundtrips += 1

    bad_canon = 0
    for _ in range(200):
        n = rng.randrange(1, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph.from_edge_list(n, edges)
        want = canonical_form(g).data
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()])
            if canonical_form(h).data != want:
                bad_canon += 1

    count_mismatches = []
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        oracle = set()
        for bits in range(1 << len(pairs)):
            g = Graph.from_edge_list(
                n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            )
            if is_triangle_free(g) and is_connected(g):
                oracle.add(canonical_form(g).data)
        mine = {canonical_form(g).data for g in enum_cache(n)}
        if mine != oracle:
            count_mismatches.append((n, len(mine), len(oracle)))

    ok = bad_roundtrips == 0 and bad_canon == 0 and not count_mismatches
    _verdict(
        capsys,
        7,
        "graph6 round-trip, canonical invariance, enumeration counts",
        ok,
        f"bad_roundtrips={bad_roundtrips}/1000 bad_canonizations={bad_canon}/20000 "
        f"count_mismatches={count_mismatches}",
    )
    assert bad_roundtrips == 0
    assert bad_canon == 0
    assert not count_mismatches


def test_criterion_8_construction_sizes(capsys):
    wrong = []
    for k in range(1, 21):
        if not build_g_k(k).graph.n == g_k_order(k) == 1 + (k - 1) * k // 2:
            wrong.append(("gk", k))
        if not build_b_k(k).n == b_k_order(k) == math.floor((k + 1) ** 2 / 4):
            wrong.append(("bk", k))
    ok = not wrong
    _verdict(capsys, 8, "construction size formulas k<=20", ok, f"wrong={wrong}")
    assert not wrong
