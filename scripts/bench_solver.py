"""Solver search nodes, prunings and wall time on fixed inputs, before and after a change.

    python scripts/bench_solver.py --base REV --out BENCH_<label>.json

Measures two source trees: ``src/`` of git revision REV, extracted with
``git archive`` into a temporary directory, and ``src/`` of this checkout.
For each tree and each input group a fresh interpreter builds the group's
graphs, then runs ``max_induced_tree`` once per graph and
``max_induced_tree_through`` at every root. The groups are the n = 9 census
(every connected triangle-free graph on 9 vertices), G_6 and K_{m,m} minus a
perfect matching for m = 6..8. It records the calls, search nodes and
prunings of each kind (exact and machine-independent), a sha256 over every
result's size, witness and counters, and the wall seconds of REPEATS more
runs of the same calls, which are recorded with the host that produced
them. The two trees alternate, group by group.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_common import ROOT, host, revision_src

GROUPS = ("census(9)", "g_k(6)", "knn_minus_pm(6)", "knn_minus_pm(7)", "knn_minus_pm(8)")
REPEATS = 9


def graphs(group: str) -> list:
    import indtree

    if group == "census(9)":
        return list(indtree.enumerate_connected_triangle_free(9))
    if group == "g_k(6)":
        return [indtree.build_g_k(6).graph]
    m = int(group[len("knn_minus_pm("):-1])
    return [indtree.build_knn_minus_pm(m)]


def solve_all(gs: list) -> list:
    from indtree import RootedGraph, max_induced_tree, max_induced_tree_through

    results = []
    for g in gs:
        results.append(("unrooted", max_induced_tree(g)))
        for v in range(g.n):
            results.append(("rooted", max_induced_tree_through(RootedGraph(g, v))))
    return results


def measure(group: str) -> dict:
    """Counted run, then REPEATS timed runs, of one input group in this interpreter."""
    gs = graphs(group)
    counts = {kind: {"calls": 0, "nodes": 0, "prunings": 0} for kind in ("rooted", "unrooted")}
    digest = hashlib.sha256()
    for kind, r in solve_all(gs):
        counts[kind]["calls"] += 1
        counts[kind]["nodes"] += r.stats.nodes
        counts[kind]["prunings"] += r.stats.prunings
        digest.update(repr((kind, r.size, r.witness, r.stats.nodes, r.stats.prunings)).encode())
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        solve_all(gs)
        seconds.append(round(time.perf_counter() - start, 4))
    return {
        "input": group,
        "graphs": len(gs),
        **counts,
        "results_sha256": digest.hexdigest(),
        "wall_s": seconds,
        "wall_s_median": statistics.median(seconds),
    }


def run(src: Path, group: str) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--measure", group],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True, capture_output=True, text=True,
    ).stdout
    print(f"{src}: {out}", end="", file=sys.stderr)
    return json.loads(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--out", help="JSON file to write (required)")
    ap.add_argument("--measure", choices=GROUPS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return
    if args.base is None or args.out is None:
        ap.error("--base and --out are required")
    before = []
    after = []
    with revision_src(args.base) as (rev, src):
        # the trees alternate per group, so a change in host load between
        # groups falls on both
        for group in GROUPS:
            before.append(run(src, group))
            after.append(run(ROOT / "src", group))
    exact = ("rooted", "unrooted", "results_sha256")
    report = {
        "what": "per input group: max_induced_tree once per graph and max_induced_tree_through "
        "at every root; calls, search nodes and prunings of each (exact), sha256 over every "
        "(size, witness, nodes, prunings), wall seconds of the same calls",
        "host": host(),
        "repeats": REPEATS,
        "same_results": all(
            b[key] == a[key] for b, a in zip(before, after) for key in exact
        ),
        "before": {"rev": rev, "inputs": before},
        "after": {"rev": "working tree", "inputs": after},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
