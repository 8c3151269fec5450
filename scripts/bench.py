"""Counters, result digests and wall time on fixed groups, before and after a change.

    python scripts/bench.py --base REV --out BENCH_<label>.json

Measures two source trees: ``src/`` of git revision REV, extracted with
``git archive`` into a temporary directory, and ``src/`` of this checkout.
Every run measures the same GROUPS: one enumeration walk
``enumerate_connected_triangle_free(n)`` for n = 7..10, then
``max_induced_tree`` once per graph plus ``max_induced_tree_through`` and the
refutation ``exists_induced_tree_through(rg, t(G, v) + 1)`` at every root over
the n = 9 census, G_6, K_{m,m} minus a perfect matching for m = 6..8 and the
2 x 16 ladder (rails 0..15 and 16..31, rung i joining i and
16 + i). Each group runs REPEATS times in a fresh interpreter per tree and
repeat; the trees alternate repeat by repeat, and which tree runs first
alternates from group to group too, so a change in host load falls on both.

Each interpreter builds the group's input untimed, runs its work once with
call counters wrapped around ``indtree.enumeration``'s
``canonical_labeling``, around ``canon._search`` and around
``canon._refine``, whose calls are counted only while ``canon._search``
runs: they are the labeling search's nodes, while enumeration may refine
through a binding of its own. The script exits, naming the function, when a
tree lacks one, rather than count 0 calls. A counter around
``solver._search`` adds up the searches run with ``stop_at``, which only
``exists_induced_tree_through`` runs. The interpreter then times RUNS more
runs of the work, unwrapped: on a shared host single runs in fresh
interpreters spread too widely for a change of 10-20% to show in their
median. Every row records the same fields: the canon calls, the solver
calls, search nodes and prunings of each kind (rooted, unrooted, refuted),
and a sha256 over the results, that is the emitted graph6 lines of a walk,
or each solve's
``repr((kind, size, witness))`` and each refutation's
``repr(("refuted", answer))``; the counters stay out of the digest, so a
bound that prunes more keeps ``same_results``. Counters and digests are
exact and machine-independent, so a tree's REPEATS rows of a group must
agree on them, and the script exits non-zero, naming the group, when they do
not; the artifact keeps one row per tree and group, with the wall times of
all the runs of all its repeats. The wall times are recorded with the host
that produced them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import contextmanager
from io import BytesIO
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
GROUPS = (
    "enumerate(7)", "enumerate(8)", "enumerate(9)", "enumerate(10)",
    "census(9)", "g_k(6)", "knn_minus_pm(6)", "knn_minus_pm(7)", "knn_minus_pm(8)",
    "ladder(16)",
)
REPEATS = 9
RUNS = 5  # timed runs per interpreter
# the row fields that every repeat of a group on one tree must reproduce
EXACT = ("graphs", "canon", "rooted", "unrooted", "refuted", "results_sha256")
KINDS = ("rooted", "unrooted", "refuted")
# (module, function) pairs; each is wrapped where it is looked up at call time,
# and canon._refine is counted only inside canon._search
CANON = (
    ("enumeration", "canonical_labeling"),
    ("canon", "_search"),
    ("canon", "_refine"),
)


def solve_all(gs: list) -> list:
    """Per graph: t(G), then per root t(G, v) and the answer of the refutation
    at t(G, v) + 1 (a bool)."""
    from indtree import (
        RootedGraph, exists_induced_tree_through, max_induced_tree, max_induced_tree_through,
    )

    results = []
    for g in gs:
        results.append(max_induced_tree(g))
        for v in range(g.n):
            rg = RootedGraph(g, v)
            r = max_induced_tree_through(rg)
            results += [r, exists_induced_tree_through(rg, r.size + 1)]
    return results


def ladder(k: int):
    """The 2 x k ladder: rails 0..k-1 and k..2k-1, rung i joins i and k + i."""
    from indtree import Graph

    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return Graph.from_edge_list(2 * k, rails + [(i, k + i) for i in range(k)])


def measure(group: str) -> dict:
    """Untimed build, one counted run and one timed run of one group in this interpreter."""
    import indtree

    name, n = group[:-1].split("(")
    n = int(n)
    if name == "enumerate":
        gs = []

        def work():
            return list(indtree.enumerate_connected_triangle_free(n))
    else:
        if name == "census":
            gs = list(indtree.enumerate_connected_triangle_free(n))
        elif name == "g_k":
            gs = [indtree.build_g_k(n).graph]
        elif name == "ladder":
            gs = [ladder(n)]
        else:
            gs = [indtree.build_knn_minus_pm(n)]

        def work():
            return solve_all(gs)

    canon = {fn: 0 for _, fn in CANON}
    searching = []  # holds one entry while canon._search runs

    def counting(fn_name, fn):
        def wrapper(*args, **kwargs):
            if fn_name != "_refine" or searching:
                canon[fn_name] += 1
            if fn_name != "_search":
                return fn(*args, **kwargs)
            searching.append(fn_name)
            try:
                return fn(*args, **kwargs)
            finally:
                searching.pop()

        return wrapper

    solver = {kind: {"calls": 0, "nodes": 0, "prunings": 0} for kind in KINDS}

    def refuting(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if kwargs.get("stop_at") is not None:
                solver["refuted"]["calls"] += 1
                solver["refuted"]["nodes"] += out[2].nodes
                solver["refuted"]["prunings"] += out[2].prunings
            return out

        return wrapper

    originals = []
    for module_name, fn_name in CANON:
        module = importlib.import_module(f"indtree.{module_name}")
        if not hasattr(module, fn_name):
            sys.exit(f"{module_name}.{fn_name} is missing, so its calls cannot be counted")
        originals.append((module, fn_name, getattr(module, fn_name)))
    solver_module = importlib.import_module("indtree.solver")
    search = solver_module._search
    for module, fn_name, fn in originals:
        setattr(module, fn_name, counting(fn_name, fn))
    solver_module._search = refuting(search)
    try:
        results = work()
    finally:
        for module, fn_name, fn in originals:
            setattr(module, fn_name, fn)
        solver_module._search = search

    digest = hashlib.sha256()
    for r in results:
        if name == "enumerate":
            digest.update(indtree.to_graph6(r) + b"\n")
            continue
        if isinstance(r, bool):
            digest.update(repr(("refuted", r)).encode())
            continue
        kind = "unrooted" if r.required_root is None else "rooted"
        solver[kind]["calls"] += 1
        solver[kind]["nodes"] += r.stats.nodes
        solver[kind]["prunings"] += r.stats.prunings
        digest.update(repr((kind, r.size, r.witness)).encode())
    seconds = []
    for _ in range(RUNS):
        start = time.perf_counter()
        work()
        seconds.append(round(time.perf_counter() - start, 4))
    return {
        "group": group,
        "graphs": len(results) if name == "enumerate" else len(gs),
        "canon": canon,
        **solver,
        "results_sha256": digest.hexdigest(),
        "wall_s": seconds,
        "wall_s_median": statistics.median(seconds),
    }


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


@contextmanager
def revision_src(rev: str) -> Iterator[tuple[str, Path]]:
    """Short hash of ``rev`` and its ``src/``, extracted with ``git archive``
    into a temporary directory that is removed on exit."""
    short = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", rev],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", short, "src"], check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(tmp)
        yield short, Path(tmp) / "src"


def run(src: Path, group: str) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--measure", group],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True, capture_output=True, text=True,
    ).stdout
    print(f"{src}: {out}", end="", file=sys.stderr)
    return json.loads(out)


def merge(group: str, tree: str, rows: list[dict]) -> dict:
    """One row for a tree's repeats of ``group``, holding every repeat's wall
    time; exits if the repeats differ in an EXACT field."""
    differ = [k for k in EXACT if any(row[k] != rows[0][k] for row in rows)]
    if differ:
        sys.exit(f"{group}: the repeats on {tree} differ in {', '.join(differ)}")
    seconds = [s for row in rows for s in row["wall_s"]]
    return {**rows[0], "wall_s": seconds, "wall_s_median": statistics.median(seconds)}


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
        for i, group in enumerate(GROUPS):
            rows: dict[Path, list[dict]] = {src: [], ROOT / "src": []}
            trees = list(rows)
            for r in range(REPEATS):
                for tree in trees[::-1] if (i + r) % 2 else trees:
                    rows[tree].append(run(tree, group))
            before.append(merge(group, rev, rows[src]))
            after.append(merge(group, "the working tree", rows[ROOT / "src"]))
    report = {
        "what": "per group: one enumerate_connected_triangle_free(n) walk, or max_induced_tree "
        "once per graph and max_induced_tree_through and exists_induced_tree_through(rg, "
        "t(G, v) + 1) at every root; canonical_labeling calls made from indtree.enumeration, "
        "canon._search calls and the canon._refine calls made inside canon._search (the "
        "labeling search's nodes), solver calls, search nodes and prunings of each kind "
        "(rooted, unrooted, refuted), and sha256 over the results, the counters left out "
        f"(exact); wall seconds of {RUNS} more runs of the same work in each of {REPEATS} "
        "fresh interpreters",
        "host": host(),
        "repeats": REPEATS,
        "same_results": all(b["results_sha256"] == a["results_sha256"] for b, a in zip(before, after)),
        "before": {"rev": rev, "groups": before},
        "after": {"rev": "working tree", "groups": after},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
