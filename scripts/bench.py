"""Counters, result digests and wall time on fixed groups, before and after a change.

    python scripts/bench.py --base REV --out BENCH_<label>.json

Measures two source trees in one interpreter: ``src/`` of git revision REV,
extracted with ``git archive`` into a temporary directory and imported as
the package ``indtree_before``, and ``src/`` of this checkout, imported as
``indtree``. Every run measures the same GROUPS: one enumeration walk
``enumerate_connected_triangle_free(n)`` for n = 7..10, then
``max_induced_tree`` once per graph plus ``max_induced_tree_through`` and the
refutation ``exists_induced_tree_through(rg, t(G, v) + 1)`` at every root over
the n = 9 census, G_6, K_{m,m} minus a perfect matching for m = 6..8, the
2 x 16 ladder (rails 0..15 and 16..31, rung i joining i and 16 + i) and
RANDOM_GRAPHS seeded random connected triangle-free graphs on 16, 17 and 18
vertices in turn (a random spanning tree plus n..2n edges that close no
triangle, the sizes where the solver's pick rule tells most).

For each group and tree, ``measure`` builds the input from that tree
untimed and runs the work once counted, under one ``sys.settrace``
function; the trace function in place before, if any, is put back
afterwards, and no function of indtree is rebound. The hook sees every
Python call and counts by code object and the caller's file, both read
from the tree being measured: ``canon.canonical_labeling`` called from
``enumeration.py``, ``canon._search``, and ``canon._refine`` called from
``canon.py``, the labeling search's nodes. Two more count enumeration's own
work: ``canon._refine`` called from ``enumeration.py``, one per candidate
child that is refined, and the sets that ``enumeration._independent_sets``
returns for the last level of a walk, its candidate sets. Each
``solver._search`` run with ``stop_at``, which only
``exists_induced_tree_through`` runs, adds the search counters it returns
to ``refuted``. The script exits, naming the function, when a tree lacks
one of these, rather than count 0 calls. The hook makes the counted run
slower, about 3.3 times a plain run for enumerate(10) on a 2-core Xeon
under CPython 3.11.7, and is gone before any run is timed.

``paired`` then runs each tree's work once more, untimed, which sets how
many times a timed run repeats the work, so that a timed run lasts at
least FLOOR_S, and times PAIRS pairs of runs, one per tree, alternating
which tree runs first from pair to pair. The two runs of a pair are
adjacent in time, so a change in the host's speed between pairs falls on
both, and the after/before ratio of each pair cancels it.

Every row records the same fields: the canon calls, the enumeration
counts, the solver calls, search nodes and prunings of each kind (rooted,
unrooted, refuted), and a sha256 over the results, that is the emitted
graph6 lines of a walk, or each solve's ``repr((kind, size, witness))``
and each refutation's ``repr(("refuted", answer))``; the counters stay out
of the digest, so a bound that prunes more keeps ``same_results``. A
second sha256 covers the values alone, each solve's ``repr((kind, size))``
and each refutation's answer, or a walk's emitted lines as above: a change
of the branch vertex may return other witnesses of the same sizes, which
moves the results digest but keeps ``same_values``. Counters and digests
are exact and machine-independent. ``wall_s`` holds the seconds per run of
the work in each pair, ``wall_s_median`` their median; each ``after`` row
adds ``ratio_median``, the median over pairs of after over before, and
``won``, the pairs in which after was faster. The wall times are recorded
with the host that produced them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import contextmanager
from io import BytesIO
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
GROUPS = (
    "enumerate(7)", "enumerate(8)", "enumerate(9)", "enumerate(10)",
    "census(9)", "g_k(6)", "knn_minus_pm(6)", "knn_minus_pm(7)", "knn_minus_pm(8)",
    "ladder(16)", "random(16..18)",
)
PAIRS = 30
# a timed run repeats the work until it lasts at least this long, so that
# the 3-10 ms groups are not timed at the clock's and the scheduler's grain
FLOOR_S = 0.05
# the row fields that are the same on any machine
EXACT = (
    "graphs", "canon", "enumeration", "rooted", "unrooted", "refuted",
    "results_sha256", "values_sha256",
)
KINDS = ("rooted", "unrooted", "refuted")
RANDOM_SEED = 1
RANDOM_GRAPHS = 24


def load_tree(name: str, src: Path) -> ModuleType:
    """The package ``src/indtree``, imported under ``name``; its modules'
    relative imports resolve inside it, so it shares no module with a tree
    loaded under another name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "indtree" / "__init__.py", submodule_search_locations=[str(src / "indtree")]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def solve_all(pkg: ModuleType, gs: list) -> list:
    """Per graph: t(G), then per root t(G, v) and the answer of the refutation
    at t(G, v) + 1 (a bool), all solved by the tree ``pkg``."""
    results = []
    for g in gs:
        results.append(pkg.max_induced_tree(g))
        for v in range(g.n):
            rg = pkg.RootedGraph(g, v)
            r = pkg.max_induced_tree_through(rg)
            results += [r, pkg.exists_induced_tree_through(rg, r.size + 1)]
    return results


def ladder(k: int):
    """The 2 x k ladder: rails 0..k-1 and k..2k-1, rung i joins i and k + i."""
    from indtree import Graph

    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return Graph.from_edge_list(2 * k, rails + [(i, k + i) for i in range(k)])


def random_triangle_free(rng: random.Random, n: int, extra: int):
    """A random spanning tree on n vertices plus up to ``extra`` random edges
    that close no triangle, drawn from ``rng`` (50 n tries at most)."""
    from indtree import Graph

    rows = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for _ in range(50 * n):
        if not extra:
            break
        u, v = rng.sample(range(n), 2)
        if rows[u] >> v & 1 or rows[u] & rows[v]:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        extra -= 1
    return Graph(n, rows)


def random_corpus(low: int, high: int) -> list:
    """RANDOM_GRAPHS graphs from RANDOM_SEED, on low..high vertices in turn,
    each with n..2n extra edges drawn at random."""
    rng = random.Random(RANDOM_SEED)
    orders = range(low, high + 1)
    gs = []
    for i in range(RANDOM_GRAPHS):
        n = orders[i % len(orders)]
        gs.append(random_triangle_free(rng, n, rng.randint(n, 2 * n)))
    return gs


def measure(pkg: ModuleType, group: str) -> tuple[dict, Callable[[], list]]:
    """The row of exact fields of one group on the tree ``pkg``, from an
    untimed build and one counted run, and the group's work."""
    canon, enumeration, solver = pkg.canon, pkg.enumeration, pkg.solver
    name, arg = group[:-1].split("(")
    n, _, high = arg.partition("..")  # random(16..18): orders 16 to 18
    n = int(n)
    if name == "enumerate":
        gs = []

        def work():
            return list(pkg.enumerate_connected_triangle_free(n))
    else:
        if name == "census":
            gs = list(pkg.enumerate_connected_triangle_free(n))
        elif name == "g_k":
            gs = [pkg.build_g_k(n).graph]
        # the script builds these with indtree's Graph: rebuilt in the tree measured
        elif name == "ladder":
            gs = [pkg.Graph(2 * n, ladder(n).adj)]
        elif name == "random":
            gs = [pkg.Graph(g.n, g.adj) for g in random_corpus(n, int(high))]
        else:
            gs = [pkg.build_knn_minus_pm(n)]

        def work():
            return solve_all(pkg, gs)

    for module, fn_name in (
        (canon, "canonical_labeling"), (canon, "_search"), (canon, "_refine"),
        (enumeration, "_independent_sets"), (solver, "_search"),
    ):
        if not hasattr(module, fn_name):
            sys.exit(f"{module.__name__}.{fn_name} is missing, so its calls cannot be counted")
    labeling, labeling_search = canon.canonical_labeling.__code__, canon._search.__code__
    refine, listing = canon._refine.__code__, enumeration._independent_sets.__code__
    solver_search = solver._search.__code__
    canon_file, enumeration_file = refine.co_filename, listing.co_filename
    canon_counts = {"canonical_labeling": 0, "_search": 0, "_refine": 0}
    enumeration_counts = {"_refine": 0, "leaf_sets": 0}
    solver_counts = {kind: {"calls": 0, "nodes": 0, "prunings": 0} for kind in KINDS}
    refuted = solver_counts["refuted"]

    def listed(frame, event, arg):
        if event == "return":
            enumeration_counts["leaf_sets"] += len(arg)
        return listed

    def refuting(frame, event, arg):
        if event == "return":
            refuted["calls"] += 1
            refuted["nodes"] += arg[2].nodes
            refuted["prunings"] += arg[2].prunings
        return refuting

    def trace(frame, event, arg):
        """The global trace function: called once per Python call."""
        code = frame.f_code
        if code is labeling_search:
            canon_counts["_search"] += 1
        elif code is labeling:
            if frame.f_back.f_code.co_filename == enumeration_file:
                canon_counts["canonical_labeling"] += 1
        elif code is refine:
            caller = frame.f_back.f_code.co_filename
            if caller == canon_file:  # inside canon._search: a labeling search node
                canon_counts["_refine"] += 1
            elif caller == enumeration_file:
                enumeration_counts["_refine"] += 1
        elif code is listing and name == "enumerate" and frame.f_locals["g"].n + 1 == n:
            frame.f_trace_lines = False
            return listed
        elif code is solver_search and frame.f_locals["stop_at"] is not None:
            frame.f_trace_lines = False
            return refuting
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        results = work()
    finally:
        sys.settrace(previous)

    digest = hashlib.sha256()
    values = hashlib.sha256()
    for r in results:
        if name == "enumerate":
            line = pkg.to_graph6(r) + b"\n"
            digest.update(line)
            values.update(line)
            continue
        if isinstance(r, bool):
            digest.update(repr(("refuted", r)).encode())
            values.update(repr(("refuted", r)).encode())
            continue
        kind = "unrooted" if r.required_root is None else "rooted"
        solver_counts[kind]["calls"] += 1
        solver_counts[kind]["nodes"] += r.stats.nodes
        solver_counts[kind]["prunings"] += r.stats.prunings
        digest.update(repr((kind, r.size, r.witness)).encode())
        values.update(repr((kind, r.size)).encode())
    row = {
        "group": group,
        "graphs": len(results) if name == "enumerate" else len(gs),
        "canon": canon_counts,
        "enumeration": enumeration_counts,
        **solver_counts,
        "results_sha256": digest.hexdigest(),
        "values_sha256": values.hexdigest(),
    }
    return row, work


def paired(before: Callable[[], object], after: Callable[[], object]) -> tuple[list[float], list[float]]:
    """Seconds per run of each work, one time per side for each of PAIRS
    pairs of timed runs, ``before`` first in the even pairs and ``after``
    first in the odd ones. One untimed run of each sets how many times
    every timed run repeats its work: enough that a timed run of the faster
    work lasts at least FLOOR_S."""
    works = (before, after)
    fastest = math.inf
    for work in works:
        start = time.perf_counter()
        work()
        fastest = min(fastest, time.perf_counter() - start)
    loops = max(1, math.ceil(FLOOR_S / fastest))
    times: tuple[list[float], list[float]] = ([], [])
    for i in range(PAIRS):
        for side in (1, 0) if i % 2 else (0, 1):
            start = time.perf_counter()
            for _ in range(loops):
                works[side]()
            times[side].append((time.perf_counter() - start) / loops)
    return times


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
    into a temporary directory that is removed on exit; exits if git cannot
    resolve ``rev``."""
    parsed = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if parsed.returncode:
        sys.exit(f"--base {rev}: not a revision of this repository")
    short = parsed.stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", short, "src"], check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(tmp)
        yield short, Path(tmp) / "src"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    before = []
    after = []
    with revision_src(args.base) as (rev, src):
        trees = load_tree("indtree_before", src), load_tree("indtree", ROOT / "src")
        for group in GROUPS:
            (b_row, b_work), (a_row, a_work) = (measure(pkg, group) for pkg in trees)
            b_s, a_s = paired(b_work, a_work)
            ratios = [a / b for b, a in zip(b_s, a_s)]
            for row, seconds in ((b_row, b_s), (a_row, a_s)):
                row["wall_s"] = [round(s, 6) for s in seconds]
                row["wall_s_median"] = round(statistics.median(seconds), 6)
            a_row["ratio_median"] = round(statistics.median(ratios), 4)
            a_row["won"] = sum(r < 1 for r in ratios)
            before.append(b_row)
            after.append(a_row)
            print(
                f"{group}: {b_row['wall_s_median']} -> {a_row['wall_s_median']} s, "
                f"ratio {a_row['ratio_median']}, after faster in {a_row['won']}/{PAIRS}",
                file=sys.stderr,
            )
    report = {
        "what": "per group: one enumerate_connected_triangle_free(n) walk, or max_induced_tree "
        "once per graph and max_induced_tree_through and exists_induced_tree_through(rg, "
        "t(G, v) + 1) at every root; canonical_labeling calls made from indtree.enumeration, "
        "canon._search calls and the canon._refine calls made inside canon._search (the "
        "labeling search's nodes), the canon._refine calls made from indtree.enumeration and "
        "the sets enumeration._independent_sets lists for a walk's last level, solver calls, "
        "search nodes and prunings of each kind (rooted, unrooted, refuted), sha256 over the "
        "results, the counters left out, and sha256 over the values, the witnesses left out "
        f"too (exact); both trees in one interpreter, timed in {PAIRS} pairs of runs that "
        "alternate which tree runs first, each run repeating the work to last at least "
        f"{FLOOR_S} s: seconds per work in each pair (wall_s) and their median, and in the "
        "after rows the median over pairs of after / before (ratio_median) and the pairs "
        "in which after was faster (won)",
        "host": host(),
        "pairs": PAIRS,
        "same_results": all(b["results_sha256"] == a["results_sha256"] for b, a in zip(before, after)),
        "same_values": all(b["values_sha256"] == a["values_sha256"] for b, a in zip(before, after)),
        "before": {"rev": rev, "groups": before},
        "after": {"rev": "working tree", "groups": after},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
