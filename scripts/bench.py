"""Counters, result digests and wall time on fixed groups, before and after a change.

    python scripts/bench.py --base REV --out BENCH_<label>.json

Measures two source trees: ``src/`` of git revision REV, extracted with
``git archive`` into a temporary directory, and ``src/`` of this checkout.
Every run measures the same GROUPS: one enumeration walk
``enumerate_connected_triangle_free(n)`` for n = 7..10, then
``max_induced_tree`` once per graph plus ``max_induced_tree_through`` and the
refutation ``exists_induced_tree_through(rg, t(G, v) + 1)`` at every root over
the n = 9 census, G_6, K_{m,m} minus a perfect matching for m = 6..8, the
2 x 16 ladder (rails 0..15 and 16..31, rung i joining i and 16 + i) and
RANDOM_GRAPHS seeded random connected triangle-free graphs on 16, 17 and 18
vertices in turn (a random spanning tree plus n..2n edges that close no
triangle, the sizes where the solver's pick rule tells most). Each group
runs REPEATS times in a fresh interpreter per tree and repeat; the trees
alternate repeat by repeat, and which tree runs first alternates from group
to group too, so a change in host load falls on both.

Each interpreter builds the group's input untimed and runs its work once
counted, under one ``sys.settrace`` function; the trace function in place
before, if any, is put back afterwards, and no function of indtree is
rebound. The hook sees every Python call and counts by code object and
the caller's file: ``canon.canonical_labeling`` called from
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
under CPython 3.11.7, and is gone before the interpreter times RUNS more
runs of the work: on a shared host single runs in fresh interpreters
spread too widely for a change of 10-20% to show in their median. Before
each timed run it times a reference sample, a fixed pure-Python bitset
search that shares no code with indtree, so no change to the program moves
it. The speed of one core on a shared host jumps between levels as other
tenants come and go, and a whole interpreter tends to run at one level, so
the raw medians of a group jump with the share of its interpreters that
ran slow. Each run is therefore also reported in reference seconds: its
time times REFERENCE_S over the mean of the interpreter's reference
samples. ``perfbench/run.py`` scales by a search of its own that takes
about 1.7-1.8 times as long on the same core, so its reference seconds are
another unit and must not be compared with these; this search stays as it
is, so that the ``reference_s`` of earlier artifacts stay comparable.

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
are exact and machine-independent, so a tree's REPEATS rows of a group
must agree on them, and the script exits non-zero, naming the group, when
they do not; the artifact keeps one row per tree and group, with the wall
times of all the runs of all its repeats, raw and in reference seconds.
The wall times are recorded with the host that produced them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
GROUPS = (
    "enumerate(7)", "enumerate(8)", "enumerate(9)", "enumerate(10)",
    "census(9)", "g_k(6)", "knn_minus_pm(6)", "knn_minus_pm(7)", "knn_minus_pm(8)",
    "ladder(16)", "random(16..18)",
)
REPEATS = 9
RUNS = 5  # timed runs per interpreter
# the row fields that every repeat of a group on one tree must reproduce
EXACT = (
    "graphs", "canon", "enumeration", "rooted", "unrooted", "refuted",
    "results_sha256", "values_sha256",
)
KINDS = ("rooted", "unrooted", "refuted")
# on a host where reference_sample() takes this long, reference seconds are seconds
REFERENCE_S = 0.2
# a fixed cubic graph: the 28-cycle and its 14 antipodal chords
REFERENCE_ADJ = tuple(sum(1 << (v + d) % 28 for d in (1, 14, 27)) for v in range(28))
REFERENCE_COUNT = 228485  # its independent sets, the empty one included
RANDOM_SEED = 1
RANDOM_GRAPHS = 24


def reference_search(within: int) -> int:
    """Independent sets of REFERENCE_ADJ inside ``within``; every node also
    buckets its vertices by degree, for the dict and bit work of indtree's
    inner loops."""
    buckets: dict[int, int] = {}
    rest = within
    while rest:
        low = rest & -rest
        rest ^= low
        d = (REFERENCE_ADJ[low.bit_length() - 1] & within).bit_count()
        buckets[d] = buckets.get(d, 0) | low
    total = 1
    while within:
        low = within & -within
        within ^= low
        total += reference_search(within & ~REFERENCE_ADJ[low.bit_length() - 1])
    return total


def reference_sample() -> float:
    """Seconds for one full reference search."""
    start = time.perf_counter()
    if reference_search((1 << 28) - 1) != REFERENCE_COUNT:
        raise AssertionError("the reference search miscounted")
    return time.perf_counter() - start


def in_reference_s(seconds: list[float], samples: list[float]) -> list[float]:
    """``seconds`` in reference seconds: each times REFERENCE_S over the
    mean of the reference ``samples`` taken in the same interpreter."""
    factor = REFERENCE_S / statistics.mean(samples)
    return [round(s * factor, 4) for s in seconds]


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


def measure(group: str) -> dict:
    """Untimed build, one counted run and RUNS timed runs, each after a
    reference sample, of one group in this interpreter."""
    import indtree
    from indtree import canon, enumeration, solver

    name, arg = group[:-1].split("(")
    n, _, high = arg.partition("..")  # random(16..18): orders 16 to 18
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
        elif name == "random":
            gs = random_corpus(n, int(high))
        else:
            gs = [indtree.build_knn_minus_pm(n)]

        def work():
            return solve_all(gs)

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
            line = indtree.to_graph6(r) + b"\n"
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
    seconds = []
    samples = []
    for _ in range(RUNS):
        # rounded before scaling, so wall_ref_s follows from the stored reference_s
        samples.append(round(reference_sample(), 4))
        start = time.perf_counter()
        work()
        seconds.append(round(time.perf_counter() - start, 4))
    scaled = in_reference_s(seconds, samples)
    return {
        "group": group,
        "graphs": len(results) if name == "enumerate" else len(gs),
        "canon": canon_counts,
        "enumeration": enumeration_counts,
        **solver_counts,
        "results_sha256": digest.hexdigest(),
        "values_sha256": values.hexdigest(),
        "wall_s": seconds,
        "wall_s_median": statistics.median(seconds),
        "reference_s": samples,
        "wall_ref_s": scaled,
        "wall_ref_s_median": statistics.median(scaled),
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
    merged = dict(rows[0])
    for key in ("wall_s", "reference_s", "wall_ref_s"):
        merged[key] = [s for row in rows for s in row[key]]
    merged["wall_s_median"] = statistics.median(merged["wall_s"])
    merged["wall_ref_s_median"] = statistics.median(merged["wall_ref_s"])
    return merged


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
        "labeling search's nodes), the canon._refine calls made from indtree.enumeration and "
        "the sets enumeration._independent_sets lists for a walk's last level, solver calls, "
        "search nodes and prunings of each kind (rooted, unrooted, refuted), sha256 over the "
        "results, the counters left out, and sha256 over the values, the witnesses left out "
        f"too (exact); wall seconds of {RUNS} more runs of the "
        f"same work in each of {REPEATS} fresh interpreters, raw (wall_s) and in reference "
        f"seconds (wall_ref_s: times {REFERENCE_S} s over the mean of the reference samples "
        "taken before each run in the same interpreter, reference_s)",
        "host": host(),
        "repeats": REPEATS,
        "same_results": all(b["results_sha256"] == a["results_sha256"] for b, a in zip(before, after)),
        "same_values": all(b["values_sha256"] == a["values_sha256"] for b, a in zip(before, after)),
        "before": {"rev": rev, "groups": before},
        "after": {"rev": "working tree", "groups": after},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
