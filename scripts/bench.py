"""Counters, result digests and wall time on fixed groups, before and after a change.

    python scripts/bench.py --base REV --out BENCH_<label>.json

Measures two source trees in one interpreter: ``src/`` of git revision REV,
extracted with ``git archive`` into a temporary directory and imported as
the package ``indtree_before``, and ``src/`` of this checkout, imported as
``indtree``. Every run measures the same GROUPS: one enumeration walk
``enumerate_connected_triangle_free(n)`` for n = 7..10; then
``max_induced_tree`` once per graph plus ``max_induced_tree_through`` and the
refutation ``exists_induced_tree_through(rg, t(G, v) + 1)`` at every root over
the n = 9 census; the claims' instance stream ``verify.rooted_census(9)``, its
walk and t(G, v) at every root as the rooted claims read it; and the solves
as above over G_6, K_{m,m} minus a perfect matching for m = 6..8, the
2 x 16 ladder (rails 0..15 and 16..31, rung i joining i and 16 + i) and
RANDOM_GRAPHS seeded random connected triangle-free graphs on 16, 17 and 18
vertices in turn (a random spanning tree plus n..2n edges that close no
triangle, the sizes where the solver's pick rule tells most).

For each group and tree, ``measure`` builds the input from that tree
untimed and runs the work once, counted by the differences it makes to
the counters records ``COUNTERS`` of the tree's ``canon``, ``enumeration``
and ``solver``, which the row holds as they stand under those three names;
README's "Before/after measurements" describes the records. The script
exits, naming the record, when a tree lacks one.

``paired`` then runs each tree's work once more, untimed, which sets how
many times a timed run repeats the work, so that a timed run lasts at
least FLOOR_S, and times PAIRS pairs of runs, one per tree, alternating
which tree runs first from pair to pair. The two runs of a pair are
adjacent in time, so a change in the host's speed between pairs falls on
both, and the after/before ratio of each pair cancels it.

Every row records the same fields, those README lists: the exact
counters and results digests, the same on any machine, and the host's wall
times, ``wall_s`` per pair and their median, with ``ratio_median`` and
``won`` in each ``after`` row.
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
    "census(9)", "rooted_census(9)", "g_k(6)", "knn_minus_pm(6)", "knn_minus_pm(7)", "knn_minus_pm(8)",
    "ladder(16)", "random(16..18)",
)
PAIRS = 30
# a timed run repeats the work until it lasts at least this long, so that
# the 3-10 ms groups are not timed at the clock's and the scheduler's grain
FLOOR_S = 0.05
# the row fields that are the same on any machine
EXACT = ("graphs", "canon", "enumeration", "solver", "results_sha256", "values_sha256")
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
    name, arg = group[:-1].split("(")
    n, _, high = arg.partition("..")  # random(16..18): orders 16 to 18
    n = int(n)
    if name == "enumerate":
        gs = []

        def work():
            return list(pkg.enumerate_connected_triangle_free(n))
    elif name == "rooted_census":
        gs = []

        def work():
            return list(pkg.verify.rooted_census(n))
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

    modules = (pkg.canon, pkg.enumeration, pkg.solver)
    try:
        starts = [dict(module.COUNTERS) for module in modules]
    except AttributeError as exc:
        sys.exit(f"{exc}: the tree predates the counters record")
    results = work()
    walks = name in ("enumerate", "rooted_census")
    row = {"group": group, "graphs": len(results) if walks else len(gs)}
    # the run's work in canon, enumeration and solver: each record's differences
    for layer, module, start in zip(("canon", "enumeration", "solver"), modules, starts):
        row[layer] = {k: module.COUNTERS[k] - v for k, v in start.items()}

    digest = hashlib.sha256()
    values = hashlib.sha256()
    for r in results:
        if name == "enumerate":
            result = value = pkg.to_graph6(r) + b"\n"
        elif name == "rooted_census":
            result = value = repr(r[1]).encode()  # r is (g, sizes)
        elif isinstance(r, bool):
            result = value = repr(("refuted", r)).encode()
        else:
            kind = "unrooted" if r.required_root is None else "rooted"
            result = repr((kind, r.size, r.witness)).encode()
            value = repr((kind, r.size)).encode()
        digest.update(result)
        values.update(value)
    row["results_sha256"] = digest.hexdigest()
    row["values_sha256"] = values.hexdigest()
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
        "what": "per group: the row fields of README's 'Before/after measurements', "
        f"exact counters and digests, then seconds per work in each of {PAIRS} pairs of "
        "alternating runs",
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
