"""Canon work and wall time of one enumeration walk, before and after a change.

    python scripts/bench_enumeration.py --base REV --out BENCH_<label>.json

Measures two source trees: ``src/`` of git revision REV, extracted with
``git archive`` into a temporary directory, and ``src/`` of this checkout.
For each tree and each order n = 7..10 a fresh interpreter walks
``enumerate_connected_triangle_free(n)`` once with call counters wrapped
around the canon functions that ``indtree.enumeration`` calls
(``equitable_partition``, ``canonical_labeling``), around ``canon._search``,
the individualization search that every labeling runs, and around
``canon._refine``, through which both do their work. It then walks REPEATS
more times unwrapped for the wall time. A function that a tree does not
have is counted as 0 calls.
The counts are exact and machine-independent; the wall times are recorded
with the host that produced them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_common import ROOT, host, revision_src

ORDERS = (7, 8, 9, 10)
REPEATS = 3
# (module, function) pairs; each is wrapped where it is looked up at call time
COUNTED = (
    ("enumeration", "equitable_partition"),
    ("enumeration", "canonical_labeling"),
    ("canon", "_search"),
    ("canon", "_refine"),
)


def measure(n: int) -> dict:
    """Counted walk, then REPEATS timed walks, of order n in this interpreter."""
    from indtree import enumeration

    calls = {name: 0 for _, name in COUNTED}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = []
    for module_name, name in COUNTED:
        module = importlib.import_module(f"indtree.{module_name}")
        if hasattr(module, name):
            originals.append((module, name, getattr(module, name)))
    for module, name, fn in originals:
        setattr(module, name, counting(name, fn))
    try:
        classes = sum(1 for _ in enumeration.enumerate_connected_triangle_free(n))
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sum(1 for _ in enumeration.enumerate_connected_triangle_free(n))
        seconds.append(round(time.perf_counter() - start, 3))
    return {
        "n": n,
        "classes": classes,
        "calls": calls,
        "wall_s": seconds,
        "wall_s_median": statistics.median(seconds),
    }


def run_tree(src: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    rows = []
    for n in ORDERS:
        out = subprocess.run(
            [sys.executable, __file__, "--measure", str(n)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        rows.append(json.loads(out))
        print(f"{src}: {rows[-1]}", file=sys.stderr)
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--out", help="JSON file to write (required)")
    ap.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return
    if args.base is None or args.out is None:
        ap.error("--base and --out are required")
    with revision_src(args.base) as (rev, src):
        before = run_tree(src)
    after = run_tree(ROOT / "src")
    report = {
        "what": "one enumerate_connected_triangle_free(n) walk per order: canon calls made "
        "from indtree.enumeration, canon._search and canon._refine calls (exact), classes "
        "emitted, wall seconds",
        "host": host(),
        "repeats": REPEATS,
        "before": {"rev": rev, "orders": before},
        "after": {"rev": "working tree", "orders": after},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
