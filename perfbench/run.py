"""indtree benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

``--workload`` is enumerate, claims, solve, or all (each of the three in its
own process, one after the other). With ``--trace 0`` the workload's pass is
repeated untraced for about ``--seconds`` and the end-to-end metrics are
printed; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are printed, the tracing overhead among them, and the
spans are written to perfbench/out/. The program is imported from ./src of
the checkout and nowhere else. Everything runs in one thread.

Stdout ends with a metric table, one JSON line describing the host and the
run, and finally the result object
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, layer_counts, layer_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15
MIN_PASSES = 2  # a solve pass takes about half of a run

# On a shared machine the speed of one core changes by up to a factor of 1.7
# from one second to the next as other tenants come and go, so raw medians
# of two runs minutes apart can differ by more than any useful bound. Every
# timed metric is therefore expressed in reference seconds: measured seconds
# times REFERENCE_S over the mean time of reference_sample() in the same
# phase of the run. The pass metrics use the samples taken before every pass
# and, in a long pass, between its items; setup_s uses the samples taken
# before each set-up probe. The mean, not the median: on a contended host
# the samples fall into a fast and a slow group, and their median jumps
# between the two, while their mean grows with the contended share of the
# time, as the time of a pass does. On a machine where the search takes
# REFERENCE_S the figures are plain seconds. The raw figures are printed
# beside the scaled ones. For the same reason pass times, and an item's
# times over the passes, are combined by their mean.
REFERENCE_S = 0.2
# a fixed cubic graph: the 28-cycle plus its 14 antipodal chords
_REFERENCE_ADJ = tuple(sum(1 << (v + d) % 28 for d in (1, 14, 27)) for v in range(28))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reference_search(candidates: int) -> int:
    """Independent sets within ``candidates``, grouping candidates by degree
    at every node: the bitset, generator and dict work of indtree's loops."""
    groups: dict[int, int] = {}
    for v in _bits(candidates):
        d = (_REFERENCE_ADJ[v] & candidates).bit_count()
        groups[d] = groups.get(d, 0) | 1 << v
    total = 1
    for v in _bits(candidates):
        candidates &= ~(1 << v)
        total += _reference_search(candidates & ~_REFERENCE_ADJ[v])
    return total


def reference_sample() -> float:
    """Seconds for a fixed pure-Python bitset search.

    It shares no code with indtree, so no change to the program moves it.
    """
    start = time.perf_counter()
    if _reference_search((1 << 28) - 1) != 228485:
        raise AssertionError("reference search miscounted")
    return time.perf_counter() - start


def rescale(metrics: dict, factor: float) -> dict:
    """Scale timed metrics by ``factor``: seconds up, rates down."""
    per_time = {"s": factor, "ms": factor, "us": factor, "1/s": 1 / factor}
    return {
        name: (value * per_time[unit] if unit in per_time else value, unit)
        for name, (value, unit) in metrics.items()
    }


def import_indtree() -> None:
    """Import indtree from the checkout's src/, refusing any other copy."""
    if not (SRC / "indtree" / "__init__.py").is_file():
        raise SystemExit(f"error: no indtree package under {SRC}")
    sys.path.insert(0, str(SRC))
    import indtree

    if Path(indtree.__file__).resolve().parent != SRC / "indtree":
        raise SystemExit(f"error: imported indtree from {indtree.__file__}, not {SRC}")


def host_info(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "optimize": sys.flags.optimize,
        "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no such percentile exists and the maximum
    is returned as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def setup_times(workload: str, seed: int, refs: list[float]) -> list[float]:
    """Wall time of fresh processes that start Python, import indtree,
    generate the workload's inputs and warm up, then exit.

    A reference sample is appended to ``refs`` before each probe.
    """
    cmd = [sys.executable, *["-O"] * sys.flags.optimize, str(Path(__file__).resolve())]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    cmd += ["--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_sample())
        start = time.perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which rounds the measured time up to the next poll
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def judge(wl, passes) -> tuple[int, int, list[str]]:
    """Check every pass; identical outputs are checked once."""
    seen: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        key = (p.output, tuple(p.errors))
        if key not in seen:
            seen[key] = wl.check(p)
            problems += seen[key].problems
        attempted += seen[key].attempted
        failed += seen[key].failed
    return attempted, failed, problems


def timed_run(wl, seconds: float, refs: list[float]) -> list:
    """Passes for about ``seconds``, with a reference sample before each and
    wherever a pass pauses."""

    def sample() -> None:
        refs.append(reference_sample())

    passes = []
    start = time.perf_counter()
    while True:
        sample()
        passes.append(wl.run_pass(sample))
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            return passes


def traced_run(wl, seconds: float, tracer, refs: list[float]) -> tuple[list, list, list]:
    """Alternate untraced and traced passes over the same input."""
    untraced, traced, traces = [], [], []

    def sample() -> None:
        refs.append(reference_sample())

    start = time.perf_counter()
    while True:
        sample()
        untraced.append(wl.run_pass(sample))
        traces.append(tracer.start_pass())
        with tracer:
            traced.append(wl.run_pass(sample))
        typical = statistics.median(p.wall_s for p in untraced + traced) * 2
        if len(traced) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            return untraced, traced, traces


def end_to_end(wl, passes, setup: list[float], setup_refs: list[float]) -> tuple[dict, dict, float]:
    """Raw metrics, details, and the set-up median in reference seconds."""
    wall = statistics.mean(p.wall_s for p in passes)
    # an item seen in several passes counts once, at its mean latency
    repeats: dict = {}
    for p in passes:
        for item, seconds in p.latencies_s.items():
            repeats.setdefault(item, []).append(seconds)
    latencies = [statistics.mean(xs) for xs in repeats.values()]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (wl.items / wall, "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "passes": len(passes),
        "items_per_pass": wl.items,
        "items_timed": len(latencies),
        "item_tail_percentile": round(tail_pct, 3),
        "setup_samples_s": setup,
        "setup_reference_s": setup_refs,
    }
    setup_scaled = statistics.median(setup) * REFERENCE_S / statistics.mean(setup_refs)
    return metrics, details, setup_scaled


def per_layer(untraced, traced, traces) -> tuple[dict, dict]:
    counts = layer_counts(traces[0])
    secs = {
        key: statistics.mean(layer_seconds(t)[key] for t in traces)
        for key in layer_seconds(traces[0])
    }

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {
        "canon.calls": (counts["canon.calls"], "count"),
        "canon.self_s": (secs["canon"], "s"),
        "canon.us_per_call": (ratio(secs["canon"] * 1e6, counts["canon.calls"]), "us"),
        "enumeration.walks": (counts["enumeration.walks"], "count"),
        "enumeration.classes": (counts["enumeration.classes"], "count"),
        "enumeration.self_s": (secs["enumeration"], "s"),
        "enumeration.labelings_per_class": (
            ratio(counts["enumeration.canon_from_enumeration"], counts["enumeration.classes"]),
            "calls/class",
        ),
        "solver.calls": (counts["solver.calls"], "count"),
        "solver.rooted_calls": (counts["solver.rooted_calls"], "count"),
        "solver.unrooted_calls": (counts["solver.unrooted_calls"], "count"),
        "solver.exists_calls": (counts["solver.exists_calls"], "count"),
        "solver.nodes": (counts["solver.nodes"], "count"),
        "solver.prunings": (counts["solver.prunings"], "count"),
        "solver.self_s": (secs["solver"], "s"),
        "solver.nodes_per_s": (ratio(counts["solver.nodes"], secs["solver.search"]), "1/s"),
        "solver.calls_per_instance": (
            ratio(counts["solver.rooted_calls"], counts["solver.rooted_instances"]),
            "calls/instance",
        ),
        "graph.calls": (counts["graph.calls"], "count"),
        "graph.self_s": (secs["graph"], "s"),
        "formats.calls": (counts["formats.calls"], "count"),
        "formats.self_s": (secs["formats"], "s"),
        "constructions.calls": (counts["constructions.calls"], "count"),
        "constructions.self_s": (secs["constructions"], "s"),
        "verify.self_s": (secs["verify"], "s"),
        "cli.self_s": (secs["cli"], "s"),
        "trace.overhead_s": (
            statistics.mean(p.wall_s for p in traced)
            - statistics.mean(p.wall_s for p in untraced),
            "s",
        ),
    }
    details = {
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "traced_wall_s": statistics.mean(p.wall_s for p in traced),
        "untraced_wall_s": statistics.mean(p.wall_s for p in untraced),
        "counts": counts,
    }
    return metrics, details


def write_spans(path: Path, workload: str, seed: int, tracer, traces) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "names": tracer.names,
                "span_fields": ["name", "start_s", "end_s", "parent"],
                "passes": [t.spans for t in traces],
            },
            fh,
        )


def run_all(args) -> int:
    """Each workload in its own process, output passed through."""
    code = 0
    for name in ("enumerate", "claims", "solve"):
        cmd = [sys.executable, *["-O"] * sys.flags.optimize, str(Path(__file__).resolve())]
        cmd += ["--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("enumerate", "claims", "solve", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_indtree()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    if args.setup_only:
        return 0

    refs: list[float] = []
    if args.trace:
        tracer = Tracer()
        untraced, traced, traces = traced_run(wl, args.seconds, tracer, refs)
        passes = untraced + traced
        metrics, details = per_layer(untraced, traced, traces)
        # exact counts must repeat: a traced pass that differs is a failed operation
        problems_extra = [
            f"traced pass {i}: per-layer counts differ from traced pass 0"
            for i, t in enumerate(traces)
            if layer_counts(t) != details["counts"]
        ]
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_spans(spans_file, args.workload, args.seed, tracer, traces)
        details["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        setup_refs: list[float] = []
        setup = setup_times(args.workload, args.seed, setup_refs)
        passes = timed_run(wl, args.seconds, refs)
        metrics, details, setup_scaled = end_to_end(wl, passes, setup, setup_refs)
        problems_extra = []
    reference = statistics.mean(refs)
    raw, metrics = metrics, rescale(metrics, REFERENCE_S / reference)
    if not args.trace:
        metrics["setup_s"] = (setup_scaled, "s")

    attempted, failed, problems = judge(wl, passes)
    attempted += len(problems_extra)
    failed += len(problems_extra)
    problems += problems_extra
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    print(f"{'workload':10} {'metric':34} {'value':>16} {'raw':>16} unit")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10} {name:34} {value:>16.6f} {raw[name][0]:>16.6f} {unit}")
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_info(args.seed),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "reference_s": {"mean": reference, "scaled_to": REFERENCE_S, "samples": refs},
        "pass_walls_s": [p.wall_s for p in passes],
        **details,
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
