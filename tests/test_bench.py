"""The per-group measurement of ``scripts/bench.py``, run in this interpreter."""

import importlib
import importlib.util
from pathlib import Path

from indtree import canon, enumeration

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_group_rows_count_both_layers_and_repeat():
    bench = load_bench()
    originals = [
        getattr(importlib.import_module(f"indtree.{module}"), name) for module, name in bench.CANON
    ]
    no_solves = {"calls": 0, "nodes": 0, "prunings": 0}

    walk = bench.measure("enumerate(7)")
    assert walk["graphs"] == 59
    assert walk["canon"] == {
        "equitable_partition": 147, "canonical_labeling": 86, "_search": 86, "_refine": 772,
    }
    assert walk["rooted"] == no_solves and walk["unrooted"] == no_solves

    solves = bench.measure("knn_minus_pm(6)")
    assert solves["graphs"] == 1
    assert solves["rooted"]["calls"] == 12 and solves["unrooted"]["calls"] == 1
    assert set(solves["canon"].values()) == {0}

    for row in (walk, solves):
        assert len(row["wall_s"]) == bench.REPEATS
        again = bench.measure(row["group"])
        assert again["results_sha256"] == row["results_sha256"]
        assert {k: again[k] for k in ("canon", "rooted", "unrooted")} == {
            k: row[k] for k in ("canon", "rooted", "unrooted")
        }

    restored = [
        enumeration.equitable_partition, enumeration.canonical_labeling, canon._search, canon._refine,
    ]
    assert restored == originals
