"""The per-group measurement of ``scripts/bench.py``, run in this interpreter,
and the merge of one tree's repeats."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from indtree import canon, enumeration, solver

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
    ] + [solver._search]
    no_solves = {"calls": 0, "nodes": 0, "prunings": 0}

    walk = bench.measure("enumerate(7)")
    assert walk["graphs"] == 59
    # canon._refine counts only the refinements inside canon._search: its nodes
    assert walk["canon"] == {"canonical_labeling": 86, "_search": 86, "_refine": 369}
    assert all(walk[kind] == no_solves for kind in bench.KINDS)

    solves = bench.measure("knn_minus_pm(6)")
    assert solves["graphs"] == 1
    assert solves["rooted"]["calls"] == 12 and solves["unrooted"]["calls"] == 1
    # one refutation at t(G, v) + 1 per root, each an exhaustive search
    refuted = solves["refuted"]
    assert refuted["calls"] == 12 and refuted["nodes"] == 2 * refuted["prunings"] - 12
    assert set(solves["canon"].values()) == {0}

    for row in (walk, solves):
        assert len(row["wall_s"]) == bench.RUNS
        again = bench.measure(row["group"])
        assert again["results_sha256"] == row["results_sha256"]
        assert {k: again[k] for k in ("canon", *bench.KINDS)} == {
            k: row[k] for k in ("canon", *bench.KINDS)
        }

    restored = [enumeration.canonical_labeling, canon._search, canon._refine, solver._search]
    assert restored == originals


def test_repeats_merge_wall_times_and_must_agree():
    bench = load_bench()
    row = {"group": "g", "graphs": 1, "canon": {}, "results_sha256": "a", **{k: {} for k in bench.KINDS}}
    rows = [{**row, "wall_s": [t], "wall_s_median": t} for t in (0.3, 0.1, 0.2)]
    merged = bench.merge("g", "tree", rows)
    assert merged["wall_s"] == [0.3, 0.1, 0.2] and merged["wall_s_median"] == 0.2
    assert {k: merged[k] for k in bench.EXACT} == {k: row[k] for k in bench.EXACT}
    rows[2] = {**rows[2], "graphs": 2}
    with pytest.raises(SystemExit, match="g: the repeats on tree differ in graphs"):
        bench.merge("g", "tree", rows)


def test_a_missing_canon_function_stops_the_measurement(monkeypatch):
    # a renamed function would otherwise count a plausible 0 calls
    bench = load_bench()
    monkeypatch.delattr(canon, "_refine")
    with pytest.raises(SystemExit, match=r"canon\._refine"):
        bench.measure("enumerate(4)")
