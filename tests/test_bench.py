"""The per-group measurement of ``scripts/bench.py``, run in this interpreter,
and the merge of one tree's repeats."""

import hashlib
import sys

import pytest

from indtree import build_knn_minus_pm, canon, enumeration, is_connected, is_triangle_free, solver

from helpers import load_bench


def test_group_rows_count_both_layers_and_repeat():
    bench = load_bench()
    originals = [
        enumeration.canonical_labeling, canon._search, canon._refine,
        enumeration._refine, enumeration._independent_sets, solver._search,
    ]
    no_solves = {"calls": 0, "nodes": 0, "prunings": 0}

    walk = bench.measure("enumerate(7)")
    assert walk["graphs"] == 59
    # canon._refine counts only the refinements inside canon._search: its nodes
    assert walk["canon"] == {"canonical_labeling": 79, "_search": 79, "_refine": 337}
    # enumeration's refinements at every level, and the candidate sets of the last
    assert walk["enumeration"] == {"_refine": 118, "leaf_sets": 219}
    assert all(walk[kind] == no_solves for kind in bench.KINDS)

    solves = bench.measure("knn_minus_pm(6)")
    assert solves["graphs"] == 1
    assert solves["rooted"]["calls"] == 12 and solves["unrooted"]["calls"] == 1
    # one refutation at t(G, v) + 1 per root, each an exhaustive search
    refuted = solves["refuted"]
    assert refuted["calls"] == 12 and refuted["nodes"] == 2 * refuted["prunings"] - 12
    assert set(solves["canon"].values()) == set(solves["enumeration"].values()) == {0}

    # a walk has no witnesses, so its values are its results; a solve's
    # values are its sizes and refutation answers, in the order they ran
    assert walk["values_sha256"] == walk["results_sha256"]
    values = hashlib.sha256()
    for r in bench.solve_all([build_knn_minus_pm(6)]):
        if isinstance(r, bool):
            values.update(repr(("refuted", r)).encode())
        else:
            values.update(repr(("unrooted" if r.required_root is None else "rooted", r.size)).encode())
    assert solves["values_sha256"] == values.hexdigest() != solves["results_sha256"]

    for row in (walk, solves):
        assert len(row["wall_s"]) == len(row["reference_s"]) == bench.RUNS
        assert row["wall_ref_s"] == bench.in_reference_s(row["wall_s"], row["reference_s"])
        again = bench.measure(row["group"])
        assert {k: again[k] for k in bench.EXACT} == {k: row[k] for k in bench.EXACT}

    restored = [
        enumeration.canonical_labeling, canon._search, canon._refine,
        enumeration._refine, enumeration._independent_sets, solver._search,
    ]
    assert restored == originals


def test_random_group_solves_triangle_free_graphs_on_16_to_18_vertices():
    bench = load_bench()
    gs = bench.random_corpus(16, 18)
    assert [g.n for g in gs] == [16, 17, 18] * 8
    for g in gs:
        # a spanning tree plus up to 2n more edges, none closing a triangle
        assert is_connected(g) and is_triangle_free(g)
        assert g.n - 1 < g.edge_count <= 3 * g.n - 1
    assert [g.adj for g in bench.random_corpus(16, 18)] == [g.adj for g in gs]
    row = bench.measure("random(16..18)")
    assert row["graphs"] == 24 and row["unrooted"]["calls"] == 24
    assert row["rooted"]["calls"] == row["refuted"]["calls"] == 8 * (16 + 17 + 18)
    assert row["values_sha256"] != row["results_sha256"]


def test_repeats_merge_wall_times_and_must_agree():
    bench = load_bench()
    row = {
        "group": "g", "graphs": 1, "canon": {}, "enumeration": {}, "results_sha256": "a",
        "values_sha256": "b",
        **{k: {} for k in bench.KINDS},
    }
    rows = [
        {**row, "wall_s": [t], "reference_s": [r], "wall_ref_s": [t / r]}
        for t, r in ((0.3, 1.0), (0.1, 0.5), (0.2, 2.0))
    ]
    merged = bench.merge("g", "tree", rows)
    assert merged["wall_s"] == [0.3, 0.1, 0.2] and merged["wall_s_median"] == 0.2
    assert merged["reference_s"] == [1.0, 0.5, 2.0]
    assert merged["wall_ref_s"] == [0.3, 0.2, 0.1] and merged["wall_ref_s_median"] == 0.2
    assert {k: merged[k] for k in bench.EXACT} == {k: row[k] for k in bench.EXACT}
    rows[2] = {**rows[2], "graphs": 2}
    with pytest.raises(SystemExit, match="g: the repeats on tree differ in graphs"):
        bench.merge("g", "tree", rows)


def test_reference_seconds_cancel_the_host_speed():
    # an interpreter on a core twice as slow takes twice as long for the
    # work and for the reference samples, and reads the same reference
    # seconds; a mean sample of REFERENCE_S leaves the seconds as they are
    bench = load_bench()
    seconds, samples = [0.0123, 0.0456, 0.0789], [0.15, 0.25, 0.2]
    assert bench.in_reference_s(seconds, samples) == seconds
    assert bench.in_reference_s([2 * s for s in seconds], [2 * s for s in samples]) == seconds
    assert bench.in_reference_s(seconds, [s / 2 for s in samples]) == [0.0246, 0.0912, 0.1578]
    # the sample counts the independent sets of a fixed cubic graph
    assert bench.reference_search(0) == 1
    assert bench.reference_search(0b11) == 3  # the edge {0, 1}
    assert bench.reference_search(0b101) == 4  # 0 and 2 are not adjacent
    assert bench.reference_search((1 << 28) - 1) == bench.REFERENCE_COUNT
    assert bench.reference_sample() > 0


def test_the_counted_run_restores_the_previous_trace_function():
    bench = load_bench()

    def sentinel(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(sentinel)
    try:
        bench.measure("enumerate(5)")
        assert sys.gettrace() is sentinel
    finally:
        sys.settrace(previous)


def test_a_missing_canon_function_stops_the_measurement(monkeypatch):
    # a renamed function would otherwise count a plausible 0 calls
    bench = load_bench()
    monkeypatch.delattr(canon, "_refine")
    with pytest.raises(SystemExit, match=r"canon\._refine"):
        bench.measure("enumerate(4)")
