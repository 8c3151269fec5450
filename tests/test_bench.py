"""The per-group measurement of ``scripts/bench.py``, run in this interpreter,
its paired timing, and a second tree loaded under its own name."""

import hashlib
import sys
import time

import pytest

import indtree
from indtree import build_knn_minus_pm, canon, enumeration, is_connected, is_triangle_free, solver

from helpers import BENCH_SCRIPT, load_bench


def test_group_rows_count_both_layers_and_repeat():
    bench = load_bench()

    walk, _ = bench.measure(indtree, "enumerate(7)")
    assert walk["graphs"] == 59
    # the rows hold each layer's record differences under the record's names:
    # canon's searches, one per labeling enumeration makes, and their nodes
    assert walk["canon"] == {"searches": 51, "nodes": 194}
    e = walk["enumeration"]
    assert e["walks"] == 1 and e["labelings"] == 51 and e["leaf_sets"] == 219
    # enumeration's refinements at every level: each refined candidate is
    # rejected, settled, twins, twin cells or labeled
    assert e["rejected"] + e["settled"] + e["twins"] + e["twin_cells"] + e["labelings"] == 118
    assert set(walk["solver"].values()) == {0}

    solves, _ = bench.measure(indtree, "knn_minus_pm(6)")
    assert solves["graphs"] == 1
    s = solves["solver"]
    assert s["rooted_calls"] == 12 and s["unrooted_calls"] == 1
    # one refutation at t(G, v) + 1 per root, each an exhaustive search
    assert s["exists_calls"] == 12 and s["exists_nodes"] == 2 * s["exists_prunings"] - 12
    assert set(solves["canon"].values()) == set(solves["enumeration"].values()) == {0}

    # a walk has no witnesses, so its values are its results; a solve's
    # values are its sizes and refutation answers, in the order they ran
    assert walk["values_sha256"] == walk["results_sha256"]
    values = hashlib.sha256()
    for r in bench.solve_all(indtree, [build_knn_minus_pm(6)]):
        if isinstance(r, bool):
            values.update(repr(("refuted", r)).encode())
        else:
            values.update(repr(("unrooted" if r.required_root is None else "rooted", r.size)).encode())
    assert solves["values_sha256"] == values.hexdigest() != solves["results_sha256"]

    for row in (walk, solves):
        assert set(row) == {"group", *bench.EXACT}
        again, _ = bench.measure(indtree, row["group"])
        assert again == row


def test_random_group_solves_triangle_free_graphs_on_16_to_18_vertices():
    bench = load_bench()
    gs = bench.random_corpus(16, 18)
    assert [g.n for g in gs] == [16, 17, 18] * 8
    for g in gs:
        # a spanning tree plus up to 2n more edges, none closing a triangle
        assert is_connected(g) and is_triangle_free(g)
        assert g.n - 1 < g.edge_count <= 3 * g.n - 1
    assert [g.adj for g in bench.random_corpus(16, 18)] == [g.adj for g in gs]
    row, _ = bench.measure(indtree, "random(16..18)")
    assert row["graphs"] == 24 and row["solver"]["unrooted_calls"] == 24
    assert row["solver"]["rooted_calls"] == row["solver"]["exists_calls"] == 8 * (16 + 17 + 18)
    assert row["values_sha256"] != row["results_sha256"]


def test_rooted_census_group_runs_the_claims_instance_stream():
    # one walk and one rooted solve per (G, v) of the n = 9 census, digested
    # by its sizes alone
    bench = load_bench()
    row, _ = bench.measure(indtree, "rooted_census(9)")
    assert row["graphs"] == 1380 and row["enumeration"]["walks"] == 1
    s = row["solver"]
    assert s["rooted_calls"] == 12420 and s["unrooted_calls"] == s["exists_calls"] == 0
    assert row["values_sha256"] == row["results_sha256"]
    sizes = hashlib.sha256()
    for _, t in indtree.rooted_census(9):
        sizes.update(repr(t).encode())
    assert row["values_sha256"] == sizes.hexdigest()


def test_pairs_alternate_which_work_runs_first(monkeypatch):
    bench = load_bench()
    monkeypatch.setattr(bench, "PAIRS", 4)
    calls = []

    def logging(side):
        def work():
            calls.append(side)
            time.sleep(bench.FLOOR_S)  # one run reaches the floor: no repeats
        return work

    before, after = bench.paired(logging("before"), logging("after"))
    assert len(before) == len(after) == 4
    assert min(before + after) >= bench.FLOOR_S
    # one untimed run of each, then the pairs, the first side alternating
    assert calls == ["before", "after"] + ["before", "after", "after", "before"] * 2


def test_a_tree_loaded_under_another_name_is_a_separate_package():
    bench = load_bench()
    twin = bench.load_tree("indtree_twin", BENCH_SCRIPT.parent.parent / "src")
    try:
        assert twin.canon is not indtree.canon
        assert twin.Graph is not indtree.Graph
        records = [module.COUNTERS for module in (canon, enumeration, solver)]
        kept = [dict(record) for record in records]
        walk, _ = bench.measure(twin, "enumerate(7)")
        solves, _ = bench.measure(twin, "knn_minus_pm(6)")
        # the twin counts its own work, and leaves this tree's records unchanged
        assert records == kept and solves["solver"]["exists_calls"] == 12
        assert walk == bench.measure(indtree, "enumerate(7)")[0]
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "indtree_twin"]:
            del sys.modules[name]


def test_a_tree_without_the_counters_record_stops_the_measurement(monkeypatch):
    # a revision older than the record would otherwise count nothing
    bench = load_bench()
    monkeypatch.delattr(enumeration, "COUNTERS")
    with pytest.raises(SystemExit, match=r"'indtree\.enumeration' has no attribute 'COUNTERS'"):
        bench.measure(indtree, "enumerate(4)")


def test_a_base_that_git_cannot_resolve_exits_naming_it():
    bench = load_bench()
    with pytest.raises(SystemExit, match="--base no-such-revision: not a revision"):
        with bench.revision_src("no-such-revision"):
            pass
