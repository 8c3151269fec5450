import dataclasses
import os
import subprocess
import sys

import pytest

import indtree
from indtree import (
    GraphError,
    RootedGraph,
    build_g_k,
    closed_neighborhood,
    from_graph6,
    max_induced_tree_through,
    verify_corollary,
    verify_counterexample_b5,
    verify_diameter_remark,
    verify_theorem1,
    verify_theorem2,
)
from indtree.verify import FailureRecord, VerificationReport, _report


def test_theorem1_passes_small():
    rep = verify_theorem1(6)
    assert rep.passed
    assert rep.status == "pass"
    assert rep.failures == ()
    assert rep.claim == "theorem1"
    assert dict(rep.parameters) == {"max_n": 6}
    assert rep.instances_checked > 0


def test_theorem2_passes_small():
    rep = verify_theorem2(6)
    assert rep.passed
    assert rep.failures == ()


def test_theorems_share_instance_stream():
    assert verify_theorem1(5).instances_checked == verify_theorem2(5).instances_checked


def test_theorem2_equality_attained_by_the_extremal_family():
    # at k = 3 and 4 the outside-neighborhood bound is met with equality
    for k in (3, 4):
        rg = build_g_k(k)
        assert max_induced_tree_through(rg).size == k
        outside = rg.graph.n - closed_neighborhood(rg.graph, rg.root).bit_count()
        assert outside == (k - 2) * (k - 1) // 2


def test_corollary_passes_small():
    rep = verify_corollary(6)
    assert rep.passed
    assert rep.instances_checked == 1 + 1 + 1 + 3 + 6 + 19


def test_counterexample_b5_passes():
    rep = verify_counterexample_b5()
    assert rep.passed
    assert rep.instances_checked == 2
    assert rep.parameters == ()


def test_diameter_remark_passes():
    rep = verify_diameter_remark(3, max_n=7)
    assert rep.passed
    assert dict(rep.parameters) == {"k": 3, "max_n": 7}


def test_diameter_remark_guards():
    with pytest.raises(GraphError):
        verify_diameter_remark(1, max_n=8)
    with pytest.raises(GraphError):
        verify_diameter_remark(5, max_n=9)  # |B_5| + 1 = 10 > 9
    with pytest.raises(GraphError):
        verify_diameter_remark(3, max_n=13)


def test_diameter_remark_checks_the_order_before_building_b_k(monkeypatch):
    def fail(k):
        raise AssertionError(f"build_b_k({k}) called")

    monkeypatch.setattr("indtree.verify.build_b_k", fail)
    with pytest.raises(GraphError):
        verify_diameter_remark(200, max_n=9)  # |B_200| + 1 = 10101 > 9


def test_budget_guards():
    with pytest.raises(GraphError):
        verify_theorem1(13)
    with pytest.raises(GraphError):
        verify_theorem2(0)
    with pytest.raises(GraphError):
        verify_corollary(13)


def test_reports_deterministic_up_to_elapsed():
    a = dataclasses.replace(verify_theorem1(5), elapsed=0.0)
    b = dataclasses.replace(verify_theorem1(5), elapsed=0.0)
    assert a == b


_UNDER_O = """
import sys
from indtree import Graph, GraphError, SearchStats, TreeSearchResult
from indtree.cli import run
from indtree.solver import _check_witness

if __debug__:
    sys.exit("not running under -O")
try:
    Graph(2, [2, 0])
    sys.exit("Graph(2, [2, 0]) was accepted")
except GraphError:
    pass
try:
    _check_witness(Graph(2, [0, 0]), TreeSearchResult(2, 0b11, None, SearchStats(0, 0)))
    sys.exit("a disconnected witness was accepted")
except AssertionError:
    pass
sys.exit(run(["verify", "--claim", "theorem1", "--max-n", "5"]))
"""


def test_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(indtree.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "status: PASS" in proc.stdout


def test_report_status_iff_failures():
    ok = _report("theorem1", (("max_n", 3),), 7, [], 0.0)
    assert ok.status == "pass" and ok.passed
    bad = _report(
        "theorem1",
        (("max_n", 3),),
        7,
        [FailureRecord("Bg", 1, (("n", 3), ("t_rooted", 2)))],
        0.0,
    )
    assert bad.status == "fail" and not bad.passed
    assert len(bad.failures) == 1


def test_report_json_schema():
    rep = verify_counterexample_b5()
    d = rep.to_json_dict()
    assert d["schema"] == 1
    assert d["claim"] == "counterexample_b5"
    assert d["status"] == "pass"
    assert d["failures"] == []
    assert isinstance(d["elapsed"], float)
    fr = FailureRecord("Bg", None, (("n", 3), ("bound", 2)))
    assert fr.to_json_dict() == {"graph6": "Bg", "root": None, "observed": {"n": 3, "bound": 2}}


def test_failure_records_would_replay():
    # a fabricated failure record round-trips through graph6 and the solver
    fr = FailureRecord("Bg", 1, (("n", 3), ("t_rooted", 3)))
    g = from_graph6(fr.graph6)
    observed = dict(fr.observed)
    assert g.n == observed["n"]
    assert max_induced_tree_through(RootedGraph(g, fr.root)).size == observed["t_rooted"]


def _under_report_rooted_sizes(monkeypatch):
    """Make every rooted solve report t(G, v) - 1 (never below 1).

    Every ``indtree`` module attribute bound to the solver function is
    replaced, so the claims see the fake whichever module they call it from.
    """
    real = max_induced_tree_through

    def under(rg):
        res = real(rg)
        return dataclasses.replace(res, size=max(1, res.size - 1))

    for name, module in list(sys.modules.items()):
        if name == "indtree" or name.startswith("indtree."):
            for attr, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(module, attr, under)


def test_theorem1_records_every_failure(monkeypatch):
    _under_report_rooted_sizes(monkeypatch)
    rep = verify_theorem1(4)
    assert rep.status == "fail" and rep.instances_checked == 18

    def over(n, k, bound):
        return (("n", n), ("t_rooted", k), ("bound", bound))

    not_gk = (("n", 4), ("t_rooted", 3), ("bound", 4), ("extremal_match", 0))
    assert [(f.graph6, f.root, f.observed) for f in rep.failures] == [
        ("A_", 0, over(2, 1, 1)),
        ("A_", 1, over(2, 1, 1)),
        ("BW", 0, over(3, 2, 2)),
        ("BW", 1, over(3, 2, 2)),
        ("BW", 2, over(3, 2, 2)),
        ("CF", 0, not_gk),
        ("CF", 1, not_gk),
        ("CF", 2, not_gk),
        ("CF", 3, not_gk),
        ("CU", 0, not_gk),
        ("CU", 1, not_gk),
        ("CU", 2, not_gk),
        ("CU", 3, not_gk),
        ("C]", 0, over(4, 2, 2)),
        ("C]", 1, over(4, 2, 2)),
        ("C]", 2, over(4, 2, 2)),
        ("C]", 3, over(4, 2, 2)),
    ]


def test_theorem2_records_every_failure(monkeypatch):
    _under_report_rooted_sizes(monkeypatch)
    rep = verify_theorem2(4)
    assert rep.status == "fail" and rep.instances_checked == 18
    k2 = (("n", 3), ("t_rooted", 2), ("outside_closed_nbhd", 1), ("bound", 0))
    k3 = (("n", 4), ("t_rooted", 3), ("outside_closed_nbhd", 2), ("bound", 1))
    c4 = (("n", 4), ("t_rooted", 2), ("outside_closed_nbhd", 1), ("bound", 0))
    assert [(f.graph6, f.root, f.observed) for f in rep.failures] == [
        ("BW", 0, k2),
        ("BW", 1, k2),
        ("CF", 0, k3),
        ("CF", 1, k3),
        ("CF", 2, k3),
        ("CU", 1, k3),
        ("CU", 2, k3),
        ("C]", 0, c4),
        ("C]", 1, c4),
        ("C]", 2, c4),
        ("C]", 3, c4),
    ]
