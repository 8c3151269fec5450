"""The traced benchmark path yields the same exact counts on every run.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import indtree  # noqa: E402
from spans import Tracer, layer_counts  # noqa: E402
from workloads import Claims, Enumerate, Pass, Solve  # noqa: E402

TINY = {
    "enumerate": lambda: Enumerate(0, n=6),
    "claims": lambda: Claims(0, max_n=7),
    "solve": lambda: Solve(3, size=3, orders=(10, 11)),
}


def traced_counts(make) -> dict:
    wl = make()
    wl.setup()
    tracer = Tracer()
    trace = tracer.start_pass()
    with tracer:
        p = wl.run_pass(lambda: None)
    verdict = wl.check(p)
    assert verdict.failed == 0, verdict.problems
    return layer_counts(trace)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat(name):
    first = traced_counts(TINY[name])
    second = traced_counts(TINY[name])
    assert first == second
    if name == "solve":
        assert first["canon.calls"] == 0 and first["enumeration.walks"] == 0
        assert first["solver.nodes"] > 0
    else:
        assert first["canon.calls"] > 0 and first["enumeration.walks"] > 0
    if name == "claims":
        assert first["enumeration.walks"] == 22  # 7 + 7 + 7 orders, plus n = 7 for the remark
        assert first["solver.rooted_calls"] == 3 * 575  # theorem1, theorem2, tabulate


def test_tracer_restores_every_binding():
    before = indtree.enumeration.canonical_labeling
    with Tracer():
        assert indtree.enumeration.canonical_labeling is not before
        assert indtree.cli.run.__wrapped__ is not None
    assert indtree.enumeration.canonical_labeling is before
    assert not hasattr(indtree.cli.run, "__wrapped__")


def test_enumerate_check_fails_on_an_extra_class(monkeypatch):
    """An extra class fails even when the canon calls it distinct.

    A canon that splits a class makes enumeration emit too many lines, and
    the check's distinct-form test, which uses the same canon, cannot see it.
    """
    wl = Enumerate(0, n=6)
    good = wl.run_pass(lambda: None)
    assert wl.check(good).failed == 0
    # a canon that is not canonical: every labeling is its own class
    monkeypatch.setattr(indtree, "canonical_form", lambda g: SimpleNamespace(data=indtree.to_graph6(g)))
    g = indtree.from_graph6(good.output[0])
    perm = list(range(g.n))[::-1]
    relabeled = indtree.Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    extra = indtree.to_graph6(relabeled).decode("ascii")
    assert extra not in good.output
    verdict = wl.check(Pass(good.wall_s, {}, good.output + (extra,)))
    assert verdict.failed > 0
    assert verdict.attempted == len(good.output) + 1
