import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import indtree.verify as verify_mod
from indtree import Graph, canonical_form, from_graph6, to_edge_list_text, to_graph6
from indtree.cli import run
from indtree.enumeration import EnumerationReport
from indtree.verify import FailureRecord, VerificationReport


def c5_file(tmp_path):
    g = Graph.from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])
    path = tmp_path / "c5.g6"
    path.write_bytes(to_graph6(g) + b"\n")
    return path


def test_construct_gk_graph6(capsys):
    assert run(["construct", "--family", "gk", "--k", "5"]) == 0
    line = capsys.readouterr().out.strip()
    assert from_graph6(line).n == 11


def test_construct_gk_json(capsys):
    assert run(["construct", "--family", "gk", "--k", "5", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["n"] == 11 and d["root"] == 0 and d["k"] == 5
    assert from_graph6(d["graph6"]).n == 11


def test_construct_bk_edgelist(capsys):
    assert run(["construct", "--family", "bk", "--k", "4", "--format", "edgelist"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "6 8"


def test_construct_knn(capsys):
    assert run(["construct", "--family", "knn-minus-pm", "--m", "5"]) == 0
    g = from_graph6(capsys.readouterr().out.strip())
    assert g.n == 10 and g.edge_count == 20


def test_construct_missing_parameter():
    with pytest.raises(SystemExit) as exc:
        run(["construct", "--family", "gk"])
    assert exc.value.code == 2


def test_solve_graph6_file(tmp_path, capsys):
    assert run(["solve", "--input", str(c5_file(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t=4 witness=[")


def test_solve_long_path(tmp_path, capsys):
    n = 1200
    g = Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    path = tmp_path / "path.txt"
    path.write_text(to_edge_list_text(g))
    assert run(["solve", "--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"t={n} witness=[0,1,2,")


def test_solve_rooted_json(tmp_path, capsys):
    assert run(["solve", "--input", str(c5_file(tmp_path)), "--root", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [{"n": 5, "root": 2, "t": 4, "witness": rows[0]["witness"]}]
    assert 2 in rows[0]["witness"]


def test_solve_multiple_graph6_lines(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_text("Bg\nA_\n")
    assert run(["solve", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("t=3") and lines[1].startswith("t=2")


def test_solve_edge_list_file(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    assert run(["solve", "--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith("t=4")


def test_solve_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bg\n"))
    assert run(["solve", "--input", "-"]) == 0
    assert capsys.readouterr().out.startswith("t=3")


def test_solve_missing_file(capsys):
    assert run(["solve", "--input", "/no/such/file.g6"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_non_ascii_input_exits_two(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"D\xfd\n")
    assert run(["solve", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.StringIO("D\u00e9\n"))
    assert run(["solve", "--input", "-"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["9223372036854775808 0", "1000000000000000000 0"])
def test_solve_unallocatable_header_exits_two(header, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(header + "\n"))
    assert run(["solve", "--input", "-"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_root_out_of_range(tmp_path, capsys):
    assert run(["solve", "--input", str(c5_file(tmp_path)), "--root", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_n4(capsys):
    assert run(["enumerate", "--n", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    c4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    got = {canonical_form(from_graph6(ln)).data for ln in lines}
    assert got == {canonical_form(g).data for g in (p4, star, c4)}


def test_enumerate_budget_error(capsys):
    assert run(["enumerate", "--n", "12"]) == 2
    assert "--override-budget" in capsys.readouterr().err


ORDER_ARGV = (
    ["enumerate", "--n"],
    ["tabulate", "--n"],
    ["verify", "--claim", "theorem1", "--max-n"],
)


def refuse_walks(monkeypatch):
    def walk(*args):
        raise AssertionError("walk started")

    for name in ("enumerate_connected_triangle_free", "tabulate"):
        monkeypatch.setattr(f"indtree.cli.{name}", walk)
    monkeypatch.setattr(verify_mod, "verify_theorem1", walk)


@pytest.mark.parametrize("argv", ORDER_ARGV)
def test_order_12_needs_the_budget_flag(argv, capsys, monkeypatch):
    refuse_walks(monkeypatch)
    assert run(argv + ["12"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and "--override-budget" in err


@pytest.mark.parametrize("argv", ORDER_ARGV)
def test_order_13_is_refused_with_the_budget_flag(argv, capsys):
    assert run(argv + ["13", "--override-budget"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


def test_budget_flag_passes_order_12_to_the_library(capsys, monkeypatch):
    seen = []

    def enumerate_stub(n):
        seen.append(("enumerate", n))
        return iter([])

    def tabulate_stub(n):
        seen.append(("tabulate", n))
        return EnumerationReport(n, 1, 1, 1, 1, (), (), 0.0)

    def theorem1_stub(max_n):
        seen.append(("theorem1", max_n))
        return VerificationReport("theorem1", (("max_n", max_n),), 0, "pass", (), 0.0)

    monkeypatch.setattr("indtree.cli.enumerate_connected_triangle_free", enumerate_stub)
    monkeypatch.setattr("indtree.cli.tabulate", tabulate_stub)
    monkeypatch.setattr(verify_mod, "verify_theorem1", theorem1_stub)
    for argv in ORDER_ARGV:
        assert run(argv + ["12", "--override-budget"]) == 0
    assert seen == [("enumerate", 12), ("tabulate", 12), ("theorem1", 12)]


def test_tabulate_json_fields(capsys):
    assert run(["tabulate", "--n", "4", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {
        "n",
        "graphs_seen",
        "t3",
        "t3_star",
        "t3_star_formula",
        "extremal_rooted",
        "extremal_unrooted",
        "elapsed",
    }
    assert d["n"] == 4 and d["t3"] == 3 and d["t3_star"] == 3


def test_tabulate_text(capsys):
    assert run(["tabulate", "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "n",
        "graphs_seen",
        "t3",
        "t3_star",
        "t3_star_formula",
        "extremal_rooted",
        "extremal_unrooted",
        "elapsed",
    ]
    assert lines[:5] == ["n: 4", "graphs_seen: 3", "t3: 3", "t3_star: 3", "t3_star_formula: 3"]
    # C4 is the only extremal graph, at every root
    assert lines[5:7] == ["extremal_rooted: C]:0 C]:1 C]:2 C]:3", "extremal_unrooted: C]"]


def test_verify_pass_exit_zero(capsys):
    assert run(["verify", "--claim", "corollary", "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "status: PASS" in out


def test_verify_json(capsys):
    assert run(["verify", "--claim", "theorem1", "--max-n", "4", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["schema"] == 1 and d["status"] == "pass"


def test_verify_diameter_remark(capsys):
    assert run(["verify", "--claim", "diameter_remark", "--k", "3", "--max-n", "7"]) == 0


def test_verify_missing_max_n():
    for argv in (["--claim", "corollary"], ["--claim", "diameter_remark", "--k", "4"]):
        with pytest.raises(SystemExit) as exc:
            run(["verify", *argv])
        assert exc.value.code == 2


def test_counterexample_b5_ignores_max_n(capsys):
    assert run(["verify", "--claim", "counterexample_b5", "--max-n", "12"]) == 0


def test_verify_falsified_claim_exits_one(capsys, monkeypatch):
    failing = VerificationReport(
        claim="counterexample_b5",
        parameters=(),
        instances_checked=2,
        status="fail",
        failures=(FailureRecord("Bg", None, (("n", 3), ("t", 3))),),
        elapsed=0.0,
    )
    monkeypatch.setattr(verify_mod, "verify_counterexample_b5", lambda: failing)
    assert run(["verify", "--claim", "counterexample_b5"]) == 1
    out = capsys.readouterr().out
    assert "status: FAIL" in out
    assert "counterexample: Bg" in out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--input", "x", "--bogus"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


class ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_is_not_an_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = run(["tabulate", "--n", "3"])
    assert code not in (0, 1, 2)
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_quietly():
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first write fails; the child must neither report an error nor
    # fail again when the interpreter flushes at exit
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = "import sys; from indtree.cli import run; sys.exit(run(sys.argv[1:]))"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", cmd, "tabulate", "--n", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
