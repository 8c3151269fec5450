import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import indtree.verify as verify_mod
from indtree import (
    Graph,
    build_b_k,
    build_g_k,
    canonical_form,
    from_graph6,
    to_edge_list_text,
    to_graph6,
)
from indtree.cli import run
from indtree.verify import EnumerationReport, FailureRecord, VerificationReport


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


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (["--family", "gk", "--k", "3"], ("k", 3), "m"),
        (["--family", "bk", "--k", "3"], ("k", 3), "m"),
        (["--family", "knn-minus-pm", "--m", "5"], ("m", 5), "k"),
    ],
)
def test_construct_json_reports_only_the_family_parameter(capsys, argv, used, unused):
    assert run(["construct", *argv, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d[used[0]] == used[1] and unused not in d


def test_construct_bk_edgelist(capsys):
    assert run(["construct", "--family", "bk", "--k", "4", "--format", "edgelist"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "6 8"


def test_construct_knn(capsys):
    assert run(["construct", "--family", "knn-minus-pm", "--m", "5"]) == 0
    g = from_graph6(capsys.readouterr().out.strip())
    assert g.n == 10 and g.edge_count == 20


def test_construct_missing_parameter(capsys):
    for family, flag in (("gk", "--k"), ("bk", "--k"), ("knn-minus-pm", "--m")):
        with pytest.raises(SystemExit) as exc:
            run(["construct", "--family", family])
        assert exc.value.code == 2
        # the usage line names every flag, so only the last line tells
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"--family {family} needs {flag}")


def test_run_after_a_usage_error_parses_afresh(tmp_path, capsys):
    # run keeps one parser per process: neither an error exit nor an earlier
    # call's options may carry over into the next call
    path = str(c5_file(tmp_path))
    assert run(["solve", "--input", path, "--root", "2", "--json"]) == 0
    rooted = json.loads(capsys.readouterr().out)
    for bad in (["construct", "--family", "gk"], ["enumerate"], ["solve", "--root", "x"]):
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(["solve", "--input", path]) == 0
        assert capsys.readouterr().out.startswith("t=4 witness=[")
        assert run(["solve", "--input", path, "--root", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == rooted
    assert run(["enumerate", "--n", "4"]) == 0
    assert len(capsys.readouterr().out.split()) == 3


@pytest.mark.parametrize(
    "family, param, builder, at_limit",
    [
        # orders 1 + k(k-1)/2, floor((k+1)^2/4) and 2m against MAX_EDGE_LIST_N = 65,536
        ("gk", "--k", "build_g_k", 362),  # 65,342; k = 363 gives 65,704
        ("bk", "--k", "build_b_k", 511),  # 65,536
        ("knn-minus-pm", "--m", "build_knn_minus_pm", 32768),  # 65,536
    ],
)
def test_construct_refuses_orders_past_the_read_limit_before_building(
    family, param, builder, at_limit, capsys, monkeypatch
):
    built = []
    small = build_g_k(3) if family == "gk" else build_b_k(3)
    monkeypatch.setattr(f"indtree.cli.{builder}", lambda value: built.append(value) or small)
    assert run(["construct", "--family", family, param, str(at_limit)]) == 0
    assert built == [at_limit]
    capsys.readouterr()
    assert run(["construct", "--family", family, param, str(at_limit + 1)]) == 2
    assert built == [at_limit]
    assert "above the limit 65536" in capsys.readouterr().err


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


def test_solve_rooted_text(tmp_path, capsys):
    assert run(["solve", "--input", str(c5_file(tmp_path)), "--root", "2"]) == 0
    assert capsys.readouterr().out == "t=4 root=2 witness=[0,1,2,3]\n"


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


@pytest.mark.parametrize("text", ["Bw\n", ">>graph6<<Bw\n"])
def test_solve_graph6_file_and_stdin_with_or_without_the_header(text, tmp_path, capsys, monkeypatch):
    path = tmp_path / "k3.g6"
    path.write_text(text)
    assert run(["solve", "--input", str(path)]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["solve", "--input", "-"]) == 0
    assert capsys.readouterr().out == from_file == "t=2 witness=[0,1]\n"


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


def test_solve_names_the_graph6_line_that_fails(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bg\nBg\n  B\n"))
    assert run(["solve", "--input", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 3: truncated graph6 string (byte offset 3)\n"


@pytest.mark.parametrize("header", ["9223372036854775808 0", "1000000000000000000 0"])
def test_solve_unallocatable_header_exits_two(header, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(header + "\n"))
    assert run(["solve", "--input", "-"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_edge_list_past_the_order_limit_exits_two(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("65537 0\n"))
    assert run(["solve", "--input", "-"]) == 2
    assert "limit" in capsys.readouterr().err


def test_solve_root_out_of_range(tmp_path, capsys):
    assert run(["solve", "--input", str(c5_file(tmp_path)), "--root", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_root_of_the_empty_graph_says_it_has_no_vertices(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("?\n"))
    assert run(["solve", "--input", "-", "--root", "0"]) == 2
    assert capsys.readouterr() == ("", "error: root 0: the graph has no vertices\n")


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


@pytest.mark.parametrize(
    "argv",
    # the budget is checked before a missing --k
    ORDER_ARGV + (["verify", "--claim", "diameter_remark", "--max-n"],),
)
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
        return EnumerationReport(n, 1, 1, 1, 1, (), ())

    def theorem1_stub(max_n):
        seen.append(("theorem1", max_n))
        return VerificationReport("theorem1", (("max_n", max_n),), 0, ())

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
    assert list(d)[-1] == "elapsed" and isinstance(d["elapsed"], float)
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
    # the CLI's timing of the run, after every key of the report
    assert isinstance(d["elapsed"], float) and list(d)[-1] == "elapsed"


@pytest.mark.parametrize(
    "argv, report",
    [
        (["tabulate", "--n", "5"], lambda: verify_mod.tabulate(5)),
        (["verify", "--claim", "theorem2", "--max-n", "5"], lambda: verify_mod.verify_theorem2(5)),
    ],
    ids=["tabulate", "verify"],
)
def test_json_output_is_the_reports_json_then_elapsed(argv, report, capsys):
    """Both reports reach --json through one path: the library report's
    ``to_json_dict`` with the CLI's timing appended."""
    assert run(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    e = json.loads(out)["elapsed"]
    assert out == json.dumps({**report().to_json_dict(), "elapsed": e}, indent=2) + "\n"


def test_verify_diameter_remark(capsys):
    assert run(["verify", "--claim", "diameter_remark", "--k", "3", "--max-n", "7"]) == 0


def test_verify_missing_max_n():
    for argv in (["--claim", "corollary"], ["--claim", "diameter_remark", "--k", "4"]):
        with pytest.raises(SystemExit) as exc:
            run(["verify", *argv])
        assert exc.value.code == 2


FLAG_VALUES = {"max_n": "4", "k": "3"}


@pytest.mark.parametrize(
    "claim, missing",
    [(claim, name) for claim, params in verify_mod.CLAIMS.items() for name in params],
)
def test_verify_names_the_one_missing_flag(claim, missing, capsys):
    flags = [
        arg
        for name in verify_mod.CLAIMS[claim] if name != missing
        for arg in (f"--{name.replace('_', '-')}", FLAG_VALUES[name])
    ]
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--claim", claim, *flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    # the usage line names every flag, so only the last line tells
    flag = "--" + missing.replace("_", "-")
    assert out == "" and err.splitlines()[-1].endswith(f"--claim {claim} needs {flag}")


# argv, and the error that names the ignored flag
IGNORED_FLAGS = {
    "gk-m": ("construct --family gk --k 3 --m 5", "--family gk takes no --m"),
    "knn-k": ("construct --family knn-minus-pm --m 5 --k 3", "--family knn-minus-pm takes no --k"),
    "json-format": ("construct --family bk --k 3 --json --format edgelist", "--json takes no --format"),
    "counterexample_b5-max-n": (
        "verify --claim counterexample_b5 --max-n 12", "--claim counterexample_b5 takes no --max-n"
    ),
    "counterexample_b5-override-budget": (
        "verify --claim counterexample_b5 --override-budget",
        "--claim counterexample_b5 takes no --override-budget",
    ),
    "theorem1-k": ("verify --claim theorem1 --max-n 3 --k 3", "--claim theorem1 takes no --k"),
    # an ignored flag is named before a missing one
    "gk-m-no-k": ("construct --family gk --m 5", "--family gk takes no --m"),
}


@pytest.mark.parametrize("argv, message", IGNORED_FLAGS.values(), ids=IGNORED_FLAGS)
def test_a_flag_the_command_ignores_exits_two(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].endswith(message)


def test_verify_falsified_claim_exits_one(capsys, monkeypatch):
    failing = VerificationReport(
        claim="counterexample_b5",
        parameters=(),
        instances_checked=2,
        failures=(FailureRecord("Bg", None, (("n", 3), ("t", 3))),),
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


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_pipe_exits_quietly():
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first write fails; the child must neither report an error nor
    # fail again when the interpreter flushes at exit
    env = src_env()
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


@pytest.mark.parametrize("module", ["indtree", "indtree.cli"])
def test_python_dash_m_runs_the_cli(module):
    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )

    refused = python_m("enumerate", "--n", "12")
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.startswith("error:") and "--override-budget" in refused.stderr
    listed = python_m("enumerate", "--n", "4")
    assert listed.returncode == 0 and len(listed.stdout.splitlines()) == 3
