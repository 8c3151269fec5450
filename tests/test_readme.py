"""README's examples, run: every ``indtree`` command in its fenced blocks
through ``cli.run``, and its library sketch as a doctest, so neither can go
stale."""

import doctest
import io
import shlex
from pathlib import Path

import pytest

from indtree import Graph, build_g_k, cli, to_graph6

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(text):
    """(index of its first line, body) of each fenced block of ``text``;
    the index counts from 0, as doctest's ``lineno`` does."""
    blocks = []
    start = None
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("```"):
            if start is None:
                start = i + 1
            else:
                blocks.append((start, "\n".join(lines[start:i]) + "\n"))
                start = None
    return blocks


BLOCKS = fenced_blocks(README.read_text())
COMMANDS = [
    line
    for _, body in BLOCKS
    for line in body.splitlines()
    if line.startswith("indtree ")
]


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, monkeypatch, capsys):
    # graphs.g6 and stdin hold C5 and G_3's graph, for the solve examples
    c5 = Graph.from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])
    text = b"".join(to_graph6(g) + b"\n" for g in (c5, build_g_k(3).graph)).decode()
    (tmp_path / "graphs.g6").write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = cli.run(shlex.split(line, comments=True)[1:])
    assert code == 0, capsys.readouterr().err


def test_readme_library_sketch():
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = []
    for start, body in BLOCKS:
        if ">>> " in body:
            test = parser.get_doctest(body, {}, "README.md", str(README), start)
            runner.run(test, out=report.append)
    assert runner.tries > 0
    assert runner.failures == 0, "".join(report)
