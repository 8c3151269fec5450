"""The three benchmark workloads, driven through indtree's public interface.

Each workload generates its inputs in ``setup``, runs one fixed unit of work
per ``run_pass`` and judges a pass's output in ``check``. ``run_pass`` takes
a ``pause`` callable, which a workload with long passes calls between items,
outside its timed region, so that the caller can sample the host's speed
during the pass. ``check`` runs
outside the timed region and uses plain ``if`` tests, so it also works under
``python -O``. Library functions are looked up on the ``indtree`` modules at
call time, which lets a Tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field

import indtree
import indtree.cli

# OEIS A024607: connected triangle-free graphs on n unlabeled vertices.
A024607 = (0, 1, 1, 1, 3, 6, 19, 59, 267, 1380, 9832)


@dataclass
class Pass:
    """One timed unit of work and what it produced."""

    wall_s: float
    latencies_s: dict  # item -> seconds, for items with a boundary visible from outside
    output: tuple  # compared across passes, then judged by check()
    errors: list[str] = field(default_factory=list)  # raised exceptions


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class _LineClock(io.TextIOBase):
    """stdout sink that keeps each printed line and the time it was completed."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._part = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if "\n" not in s:
            self._part += s
            return len(s)
        now = time.perf_counter()
        *done, self._part = (self._part + s).split("\n")
        self.lines.extend(done)
        self.stamps.extend([now] * len(done))
        return len(s)


def _is_connected(adj: tuple[int, ...]) -> bool:
    n = len(adj)
    seen = frontier = 1
    while frontier:
        grow = 0
        for v in range(n):
            if frontier >> v & 1:
                grow |= adj[v]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _is_triangle_free(adj: tuple[int, ...]) -> bool:
    return all(not adj[u] & adj[v] for u in range(len(adj)) for v in range(u) if adj[u] >> v & 1)


class Enumerate:
    """``indtree enumerate --n N`` in-process, one class per output line."""

    name = "enumerate"

    def __init__(self, seed: int, n: int = 8) -> None:
        self.seed = seed  # the walk is fixed; the seed is only recorded
        self.n = n
        self.items = A024607[n]

    def setup(self) -> None:
        self._walk(min(self.n, 6))

    def _walk(self, n: int) -> _LineClock:
        sink = _LineClock()
        with contextlib.redirect_stdout(sink):
            code = indtree.cli.run(["enumerate", "--n", str(n)])
        if code != 0:
            raise RuntimeError(f"indtree enumerate --n {n} exited with {code}")
        return sink

    def run_pass(self, pause) -> Pass:
        start = time.perf_counter()
        try:
            sink = self._walk(self.n)
        except Exception as exc:  # a failed pass is counted, not fatal
            return Pass(time.perf_counter() - start, {}, (), [_describe(exc)])
        wall = time.perf_counter() - start
        stamps = [start] + sink.stamps
        return Pass(wall, dict(enumerate(b - a for a, b in zip(stamps, stamps[1:]))), tuple(sink.lines))

    def check(self, p: Pass) -> Verdict:
        problems = list(p.errors)
        bad = 0
        forms = set()
        for line in p.output:
            try:
                g = indtree.from_graph6(line)
                form = indtree.canonical_form(g).data
            except Exception as exc:
                problems.append(f"{line!r}: {_describe(exc)}")
                bad += 1
                continue
            why = []
            if g.n != self.n:
                why.append(f"has {g.n} vertices")
            if not _is_connected(g.adj):
                why.append("is disconnected")
            if not _is_triangle_free(g.adj):
                why.append("has a triangle")
            if form in forms:
                why.append("repeats an earlier class")
            forms.add(form)
            if why:
                problems.append(f"{line} " + ", ".join(why))
                bad += 1
        # too many classes is as wrong as too few: a canon that splits a class
        # also passes the distinct-form test above, since it uses the same canon
        miscount = abs(self.items - len(p.output))
        if miscount:
            problems.append(f"{len(p.output)} classes emitted, expected {self.items}")
        attempted = max(self.items, len(p.output))
        return Verdict(attempted, min(attempted, bad + miscount), problems)


def claim_argv(max_n: int) -> list[list[str]]:
    return [
        ["verify", "--claim", "theorem1", "--max-n", str(max_n), "--json"],
        ["verify", "--claim", "theorem2", "--max-n", str(max_n), "--json"],
        ["verify", "--claim", "corollary", "--max-n", str(max_n), "--json"],
        ["verify", "--claim", "diameter_remark", "--k", "4", "--max-n", str(max_n), "--json"],
        ["verify", "--claim", "counterexample_b5", "--json"],
    ]


def expected_instances(max_n: int) -> dict[str, int]:
    """instances_checked each claim must report, derived from A024607.

    theorem1/theorem2 check every (G, v); corollary every G; the diameter
    remark (k = 4, |B_4| = 6) every G on 7..max_n vertices plus B_4 itself.
    """
    orders = range(1, max_n + 1)
    return {
        "theorem1": sum(n * A024607[n] for n in orders),
        "theorem2": sum(n * A024607[n] for n in orders),
        "corollary": sum(A024607[n] for n in orders),
        "diameter_remark": 1 + sum(A024607[n] for n in range(7, max_n + 1)),
        "counterexample_b5": 2,
    }


class Claims:
    """``indtree verify --json`` for the five claims; one item per claim run."""

    name = "claims"

    def __init__(self, seed: int, max_n: int = 7) -> None:
        if max_n < 7:
            raise ValueError("the diameter remark for k = 4 needs max_n >= 7")
        self.seed = seed  # the claims are fixed; the seed is only recorded
        self.argv = claim_argv(max_n)
        self.expected = expected_instances(max_n)
        self.items = sum(self.expected.values())

    def setup(self) -> None:
        for argv in (["verify", "--claim", "theorem1", "--max-n", "5"], self.argv[-1]):
            with contextlib.redirect_stdout(io.StringIO()):
                indtree.cli.run(argv)

    def run_pass(self, pause) -> Pass:
        outputs = []
        latencies = {}
        errors = []
        start = time.perf_counter()
        for argv in self.argv:
            t0 = time.perf_counter()
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink):
                    code = indtree.cli.run(argv)
            except Exception as exc:  # a failed claim is counted, not fatal
                errors.append(f"{argv[2]}: {_describe(exc)}")
                code = None
            latencies[argv[2]] = time.perf_counter() - t0
            outputs.append((argv[2], code, sink.getvalue()))
        wall = time.perf_counter() - start
        return Pass(wall, latencies, tuple(_without_elapsed(o) for o in outputs), errors)

    def check(self, p: Pass) -> Verdict:
        problems = list(p.errors)
        failed = 0
        for claim, code, text in p.output:
            why = []
            if code != 0:
                why.append(f"exit code {code}")
            try:
                rep = json.loads(text)
            except ValueError:
                rep = {}
                why.append("no JSON report")
            if rep and (rep.get("status") != "pass" or rep.get("failures") != []):
                why.append(f"status {rep.get('status')!r}, failures {rep.get('failures')!r}")
            if rep and rep.get("instances_checked") != self.expected[claim]:
                why.append(
                    f"instances_checked {rep.get('instances_checked')}, "
                    f"expected {self.expected[claim]}"
                )
            if why:
                problems.append(f"{claim}: " + "; ".join(why))
                failed += 1
        return Verdict(len(self.argv), failed, problems)


def _without_elapsed(out: tuple) -> tuple:
    claim, code, text = out
    try:
        rep = json.loads(text)
    except ValueError:
        return out
    rep.pop("elapsed", None)
    return claim, code, json.dumps(rep, sort_keys=True)


def random_triangle_free(rng: random.Random, n: int, extra: int) -> indtree.Graph:
    """Random spanning tree plus up to ``extra`` edges that close no triangle."""
    adj = [0] * n
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for _ in range(50 * n):
        if not extra:
            break
        u, v = rng.sample(range(n), 2)
        if adj[u] >> v & 1 or adj[u] & adj[v]:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        extra -= 1
    return indtree.Graph(n, adj)


_EDGE_STEPS = 8
_PAUSE_EVERY = 16  # graphs, about a second of solving


class Solve:
    """Exact t(G), t(G, v) for every root and t(G, v)+1 refutations on a seeded corpus.

    The seed yields one corpus of ``size`` graphs, and every pass parses and
    solves all of it, so every run times the same graphs however many passes
    it holds. Vertex counts cycle through ``orders`` and extra edge counts
    step through n..2n, so every seed gives the same mix of sizes.
    """

    name = "solve"

    def __init__(self, seed: int, size: int = 192, orders: tuple = (16, 17, 18)) -> None:
        self.seed = seed
        self.size = size
        self.orders = orders
        self.items = size
        self.text = ""

    def setup(self) -> None:
        rng = random.Random(self.seed)
        k = len(self.orders)
        lines = []
        for i in range(self.size):
            n = self.orders[i % k]
            extra = n + n * (i // k % _EDGE_STEPS) // (_EDGE_STEPS - 1)
            g = random_triangle_free(rng, n, extra)
            lines.append(indtree.to_graph6(g).decode("ascii"))
        self.text = "\n".join(lines) + "\n"
        for g in indtree.read_graph6_lines(self.text)[:1]:
            self._solve(g)

    @staticmethod
    def _solve(g) -> tuple:
        unrooted = indtree.max_induced_tree(g)
        rooted = []
        refuted = []
        for v in range(g.n):
            rg = indtree.RootedGraph(g, v)
            r = indtree.max_induced_tree_through(rg)
            rooted.append((r.size, r.witness))
            refuted.append(not indtree.exists_induced_tree_through(rg, r.size + 1))
        return (unrooted.size, unrooted.witness), tuple(rooted), tuple(refuted)

    def run_pass(self, pause) -> Pass:
        start = time.perf_counter()
        try:
            graphs = indtree.read_graph6_lines(self.text)
        except Exception as exc:  # a failed parse fails the whole corpus
            return Pass(time.perf_counter() - start, {}, (), [_describe(exc)])
        latencies = {}
        results = []
        paused = 0.0
        for i, g in enumerate(graphs):
            if i and i % _PAUSE_EVERY == 0:
                t0 = time.perf_counter()
                pause()
                paused += time.perf_counter() - t0
            t0 = time.perf_counter()
            try:
                results.append(self._solve(g))
            except Exception as exc:  # a failed graph is counted, not fatal
                results.append(_describe(exc))
            latencies[i] = time.perf_counter() - t0
        wall = time.perf_counter() - start - paused
        return Pass(wall, latencies, tuple(results))

    def check(self, p: Pass) -> Verdict:
        problems = list(p.errors)
        lines = self.text.split()
        failed = max(0, len(lines) - len(p.output))
        if failed:
            problems.append(f"{len(p.output)} results for {len(lines)} graphs")
        # brute-force subsample: the first two graphs of the smallest order
        oracle_left = 2
        for i, (line, res) in enumerate(zip(lines, p.output)):
            g = indtree.from_graph6(line)
            why = self._judge(g, res)
            if not why and oracle_left and g.n == min(self.orders):
                oracle_left -= 1
                why = self._oracle(g, res)
            if why:
                problems.append(f"graph {i} ({line}): {why}")
                failed += 1
        return Verdict(len(lines), failed, problems)

    @staticmethod
    def _judge(g, res) -> str:
        if isinstance(res, str):
            return res
        (t, witness), rooted, refuted = res
        if witness.bit_count() != t or not indtree.is_induced_tree(g, witness):
            return f"unrooted witness {witness:#x} is not an induced tree of size {t}"
        if t != max(size for size, _ in rooted):
            return f"t(G) = {t} but max over roots is {max(size for size, _ in rooted)}"
        for v, (size, w) in enumerate(rooted):
            if w.bit_count() != size or not w >> v & 1 or not indtree.is_induced_tree(g, w):
                return f"root {v}: witness {w:#x} is not an induced tree of size {size} through v"
            if not indtree.exists_induced_tree_through(indtree.RootedGraph(g, v), size):
                return f"root {v}: no tree of size t(G, v) = {size} exists"
            if not refuted[v]:
                return f"root {v}: a tree larger than t(G, v) = {size} exists"
        return ""

    @staticmethod
    def _oracle(g, res) -> str:
        (t, _), rooted, _ = res
        if indtree.brute_force_t(g).size != t:
            return "subset scan disagrees on t(G)"
        if indtree.brute_force_t(g, 0).size != rooted[0][0]:
            return "subset scan disagrees on t(G, 0)"
        return ""


WORKLOADS = {cls.name: cls for cls in (Enumerate, Claims, Solve)}
