"""Command line interface.

Subcommands: construct, solve, enumerate, tabulate, verify. Exit codes:
0 success (and claim verified), 1 claim falsified, 2 usage or input error,
141 (128 + SIGPIPE) stdout closed by its reader, as by a pipe into ``head``.
Graphs are read as graph6 lines or as edge-list text ("n m" header then one
"u v" pair per line); output format mirrors the input conventions so
subcommands pipe into each other.
The library walks any order in 1..MAX_N (12); the budget is this module's:
enumerate, tabulate and verify stop at order DEFAULT_MAX_N (11) unless given
--override-budget, since n = 12 runs far longer than the 75 s of n = 11.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Sequence

from . import verify as verify_mod
from .constructions import build_b_k, build_g_k, build_knn_minus_pm
from .enumeration import MAX_N, EnumerationReport, enumerate_connected_triangle_free, tabulate
from .formats import (
    from_edge_list_text,
    read_graph6_lines,
    to_edge_list_text,
    to_graph6,
)
from .graph import Graph, GraphError, RootedGraph
from .solver import max_induced_tree, max_induced_tree_through

DEFAULT_MAX_N = 11


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="indtree",
        description="Exact maximum induced tree search over triangle-free graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build one of the extremal families")
    c.add_argument(
        "--family", required=True, choices=("gk", "bk", "knn-minus-pm"),
    )
    c.add_argument("--k", type=int, help="index for gk/bk")
    c.add_argument("--m", type=int, help="side size for knn-minus-pm")
    c.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    c.add_argument("--json", action="store_true")

    s = sub.add_parser("solve", help="compute the maximum induced tree")
    s.add_argument("--input", required=True, help="file of graph6 lines or edge list; - for stdin")
    s.add_argument("--root", type=int, help="require the tree to contain this vertex")
    s.add_argument("--json", action="store_true")

    e = sub.add_parser("enumerate", help="list connected triangle-free graphs")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--override-budget", action="store_true")

    t = sub.add_parser("tabulate", help="minimum tree numbers over all graphs of one order")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--override-budget", action="store_true")
    t.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="check one of the extremal claims exhaustively")
    v.add_argument("--claim", required=True, choices=verify_mod.CLAIMS)
    v.add_argument("--max-n", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--json", action="store_true")
    v.add_argument("--override-budget", action="store_true")
    return top


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _dispatch(args, parser)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return 141
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _stdout_to_devnull() -> None:
    """Point file descriptor 1 at devnull, so that the flush at interpreter
    exit finds no closed pipe; a stdout without a descriptor is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main() -> None:
    sys.exit(run())


def _check_budget(args: argparse.Namespace) -> None:
    """Refuse an order above DEFAULT_MAX_N unless --override-budget is given."""
    if args.command == "verify":
        order = None if args.claim == "counterexample_b5" else args.max_n
    else:
        order = getattr(args, "n", None)
    if order is not None and order > DEFAULT_MAX_N and not args.override_budget:
        raise GraphError(f"order {order} > {DEFAULT_MAX_N} needs --override-budget (up to {MAX_N})")


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _check_budget(args)
    if args.command == "construct":
        return _cmd_construct(args, parser)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "enumerate":
        for g in enumerate_connected_triangle_free(args.n):
            print(to_graph6(g).decode("ascii"))
        return 0
    if args.command == "tabulate":
        rep = tabulate(args.n)
        if args.json:
            print(json.dumps(dataclasses.asdict(rep), indent=2))
        else:
            _print_tabulate(rep)
        return 0
    if args.command == "verify":
        return _cmd_verify(args, parser)
    raise AssertionError(f"unhandled command {args.command}")


def _print_tabulate(rep: EnumerationReport) -> None:
    """One ``field: value`` line per report field; a rooted extremal instance
    is written ``graph6:root`` (graph6 has no ':')."""
    print(f"n: {rep.n}")
    print(f"graphs_seen: {rep.graphs_seen}")
    print(f"t3: {rep.t3}")
    print(f"t3_star: {rep.t3_star}")
    print(f"t3_star_formula: {rep.t3_star_formula}")
    print("extremal_rooted: " + " ".join(f"{g6}:{v}" for g6, v in rep.extremal_rooted))
    print("extremal_unrooted: " + " ".join(rep.extremal_unrooted))
    print(f"elapsed: {rep.elapsed:.3f}")


def _cmd_construct(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    root = None
    if args.family == "gk":
        if args.k is None:
            parser.error("--family gk needs --k")
        rg = build_g_k(args.k)
        g, root = rg.graph, rg.root
    elif args.family == "bk":
        if args.k is None:
            parser.error("--family bk needs --k")
        g = build_b_k(args.k)
    else:
        if args.m is None:
            parser.error("--family knn-minus-pm needs --m")
        g = build_knn_minus_pm(args.m)
    if args.json:
        out = {"family": args.family, "n": g.n, "graph6": to_graph6(g).decode("ascii")}
        if args.k is not None:
            out["k"] = args.k
        if args.m is not None:
            out["m"] = args.m
        if root is not None:
            out["root"] = root
        print(json.dumps(out, indent=2))
    elif args.format == "edgelist":
        print(to_edge_list_text(g), end="")
    else:
        print(to_graph6(g).decode("ascii"))
    return 0


def _read_graphs(path: str) -> list[Graph]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path!r} is not ASCII text") from None
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError(f"no graphs in {path!r}")
    # graph6 bytes all sit in 63..126, so an edge-list header's leading
    # digit (< 63) cannot be mistaken for one
    if ord(lines[0][0]) >= 63:
        return list(read_graph6_lines(text))
    return [from_edge_list_text(text)]


def _cmd_solve(args: argparse.Namespace) -> int:
    results = []
    for g in _read_graphs(args.input):
        if args.root is not None:
            res = max_induced_tree_through(RootedGraph(g, args.root))
        else:
            res = max_induced_tree(g)
        results.append((g, res))
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "n": g.n,
                        "root": res.required_root,
                        "t": res.size,
                        "witness": list(res.witness_vertices),
                    }
                    for g, res in results
                ],
                indent=2,
            )
        )
    else:
        for g, res in results:
            witness = ",".join(str(v) for v in res.witness_vertices)
            if res.required_root is not None:
                print(f"t={res.size} root={res.required_root} witness=[{witness}]")
            else:
                print(f"t={res.size} witness=[{witness}]")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    claim = args.claim
    if claim == "counterexample_b5":
        rep = verify_mod.verify_counterexample_b5()
    elif args.max_n is None:
        parser.error(f"--claim {claim} needs --max-n")
    elif claim == "diameter_remark":
        if args.k is None:
            parser.error("--claim diameter_remark needs --k")
        rep = verify_mod.verify_diameter_remark(args.k, args.max_n)
    else:  # theorem1, theorem2, corollary
        rep = getattr(verify_mod, f"verify_{claim}")(args.max_n)
    if args.json:
        print(json.dumps(rep.to_json_dict(), indent=2))
    else:
        params = " ".join(f"{k}={v}" for k, v in rep.parameters) or "(none)"
        print(f"claim: {rep.claim}")
        print(f"parameters: {params}")
        print(f"instances checked: {rep.instances_checked}")
        print(f"status: {rep.status.upper()}")
        for f in rep.failures:
            obs = " ".join(f"{k}={v}" for k, v in f.observed)
            where = f" root={f.root}" if f.root is not None else ""
            print(f"  counterexample: {f.graph6}{where} {obs}")
    return 0 if rep.passed else 1
