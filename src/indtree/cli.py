"""Command line interface.

Subcommands: construct, solve, enumerate, tabulate, verify. Each subparser
carries its handler (``set_defaults(handler=...)``), which ``run`` calls once
``_check_flags`` has passed; argparse is the one routing table. Exit codes:
0 success (and claim verified), 1 claim falsified, 2 usage or input error,
141 (128 + SIGPIPE) stdout closed by its reader, as by a pipe into ``head``.
Graphs are read as graph6 lines or as edge-list text ("n m" header then one
"u v" pair per line); output format mirrors the input conventions so
subcommands pipe into each other. solve builds one record per graph (n,
root, t, witness): --json prints the list of records, the text form one line
per record, with ``root=`` only when --root was given.
The library walks any order in 1..MAX_N (12); the budget is this module's:
enumerate, tabulate and verify stop at order DEFAULT_MAX_N (11) unless given
--override-budget, since n = 12 runs far longer than n = 11.
The flags a family or claim takes come from FAMILIES and verify.CLAIMS; one
check, ``_check_flags``, refuses every other flag and every missing one.
Library reports carry no timing: tabulate and verify time their one library
call here and print it as ``elapsed``, the last key of --json output and the
last line of tabulate's text. The rest of --json output is the report's own
``to_json_dict``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Callable, Sequence

from . import verify as verify_mod
from .constructions import b_k_order, build_b_k, build_g_k, build_knn_minus_pm, g_k_order
from .enumeration import MAX_N, enumerate_connected_triangle_free
from .formats import MAX_EDGE_LIST_N, read_graphs, to_edge_list_text, to_graph6
from .graph import Graph, GraphError, RootedGraph
from .solver import max_induced_tree, max_induced_tree_through
from .verify import EnumerationReport, VerificationReport, tabulate

DEFAULT_MAX_N = 11

# family -> the flag that indexes it and the order of the graph it builds
FAMILIES = {
    "gk": ("k", g_k_order),
    "bk": ("k", b_k_order),
    "knn-minus-pm": ("m", lambda m: 2 * m),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built once per process; parsing leaves it
    unchanged, so one serves every call."""
    top = argparse.ArgumentParser(
        prog="indtree",
        description="Exact maximum induced tree search over triangle-free graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build one of the extremal families")
    c.add_argument(
        "--family", required=True, choices=FAMILIES,
    )
    c.add_argument("--k", type=int, help="index for gk/bk")
    c.add_argument("--m", type=int, help="side size for knn-minus-pm")
    c.add_argument("--format", choices=("graph6", "edgelist"), help="default graph6")
    c.add_argument("--json", action="store_true")
    c.set_defaults(handler=_cmd_construct)

    s = sub.add_parser("solve", help="compute the maximum induced tree")
    s.add_argument("--input", required=True, help="file of graph6 lines or edge list; - for stdin")
    s.add_argument("--root", type=int, help="require the tree to contain this vertex")
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=_cmd_solve)

    e = sub.add_parser("enumerate", help="list connected triangle-free graphs")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--override-budget", action="store_true")
    e.set_defaults(handler=_cmd_enumerate)

    t = sub.add_parser("tabulate", help="minimum tree numbers over all graphs of one order")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--override-budget", action="store_true")
    t.add_argument("--json", action="store_true")
    t.set_defaults(handler=_cmd_tabulate)

    v = sub.add_parser("verify", help="check one of the extremal claims exhaustively")
    v.add_argument("--claim", required=True, choices=verify_mod.CLAIMS)
    v.add_argument("--max-n", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--json", action="store_true")
    v.add_argument("--override-budget", action="store_true")
    v.set_defaults(handler=_cmd_verify)
    return top


def run(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args, parser)
        code = args.handler(args)
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


def _check_flags(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Exit through ``parser.error`` on a flag the command would ignore, then
    raise GraphError on an order above DEFAULT_MAX_N without
    --override-budget, then exit through ``parser.error`` on a flag that the
    family or claim needs."""
    needs: tuple[str, ...] = ()
    ignored = {}
    if args.command == "construct":
        owner, needs = f"--family {args.family}", (FAMILIES[args.family][0],)
        ignored = {name: owner for name in ("k", "m") if name not in needs}
        if args.json:
            ignored["format"] = "--json"
    elif args.command == "verify":
        owner, needs = f"--claim {args.claim}", verify_mod.CLAIMS[args.claim]
        takes = needs + ("override_budget",) if "max_n" in needs else needs
        ignored = {name: owner for name in ("max_n", "k", "override_budget") if name not in takes}
    for name, by in ignored.items():
        if getattr(args, name) not in (None, False):
            parser.error(f"{by} takes no --{name.replace('_', '-')}")
    order = args.max_n if "max_n" in needs else getattr(args, "n", None)
    if order is not None and order > DEFAULT_MAX_N and not args.override_budget:
        raise GraphError(f"order {order} > {DEFAULT_MAX_N} needs --override-budget (up to {MAX_N})")
    for name in needs:
        if getattr(args, name) is None:
            parser.error(f"{owner} needs --{name.replace('_', '-')}")


def _timed_report(
    args: argparse.Namespace, call: Callable[..., EnumerationReport | VerificationReport], **values
) -> tuple[EnumerationReport | VerificationReport, float]:
    """Time the one library call behind tabulate or verify and return its
    report with the seconds it took; under --json, print the report's JSON
    with those seconds as its last key, ``elapsed``."""
    start = time.perf_counter()
    rep = call(**values)
    elapsed = time.perf_counter() - start
    if args.json:
        print(json.dumps({**rep.to_json_dict(), "elapsed": elapsed}, indent=2))
    return rep, elapsed


def _cmd_construct(args: argparse.Namespace) -> int:
    param, order = FAMILIES[args.family]
    value = getattr(args, param)
    # refuse before building what the CLI could not read back; a non-positive
    # index is left to the builder's own check
    if value > 0 and order(value) > MAX_EDGE_LIST_N:
        raise GraphError(
            f"--family {args.family} --{param} {value} has {order(value)} vertices, "
            f"above the limit {MAX_EDGE_LIST_N}"
        )
    # looked up per call, so that a builder rebound on this module is the one called
    g = {"gk": build_g_k, "bk": build_b_k, "knn-minus-pm": build_knn_minus_pm}[args.family](value)
    root = None
    if isinstance(g, RootedGraph):
        g, root = g.graph, g.root
    if args.json:
        out = {"family": args.family, "n": g.n, "graph6": to_graph6(g).decode("ascii")}
        out[param] = value
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
    return read_graphs(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    records = []
    for g in _read_graphs(args.input):
        if args.root is not None:
            res = max_induced_tree_through(RootedGraph(g, args.root))
        else:
            res = max_induced_tree(g)
        records.append(
            {"n": g.n, "root": res.required_root, "t": res.size, "witness": list(res.witness_vertices)}
        )
    if args.json:
        print(json.dumps(records, indent=2))
    else:
        for r in records:
            root = f" root={r['root']}" if r["root"] is not None else ""
            print(f"t={r['t']}{root} witness=[{','.join(map(str, r['witness']))}]")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for g in enumerate_connected_triangle_free(args.n):
        print(to_graph6(g).decode("ascii"))
    return 0


def _cmd_tabulate(args: argparse.Namespace) -> int:
    rep, elapsed = _timed_report(args, tabulate, n=args.n)
    if not args.json:
        # a rooted extremal instance is written graph6:root (graph6 has no ':')
        print(f"n: {rep.n}")
        print(f"graphs_seen: {rep.graphs_seen}")
        print(f"t3: {rep.t3}")
        print(f"t3_star: {rep.t3_star}")
        print(f"t3_star_formula: {rep.t3_star_formula}")
        print("extremal_rooted: " + " ".join(f"{g6}:{v}" for g6, v in rep.extremal_rooted))
        print("extremal_unrooted: " + " ".join(rep.extremal_unrooted))
        print(f"elapsed: {elapsed:.3f}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    values = {name: getattr(args, name) for name in verify_mod.CLAIMS[args.claim]}
    rep, _ = _timed_report(args, getattr(verify_mod, f"verify_{args.claim}"), **values)
    if not args.json:
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


if __name__ == "__main__":
    main()
