"""Layer tracing for the indtree benchmark, installed from outside the package.

A Tracer wraps the public functions of each indtree layer module and puts
the wrapper in place of every module attribute, in every ``indtree.*``
namespace, that ``is`` the original. Call sites that imported a function by
name (``from .canon import canonical_labeling``) are therefore covered, and
a refactor that moves a call keeps being traced as long as it calls a
public function of some layer.

Each call becomes one span (function, start, end, parent span). Generator
functions get one span per resumption, so a lazy walk is charged to its
layer only while it runs. Spans stay in memory until the caller writes them.
A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("graph", "formats", "canon", "constructions", "solver", "enumeration", "verify", "cli")

# Bit-mask iteration helpers run inside the solver's and canon's inner loops;
# a span per call would cost more than the work it measures, so their time
# stays with the caller.
UNTRACED = frozenset({"graph.bits", "graph.mask_of", "graph.vertex_list"})

# Solver functions whose result carries SearchStats (nodes, prunings).
_SEARCH_RESULTS = frozenset({"solver.max_induced_tree", "solver.max_induced_tree_through"})
_ROOTED = "solver.max_induced_tree_through"


@dataclass
class PassTrace:
    """Spans and exact counts of one traced pass."""

    names: list[str]
    spans: list[list] = field(default_factory=list)  # [name index, start, end, parent]
    calls: Counter = field(default_factory=Counter)  # function name -> calls
    yields: Counter = field(default_factory=Counter)  # generator name -> items yielded
    nodes: int = 0
    prunings: int = 0
    rooted_instances: set = field(default_factory=set)  # distinct (n, adj, root)

    def self_times(self) -> dict[str, float]:
        """Self seconds per function name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (ni, start, end, _), c in zip(self.spans, child):
            name = self.names[ni]
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def layer_entries(self) -> Counter:
        """Calls into each layer from outside it (nested same-layer calls excluded)."""
        out: Counter = Counter()
        for ni, _, _, parent in self.spans:
            layer = _layer(self.names[ni])
            if parent < 0 or _layer(self.names[self.spans[parent][0]]) != layer:
                out[layer] += 1
        return out

    def canon_calls_from(self, layer: str) -> int:
        """Canon entries whose calling span belongs to ``layer``."""
        n = 0
        for ni, _, _, parent in self.spans:
            if (
                parent >= 0
                and _layer(self.names[ni]) == "canon"
                and _layer(self.names[self.spans[parent][0]]) == layer
            ):
                n += 1
        return n


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Installs span-recording wrappers over indtree's public layer functions."""

    def __init__(self) -> None:
        self._originals: dict[int, tuple[object, str]] = {}  # id -> (function, name)
        for layer in LAYERS:
            module = sys.modules[f"indtree.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    self._originals[id(obj)] = (obj, name)
        self.names = sorted(name for _, name in self._originals.values())
        self._index = {name: i for i, name in enumerate(self.names)}
        self._replaced: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.current = PassTrace(self.names)
        self._wrappers = {key: self._wrap(fn, name) for key, (fn, name) in self._originals.items()}

    def start_pass(self) -> PassTrace:
        self.current = PassTrace(self.names)
        self._stack.clear()
        return self.current

    def install(self) -> None:
        if self._replaced:
            raise RuntimeError("tracer already installed")
        for modname, module in list(sys.modules.items()):
            if modname != "indtree" and not modname.startswith("indtree."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, self._wrappers[id(obj)])
                    self._replaced.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self._replaced:
            setattr(module, attr, obj)
        self._replaced.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str):
        index = self._index[name]
        stack = self._stack
        clock = time.perf_counter

        def open_span() -> int:
            trace = self.current
            sid = len(trace.spans)
            trace.spans.append([index, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(sid)
            return sid

        def close_span(sid: int) -> None:
            self.current.spans[sid][2] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                self.current.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(sid)
                    self.current.yields[name] += 1
                    yield item

            traced_gen.__wrapped__ = fn
            return traced_gen

        search = name in _SEARCH_RESULTS
        rooted = name == _ROOTED

        def traced(*args, **kwargs):
            trace = self.current
            trace.calls[name] += 1
            sid = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid)
            if search:
                trace.nodes += result.stats.nodes
                trace.prunings += result.stats.prunings
            if rooted:
                rg = args[0] if args else kwargs["rg"]
                trace.rooted_instances.add((rg.graph.n, rg.graph.adj, rg.root))
            return result

        traced.__wrapped__ = fn
        return traced


def layer_counts(trace: PassTrace) -> dict[str, int]:
    """Exact, machine-independent counts of one traced pass."""
    entries = trace.layer_entries()
    classes = trace.yields["enumeration.enumerate_connected_triangle_free"]
    rooted = trace.calls[_ROOTED]
    return {
        "canon.calls": entries["canon"],
        "enumeration.walks": trace.calls["enumeration.enumerate_connected_triangle_free"],
        "enumeration.classes": classes,
        "enumeration.canon_from_enumeration": trace.canon_calls_from("enumeration"),
        "solver.calls": entries["solver"],
        "solver.rooted_calls": rooted,
        "solver.unrooted_calls": trace.calls["solver.max_induced_tree"],
        "solver.exists_calls": trace.calls["solver.exists_induced_tree_through"],
        "solver.nodes": trace.nodes,
        "solver.prunings": trace.prunings,
        "solver.rooted_instances": len(trace.rooted_instances),
        "graph.calls": entries["graph"],
        "formats.calls": entries["formats"],
        "constructions.calls": entries["constructions"],
        "spans": len(trace.spans),
    }


def layer_seconds(trace: PassTrace) -> dict[str, float]:
    """Self seconds per layer, plus the solver time spent in calls that count nodes."""
    per_fn = trace.self_times()
    out = {layer: 0.0 for layer in LAYERS}
    for name, s in per_fn.items():
        out[_layer(name)] += s
    out["solver.search"] = sum(per_fn.get(name, 0.0) for name in _SEARCH_RESULTS)
    return out
