"""Graph builders shared by the test modules, and ``scripts/bench.py`` as a
module: the bench's ``ladder``, ``random_triangle_free`` and
``random_corpus`` are the tests' too, so both draw the same graphs."""

import importlib.util
from pathlib import Path

import networkx as nx

from indtree import Graph

BENCH_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def load_bench():
    """A fresh copy of ``scripts/bench.py``, loaded as the module ``bench``."""
    spec = importlib.util.spec_from_file_location("bench", BENCH_SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


_bench = load_bench()
ladder, random_triangle_free, random_corpus = (
    _bench.ladder, _bench.random_triangle_free, _bench.random_corpus
)


def random_graph(rng, n, p):
    """G(n, p) drawn from ``rng``, one draw per vertex pair in row order."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def to_nx(g):
    """The same graph as a networkx.Graph on vertices 0..n-1."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G
