"""Graph builders shared by the test modules."""

import networkx as nx

from indtree import Graph


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
