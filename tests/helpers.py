"""Graph builders shared by the test modules."""

import networkx as nx

from indtree import Graph


def random_graph(rng, n, p):
    """G(n, p) drawn from ``rng``, one draw per vertex pair in row order."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def random_triangle_free(rng, n, extra):
    """A random spanning tree on n vertices plus up to ``extra`` random edges
    that close no triangle, drawn from ``rng`` (50 n tries at most)."""
    rows = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for _ in range(50 * n):
        if not extra:
            break
        u, v = rng.sample(range(n), 2)
        if rows[u] >> v & 1 or rows[u] & rows[v]:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        extra -= 1
    return Graph(n, rows)


def to_nx(g):
    """The same graph as a networkx.Graph on vertices 0..n-1."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G
