"""Deterministic builders for the extremal graph families.

All three families are blown-up paths or close relatives: bipartite, hence
triangle-free. Classes occupy consecutive vertex index ranges so witnesses
stay human-readable.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, GraphError, RootedGraph


def blow_up_path(class_sizes: Sequence[int]) -> Graph:
    """Path with each vertex replaced by an independent set.

    Class i is completely joined to class i+1; there are no other edges.
    Vertices of class i occupy the index range right after class i-1.
    """
    sizes = list(class_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError(f"class sizes must be positive, got {sizes!r}")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    edges = []
    for i in range(len(sizes) - 1):
        for u in range(starts[i], starts[i + 1]):
            for v in range(starts[i + 1], starts[i + 2]):
                edges.append((u, v))
    return Graph.from_edge_list(starts[-1], edges)


def g_k_order(k: int) -> int:
    """|G_k| = 1 + (k-1)k/2, the vertex count of ``build_g_k(k)``."""
    return 1 + (k - 1) * k // 2


def b_k_order(k: int) -> int:
    """|B_k| = floor((k+1)^2 / 4), the vertex count of ``build_b_k(k)``."""
    return (k + 1) ** 2 // 4


def build_g_k(k: int) -> RootedGraph:
    """Blown-up path with class sizes (1, k-1, k-2, ..., 1), rooted at the
    singleton first class (vertex 0).

    Total vertex count is 1 + (k-1)k/2. The rooted tree number of the result
    is k, and it is the unique largest connected triangle-free graph with
    that rooted tree number.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    sizes = [1] + [k - i for i in range(1, k)]
    return RootedGraph(blow_up_path(sizes), 0)


def build_b_k(k: int) -> Graph:
    """Blown-up path with class sizes min(i, k+1-i) for i = 1..k.

    Total vertex count is floor((k+1)^2 / 4); the tree number is k and the
    diameter is k-1.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    sizes = [min(i, k + 1 - i) for i in range(1, k + 1)]
    return blow_up_path(sizes)


def build_knn_minus_pm(m: int) -> Graph:
    """Complete bipartite graph K_{m,m} minus a perfect matching.

    Parts are vertices 0..m-1 and m..2m-1; the removed matching pairs i with
    m+i. Every vertex has degree m-1; connected for m >= 3. At m=5 this is
    the 10-vertex graph whose maximum induced tree has only 5 vertices.
    """
    if m < 2:
        raise GraphError(f"m must be >= 2, got {m}")
    edges = [(i, m + j) for i in range(m) for j in range(m) if i != j]
    return Graph.from_edge_list(2 * m, edges)
