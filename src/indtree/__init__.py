"""Exact maximum induced tree search over small triangle-free graphs.

The package computes the largest induced tree in a graph (optionally
through a designated root), builds the extremal blown-up-path families,
enumerates all connected triangle-free graphs of a given small order up to
isomorphism, and exhaustively verifies the associated extremal claims.
"""

from .canon import CanonicalForm, are_rooted_isomorphic, canonical_form, canonical_labeling
from .constructions import blow_up_path, build_b_k, build_g_k, build_knn_minus_pm
from .enumeration import enumerate_connected_triangle_free
from .formats import (
    Graph6ParseError,
    from_edge_list_text,
    from_graph6,
    read_graph6_lines,
    to_edge_list_text,
    to_graph6,
)
from .graph import (
    Graph,
    GraphError,
    RootedGraph,
    closed_neighborhood,
    diameter,
    is_connected,
    is_induced_tree,
    is_triangle_free,
)
from .solver import (
    SearchStats,
    TreeSearchResult,
    brute_force_t,
    exists_induced_tree_through,
    max_induced_tree,
    max_induced_tree_through,
    rooted_tree_numbers,
)
from .verify import (
    CLAIMS,
    EnumerationReport,
    FailureRecord,
    VerificationReport,
    rooted_census,
    t3_star_formula,
    tabulate,
    verify_corollary,
    verify_counterexample_b5,
    verify_diameter_remark,
    verify_theorem1,
    verify_theorem2,
)

__all__ = [
    "CLAIMS",
    "CanonicalForm",
    "EnumerationReport",
    "FailureRecord",
    "Graph",
    "Graph6ParseError",
    "GraphError",
    "RootedGraph",
    "SearchStats",
    "TreeSearchResult",
    "VerificationReport",
    "are_rooted_isomorphic",
    "blow_up_path",
    "brute_force_t",
    "build_b_k",
    "build_g_k",
    "build_knn_minus_pm",
    "canonical_form",
    "canonical_labeling",
    "closed_neighborhood",
    "diameter",
    "enumerate_connected_triangle_free",
    "exists_induced_tree_through",
    "from_edge_list_text",
    "from_graph6",
    "is_connected",
    "is_induced_tree",
    "is_triangle_free",
    "max_induced_tree",
    "max_induced_tree_through",
    "read_graph6_lines",
    "rooted_census",
    "rooted_tree_numbers",
    "t3_star_formula",
    "tabulate",
    "to_edge_list_text",
    "to_graph6",
    "verify_corollary",
    "verify_counterexample_b5",
    "verify_diameter_remark",
    "verify_theorem1",
    "verify_theorem2",
]
