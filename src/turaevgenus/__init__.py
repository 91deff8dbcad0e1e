"""Turaev genus of link diagrams and alternating decomposition graphs."""

from .adgraph import (
    AdGraph,
    nullity,
    parse_graph_file,
    simplify,
    turaev_genus_graph,
    validate_adg,
    write_graph_file,
)
from .diagram import (
    PlanarDiagram,
    bracket_span,
    classify_arcs,
    connected_sum,
    insert_twist,
    is_adequate,
    kauffman_bracket,
    parse_pd,
    resolve_state,
    state_circle_counts,
    turaev_genus_diagram,
    write_pd,
)
from .decompose import Decomposition, decompose, twisted_genus
from .families import (
    Classification,
    canonical_contract,
    classify_genus,
    is_reduced,
    isomorphic,
    random_genus0,
)
from .ribbon import RibbonGraph, boundary_count, is_orientable, ribbon_genus, twist_all

__all__ = [
    "AdGraph",
    "Classification",
    "Decomposition",
    "PlanarDiagram",
    "RibbonGraph",
    "boundary_count",
    "bracket_span",
    "canonical_contract",
    "classify_arcs",
    "classify_genus",
    "connected_sum",
    "decompose",
    "insert_twist",
    "is_adequate",
    "is_orientable",
    "is_reduced",
    "isomorphic",
    "kauffman_bracket",
    "nullity",
    "parse_graph_file",
    "parse_pd",
    "random_genus0",
    "resolve_state",
    "ribbon_genus",
    "simplify",
    "state_circle_counts",
    "turaev_genus_diagram",
    "turaev_genus_graph",
    "twist_all",
    "twisted_genus",
    "validate_adg",
    "write_graph_file",
    "write_pd",
]

__version__ = "0.1.0"
