"""Torus complexes, the surface-complex graph of the 3-torus, and Seifert
fibered space invariants, all over exact integer arithmetic."""

from .exactlin import (
    IntMatrix,
    SNFResult,
    complete_to_unimodular,
    content,
    det,
    invariant_factors,
    minors_gcd,
    smith_normal_form,
    xgcd,
)
from .seifert import (
    HomologySummary,
    PresentationData,
    SeifertInvariants,
    StructureReport,
    Verdict,
    classify_surface_complex,
    euler_number,
    h1,
    h2_rank,
    horizontal_degree,
    info_json_dict,
    normalize,
    pi1_presentation,
    relative_h2_rank_disk_base,
    torus_link_components,
)
from .toruscomplex import (
    ComplexGraph,
    PathCertificate,
    ProjVector,
    bfs_distance,
    build_graph,
    canonicalize,
    connect_path,
    edge_witness,
    enumerate_vertices,
    farey_neighbors,
    graph_to_dot,
    graph_to_json_dict,
    intersection_components,
    is_finegold_simplex,
    s1_edge,
    truncation_diameter,
    two_hop_path,
)

__version__ = "0.1.0"
