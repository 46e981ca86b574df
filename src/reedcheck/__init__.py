"""Exact graph invariants and batch verification of the Reed bound
chi <= ceil((Delta + omega + 1) / 2) over hereditary graph families."""

from .audit import (
    AuditFinding,
    AuditReport,
    audit_graph,
    check,
    replay_finding,
)
from .coloring import (
    Coloring,
    SequenceDecomposition,
    UniqueColorDecomposition,
    build_sequence,
    enumerate_optimal_colorings,
    find_bicolor_path4,
    greedy_coloring,
    is_proper,
    kempe_component,
    kempe_swap,
    unique_color_neighbors,
)
from .corpus import Graph6Stream, SweepReport, enumerate_graphs, sweep, sweep_stream
from .graphs import (
    Graph,
    Graph6Error,
    canonical_code,
    canonical_form,
    complement,
    graph_from_graph6,
    graph_to_graph6,
    induced_subgraph,
    is_isomorphic,
)
from .invariants import (
    InvariantBundle,
    chromatic_number,
    clique_number,
    independence_number,
    invariant_bundle,
    max_degree,
    reed_bound,
)
from .patterns import (
    FAMILIES,
    FamilySpec,
    builtin_pattern,
    catalog_names,
    has_induced,
    in_family,
    odd_hole_lengths,
)

__version__ = "0.1.0"
