"""Knot-style calculus for self-indexed graphs and comtes.

A comte is a finite directed multigraph whose arrows carry a vertex label
and a conserved integer flow.  This package builds comtes from link
diagrams (Gauss or PD codes), rewrites them with the moves R0-R3,
and computes their invariants: group/quandle presentations, linking
numbers, Alexander polynomials, quandle-cocycle state sums, cubical
homology, censuses of small r-/q-graphs, and finite-type brackets.
"""

from .core import (
    Arrow,
    Comte,
    SelfIndexedGraph,
    GraphHomomorphism,
    canonical_form,
    canonical_key,
    classify,
    components,
    comte,
    contract,
    decode,
    encode,
    graph,
    quotient,
    validate,
    validate_graph,
)
from .moves import (
    MoveInstance,
    MoveTrace,
    SearchBudget,
    apply_move,
    enumerate_moves,
    equivalent_bounded,
    inverse_instances,
    replay_trace,
)
from .links import (
    CORPUS,
    GaussDiagram,
    PlanarDiagram,
    comte_of_diagram,
    comte_of_gauss,
    parse_gauss_code,
    parse_pd_code,
    swap_arrowtails,
)
from .invariants import (
    abelianization_rank,
    group_presentation,
    linking_matrix,
    quandle_presentation,
)
from .laurent import Laurent, MultiLaurent, laurent_gcd
from .alexander import (
    alexander_polynomial,
    multivariable_relation_matrix,
    relation_matrix,
)
from .racks import (
    AbelianGroup,
    C2,
    Cocycle2,
    FiniteRack,
    builtin_rack,
    check_cocycle,
    check_rack,
    dihedral_quandle,
    epsilon,
    format_group_ring,
    graph_of_rack,
    tetrahedron_cocycle,
    tetrahedron_quandle,
    trivial_quandle,
)
from .coloring import Chain, Cochain, colorings, flow_to_cycle, graph_homomorphisms, phi_invariant, state_sum
from .cubes import build_Yn, face_map
from .homology import (
    HomologyGroup,
    boundary_matrix,
    chain_basis,
    enumerate_homs,
    homology,
    homology_range,
    q2_cocycles,
)
from .linalg import smith_normal_form
from .census import enumerate_q_graphs, enumerate_r_graphs, signature_census
from .finitetype import GraphFormalSum, SemiVirtualGraph, bracket, evaluate, is_degree_at_most

__version__ = "0.1.0"
