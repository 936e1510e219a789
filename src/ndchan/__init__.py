"""Channel assignment and distance-constrained labeling on uniform decompositions."""

from .decomposition import (
    CLIQUE,
    INDEPENDENT,
    NdPartition,
    check_uniform,
    min_vertex_cover,
    nd_partition,
    refine_uniform,
    vc_partition,
)
from .errors import GuardExceeded, InstanceFormatError, InternalSolverError, NotUniformError
from .graph import (
    Graph,
    Labeling,
    VerificationResult,
    WeightedGraph,
    all_pairs_distance,
    connected_components,
    power_graph,
    trivial_upper_bound,
    verify_assignment,
)
from .ilp import (
    Constraint,
    IlpModel,
    add_constraint,
    check_solution,
    solve_feasibility,
)
from .instances import InstanceFile, emit_instance, emit_result, parse_instance
from .oracle import brute_force_ca, brute_force_nd
from .reduction import DistanceConstraints, labeling_to_ca
from .shift_digraph import ShiftDigraph, build_shift_digraph, dump_digraph
from .solver import (
    SolveStats,
    build_flow_model,
    connectivity_violation,
    euler_walk,
    minimize_span,
    preprocess_reflexive,
    solve_ca_uniform,
    solve_ca_vc,
    solve_flow,
    solve_labeling,
    walk_to_labeling,
)

__version__ = "0.1.0"
