"""Weighted gossip on connected graphs.

Agents joined by an edge repeatedly replace their values with individual,
possibly asymmetric, weighted averages of the pair. This package checks the
cycle-balance condition under which every spanning schedule drives the
system to the same limit, computes that limit in closed form, inverse-designs
weights realizing any interior target distribution, and simulates schedules
while verifying a geometric decay certificate.
"""

from .design import (
    box_point,
    design_for,
    distribution_ratios,
    sample_box_point,
    weight_ratios,
    weights_from_ratios,
)
from .engine import (
    ProductTracker,
    RunOptions,
    RunReport,
    Schedule,
    ScheduleClass,
    classify_schedule,
    ergodicity_coefficient,
    is_scrambling,
    run,
    seminorm,
)
from .graph import (
    Graph,
    SpanningTree,
    UnionFind,
    Walk,
    build_graph,
    fundamental_cycles,
    normalize_edge,
    spanning_tree,
    spanning_tree_containing,
    spanning_tree_from_edges,
)
from .limit import (
    ProbabilityVector,
    WitnessTrees,
    consensus_limit,
    nonholonomy_witness_trees,
    tree_vector,
    verify_left_eigenvector,
)
from .weights import (
    EdgeWeights,
    HolonomyReport,
    HolonomyWitness,
    WeightSet,
    check_holonomy,
    entry_floor,
    local_matrix,
    min_weight,
    ratio,
    walk_ratio,
)
from . import errors

__version__ = "0.1.0"
