"""Closed-form consensus limits and their certificates.

For a cycle-balanced weight set the limit of any spanning gossip schedule
is a unique positive probability vector: the normalized node potentials,
each the product of directed ratios along a tree path from a base node. One
O(n + m) pass (:class:`hologossip.weights.TreePotentials`) assigns every
potential from its parent's. Without cycle balance no single vector works,
but every spanning tree still induces one; two trees extracted from a
violated cycle give vectors that provably differ, which is the witness this
module produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NonInteriorVector, NotHolonomic, NotUnitSum, UnrepresentableLimit
from .graph import SpanningTree, normalize_edge, spanning_tree_containing
from .weights import TreePotentials, WeightSet, check_holonomy, is_exact

#: Max per-entry deviation tolerated by float-mode vector checks.
VECTOR_TOL = 1e-12


@dataclass(frozen=True)
class ProbabilityVector:
    """Strictly positive vector summing to one; entry k belongs to node k+1."""

    entries: tuple

    def __post_init__(self):
        # written as "not ... > / <=" so that NaN entries fail both tests
        if not self.entries or any(not v > 0 for v in self.entries):
            raise NonInteriorVector("entries must be strictly positive")
        total = sum(self.entries)
        if total != 1 if self.exact else not abs(total - 1.0) <= VECTOR_TOL:
            raise NotUnitSum(f"entries sum to {total}, not 1")

    @property
    def exact(self) -> bool:
        return all(map(is_exact, self.entries))

    def as_floats(self) -> tuple:
        return tuple(float(v) for v in self.entries)


def _normalized(pot: TreePotentials) -> ProbabilityVector:
    """Potentials over their sum; floats are first shifted, exactly, so the
    largest is in [1, 2), which leaves every normal-float entry unchanged."""
    values = pot.values(top=True)
    total = sum(values)
    entries = tuple(v / total for v in values)
    bad = [k for k, v in enumerate(entries, 1) if not v > 0]  # underflow, or nan from inf
    if bad:
        raise UnrepresentableLimit(f"limit entry {bad[0]} is outside the float64 range")
    return ProbabilityVector(entries)


def consensus_limit(ws: WeightSet, base: int = 1):
    """Limit distribution of any spanning schedule for a balanced weight set.

    :func:`hologossip.weights.check_holonomy` from ``base`` runs one
    :class:`hologossip.weights.TreePotentials` pass over the breadth-first
    tree from ``base``, which gives each node the product of directed ratios
    along its tree path from ``base``. The normalized potentials of that
    pass form the limit, independent of ``base``; O(n + m) in all.

    Returns:
        (potentials of nodes 1..n, one at ``base``, as a tuple; ProbabilityVector).
        Float potentials past float64 read inf or 0.

    Raises:
        NotHolonomic: when the weight set is not cycle-balanced (the limit
            would depend on the schedule; use :func:`tree_vector` for the
            vector attached to one spanning tree).
        UnrepresentableLimit: when a float limit entry falls outside float64.
        InvalidNode: when ``base`` is outside 1..n, balanced or not.
    """
    report = check_holonomy(ws, root=base)
    if not report.holonomic:
        w = report.witness
        raise NotHolonomic(
            f"weights are not cycle-balanced: cycle {w.cycle} has ratio {w.ratio}",
            witness=w,
        )
    pot = report.potentials
    return pot.values(), _normalized(pot)


def tree_vector(ws: WeightSet, t: SpanningTree) -> ProbabilityVector:
    """Probability vector fixed by the local matrices of the tree edges.

    The normalized potentials of one :class:`hologossip.weights.TreePotentials`
    pass over ``t`` from its root. Defined for every weight set: restricted
    to a tree there are no cycles to balance. For a cycle-balanced set every
    spanning tree yields the same vector as :func:`consensus_limit`.
    """
    return _normalized(TreePotentials(t, ws))


def verify_left_eigenvector(ws: WeightSet, p: ProbabilityVector) -> bool:
    """Check that p is fixed (on the left) by every edge's local matrix.

    For the edge (i, j) the fixed-point condition reduces to
    p_i * a_ij == p_j * a_ji. Exact inputs are checked exactly; float
    inputs allow VECTOR_TOL on each edge's deviation. Such a vector exists
    exactly when the weight set is cycle-balanced.
    """
    entries = p.entries
    if len(entries) != ws.graph.n:
        raise NonInteriorVector(f"vector has {len(entries)} entries for {ws.graph.n} nodes")
    exact = ws.exact and all(map(is_exact, entries))
    for i, j in ws.graph.sorted_edges:
        dev = entries[i - 1] * ws.weight(i, j) - entries[j - 1] * ws.weight(j, i)
        if dev != 0 if exact else abs(float(dev)) > VECTOR_TOL:
            return False
    return True


@dataclass(frozen=True)
class WitnessTrees:
    """Two spanning trees whose attached vectors disagree.

    ``path_tree`` contains the path edges of a violated cycle, and
    ``chord_tree`` contains the edge closing it; because the cycle's ratio
    product differs from one, the two vectors differ in the ratio of the
    entries at the cycle's endpoints.
    """

    path_tree: SpanningTree
    chord_tree: SpanningTree
    path_vector: ProbabilityVector
    chord_vector: ProbabilityVector


def nonholonomy_witness_trees(ws: WeightSet) -> Optional[WitnessTrees]:
    """Tree pair with distinct vectors, or None for a balanced set."""
    report = check_holonomy(ws)
    if report.holonomic:
        return None
    nodes = report.witness.cycle.nodes  # (v1, ..., vk, v1)
    path_edges = {normalize_edge(u, v) for u, v in zip(nodes, nodes[1:-1])}
    chord = normalize_edge(nodes[0], nodes[-2])
    t_path = spanning_tree_containing(ws.graph, path_edges)
    t_chord = spanning_tree_containing(ws.graph, {chord})
    return WitnessTrees(
        path_tree=t_path,
        chord_tree=t_chord,
        path_vector=tree_vector(ws, t_path),
        chord_vector=tree_vector(ws, t_chord),
    )
