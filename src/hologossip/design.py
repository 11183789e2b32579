"""Inverse design: from a target distribution to cycle-balanced weights.

A weight set is summarized by one positive ratio per directed edge, with
reciprocal values on opposite orientations. Ratios coming from a positive
vector p (entrywise quotients p_j / p_i) are balanced around every cycle,
and that correspondence is one-to-one. Going back from ratios to weights
leaves one degree of freedom per edge, parameterized by a number in (0, 1);
sweeping the parameter sweeps the whole set of weight sets with the given
limit.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from .errors import (NonInteriorVector, NotBalanced, ParameterOutOfRange, UnknownEdge,
                     WeightOutOfRange)
from .graph import Graph, spanning_tree
from .limit import ProbabilityVector, tree_vector
from .weights import EdgeTable, WeightSet, check_holonomy, is_exact, ratio

#: Default margin keeping sampled box parameters away from 0 and 1.
BOX_MARGIN = 1e-6


class RatioVector(EdgeTable):
    """One positive ratio per directed edge with reciprocal orientations.

    Values are stored for canonical edges (i, j) with i < j; the opposite
    orientation is the reciprocal, so the reciprocal constraint holds by
    construction.
    """

    noun = "ratio"

    def _check(self, y, e):
        exact = is_exact(y)
        if not (y > 0 if exact else 0 < y < math.inf):  # a float test that NaN fails
            raise ParameterOutOfRange(f"ratio {y} on edge {e} must be positive and finite")
        return Fraction(y) if exact else y  # so that reciprocals of ints stay exact

    def _flip(self, y):
        return 1 / y

    def terms(self, i: int, j: int) -> tuple:
        """The ratio read in the orientation (i, j), over one."""
        return self.get(i, j), 1


def weight_ratios(ws: WeightSet) -> RatioVector:
    """Ratios a_ij / a_ji of a weight set, one per directed edge.

    Invariant under scaling both weights of an edge by a common factor. When
    a float quotient is past float64, every quotient is taken exactly.
    """
    ratios = {e: ratio(ws, *e) for e in ws.graph.sorted_edges}
    if math.inf in ratios.values():
        ratios = {e: Fraction(a) / Fraction(b) for e, (a, b) in ws.items()}
    return RatioVector(ws.graph, ratios)


def distribution_ratios(p, g: Graph) -> RatioVector:
    """Entrywise quotients p_j / p_i over directed edges of ``g``.

    The result is balanced around every cycle. When a float quotient is past
    float64, every quotient is taken exactly, as a Fraction of two floats.
    Raises NonInteriorVector if any entry is not positive and finite.
    """
    entries = p.entries if isinstance(p, ProbabilityVector) else tuple(p)
    if len(entries) != g.n:
        raise NonInteriorVector(f"vector has {len(entries)} entries for {g.n} nodes")
    if any(not 0 < v < math.inf for v in entries):
        raise NonInteriorVector("target vector must be strictly positive and finite")
    ratios = {(i, j): entries[j - 1] / entries[i - 1] for i, j in g.sorted_edges}
    if math.inf in ratios.values():
        ratios = {e: Fraction(entries[e[1] - 1]) / Fraction(entries[e[0] - 1]) for e in ratios}
    return RatioVector(g, ratios)


def distribution_from_ratios(y: RatioVector) -> ProbabilityVector:
    """The unique positive unit-sum vector whose quotients equal ``y``.

    :func:`hologossip.weights.check_holonomy` tests balance; the vector is
    then the normalized potentials of the breadth-first tree from node 1,
    and balance makes the tree choice immaterial.

    Raises:
        NotBalanced: when some fundamental cycle has product != 1 (exact
            for exact ratios, |Y - 1| <= HOLONOMY_TOL otherwise).
    """
    report = check_holonomy(y)
    if not report.holonomic:
        w = report.witness
        raise NotBalanced(f"cycle {w.cycle} has ratio product {w.ratio}")
    return tree_vector(y, spanning_tree(y.graph, root=1))


class BoxPoint(EdgeTable):
    """One parameter in (0, 1) per undirected edge."""

    noun = "box parameter"

    def _check(self, x, e):
        if not (0 < x < 1):
            raise ParameterOutOfRange(f"box parameter {x} on edge {e} outside (0,1)")
        return x

    @classmethod
    def from_sequence(cls, graph: Graph, values) -> "BoxPoint":
        """Zip values against the graph's edges in ascending order."""
        values = list(values)
        if len(values) != len(graph.sorted_edges):
            raise ParameterOutOfRange(
                f"{len(values)} parameters for {len(graph.sorted_edges)} edges"
            )
        return cls(graph, dict(zip(graph.sorted_edges, values)))

    @classmethod
    def uniform(cls, graph: Graph, value) -> "BoxPoint":
        return cls(graph, {e: value for e in graph.sorted_edges})


def sample_box_point(g: Graph, seed: int, margin: float = BOX_MARGIN) -> BoxPoint:
    """Seeded uniform draw in (margin, 1 - margin) per edge (PCG64 stream)."""
    if seed < 0:
        raise ParameterOutOfRange(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.uniform(margin, 1.0 - margin, size=len(g.sorted_edges))
    return BoxPoint.from_sequence(g, [float(v) for v in draws])


def weights_from_ratios(y: RatioVector, x: BoxPoint) -> WeightSet:
    """The weight set on the ratio fiber of ``y`` selected by ``x``.

    Per edge with ratio r and parameter t the pair is (r*t, t) when r <= 1
    and (t, t/r) otherwise; either way both weights stay inside (0, 1) and
    their quotient is exactly r. Distinct box points select distinct weight
    sets. Float mode takes t/r of a ratio past float64 in one rounding, and
    raises WeightOutOfRange when a weight underflows to zero.
    """
    if y.graph != x.graph:
        raise UnknownEdge("ratio vector and box point use different graphs")
    exact = y.exact and x.exact
    pairs = {}
    for (e, r), (_, t) in zip(y.items(), x.items()):
        if exact:
            pairs[e] = (r * t, t) if r <= 1 else (t, t / r)
        elif r > sys.float_info.max:
            pairs[e] = (float(t), float(Fraction(t) / r))
        else:
            r, t = float(r), float(t)
            pairs[e] = (r * t, t) if r <= 1 else (t, t / r)
        if 0 in pairs[e]:
            raise WeightOutOfRange(f"edge {e} needs a weight below the float64 range")
    return WeightSet(y.graph, pairs)


def design_for(p, g: Graph, x: BoxPoint) -> WeightSet:
    """Weights whose gossip limit is ``p``, selected inside the fiber by ``x``.

    The result is cycle-balanced by construction and
    :func:`hologossip.limit.consensus_limit` recovers ``p`` from it.
    """
    return weights_from_ratios(distribution_ratios(p, g), x)
