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
from fractions import Fraction

import numpy as np

from .errors import NonInteriorVector, NotBalanced, ParameterOutOfRange, UnknownEdge
from .graph import Graph, fundamental_cycle, spanning_tree
from .limit import ProbabilityVector, _normalized
from .weights import Scalar, TreePotentials, WeightSet, is_exact, ratio

#: Relative tolerance on cycle products of float ratio vectors.
BALANCE_TOL = 1e-9

#: Default margin keeping sampled box parameters away from 0 and 1.
BOX_MARGIN = 1e-6


class RatioVector:
    """One positive ratio per directed edge with reciprocal orientations.

    Values are stored for canonical edges (i, j) with i < j; the opposite
    orientation is the reciprocal, so the reciprocal constraint holds by
    construction.
    """

    def __init__(self, graph: Graph, values):
        store = {}
        for key, y in values.items():
            e = graph.require_edge(int(key[0]), int(key[1]))
            if y <= 0:
                raise ParameterOutOfRange(f"ratio {y} on edge {e} must be positive")
            if is_exact(y):
                y = Fraction(y)  # so that reciprocals of ints stay exact
            if key[0] > key[1]:
                y = 1 / y
            if e in store:
                old = store[e]
                clash = old != y if is_exact(old) and is_exact(y) else (
                    abs(float(old) - float(y)) > 1e-12 * max(float(old), float(y))
                )
                if clash:
                    raise ParameterOutOfRange(f"conflicting ratios for edge {e}")
                continue
            store[e] = y
        missing = set(graph.edges) - set(store)
        if missing:
            raise UnknownEdge(f"no ratio for edges {sorted(missing)}")
        self.graph = graph
        self._y = store
        self.exact = all(is_exact(v) for v in store.values())

    def get(self, i: int, j: int) -> Scalar:
        e = self.graph.require_edge(i, j)
        y = self._y[e]
        return y if (i, j) == e else 1 / y

    def items(self):
        return [(e, self._y[e]) for e in self.graph.sorted_edges]

    def __eq__(self, other):
        return (
            isinstance(other, RatioVector)
            and self.graph == other.graph
            and self._y == other._y
        )

    def __hash__(self):
        return hash((self.graph, tuple(sorted(self._y.items()))))


def weight_ratios(ws: WeightSet) -> RatioVector:
    """Ratios a_ij / a_ji of a weight set, one per directed edge.

    Invariant under scaling both weights of an edge by a common factor.
    """
    return RatioVector(ws.graph, {e: ratio(ws, *e) for e in ws.graph.sorted_edges})


def distribution_ratios(p, g: Graph) -> RatioVector:
    """Entrywise quotients p_j / p_i over directed edges of ``g``.

    The result is balanced around every cycle. Raises NonInteriorVector if
    any entry is not strictly positive.
    """
    entries = p.entries if isinstance(p, ProbabilityVector) else tuple(p)
    if len(entries) != g.n:
        raise NonInteriorVector(f"vector has {len(entries)} entries for {g.n} nodes")
    if any(v <= 0 for v in entries):
        raise NonInteriorVector("target vector must be strictly positive")
    return RatioVector(
        g, {(i, j): entries[j - 1] / entries[i - 1] for i, j in g.sorted_edges}
    )


def distribution_from_ratios(y: RatioVector) -> ProbabilityVector:
    """The unique positive unit-sum vector whose quotients equal ``y``.

    One :class:`hologossip.weights.TreePotentials` pass with ``y.get`` over
    the breadth-first tree from node 1 checks balance and gives the node
    potentials, then normalized; balance makes the tree choice immaterial.

    Raises:
        NotBalanced: when some fundamental cycle has product != 1 (exact
            for exact ratios, |Y - 1| <= BALANCE_TOL otherwise).
    """
    t = spanning_tree(y.graph, root=1)
    pot = TreePotentials(t, y.get, y.exact)
    failing, _ = pot.residuals(y.graph, BALANCE_TOL)
    if failing is not None:
        cycle = fundamental_cycle(t, *failing)
        prod = math.prod((y.get(u, v) for u, v in cycle.steps()),
                         start=Fraction(1) if y.exact else 1.0)
        raise NotBalanced(f"cycle {cycle} has ratio product {prod}")
    return _normalized(pot)


class BoxPoint:
    """One parameter in (0, 1) per undirected edge."""

    def __init__(self, graph: Graph, values):
        store = {}
        for key, x in values.items():
            e = graph.require_edge(int(key[0]), int(key[1]))
            if not (0 < x < 1):
                raise ParameterOutOfRange(f"box parameter {x} on edge {e} outside (0,1)")
            store[e] = x
        missing = set(graph.edges) - set(store)
        if missing:
            raise UnknownEdge(f"no box parameter for edges {sorted(missing)}")
        self.graph = graph
        self._x = store
        self.exact = all(is_exact(v) for v in store.values())

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

    def value(self, edge) -> Scalar:
        return self._x[self.graph.require_edge(*edge)]

    def items(self):
        return [(e, self._x[e]) for e in self.graph.sorted_edges]

    def __eq__(self, other):
        return (
            isinstance(other, BoxPoint)
            and self.graph == other.graph
            and self._x == other._x
        )

    def __hash__(self):
        return hash((self.graph, tuple(sorted(self._x.items()))))


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
    sets.
    """
    if y.graph != x.graph:
        raise UnknownEdge("ratio vector and box point use different graphs")
    exact = y.exact and x.exact
    pairs = {}
    for e in y.graph.sorted_edges:
        r = y.get(*e)
        t = x.value(e)
        if not exact:
            r, t = float(r), float(t)
        if r <= 1:
            pairs[e] = (r * t, t)
        else:
            pairs[e] = (t, t / r)
    return WeightSet(y.graph, pairs)


def design_for(p, g: Graph, x: BoxPoint) -> WeightSet:
    """Weights whose gossip limit is ``p``, selected inside the fiber by ``x``.

    The result is cycle-balanced by construction and
    :func:`hologossip.limit.consensus_limit` recovers ``p`` from it.
    """
    return weights_from_ratios(distribution_ratios(p, g), x)
