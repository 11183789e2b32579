"""Per-edge averaging weights, their local update matrices, and cycle balance.

Each undirected edge (i, j) carries a pair of weights (a_ij, a_ji) in the
open interval (0, 1): a_ij is the weight agent i places on agent j's value
during a pairwise update, and vice versa. A weight set is homogeneous in
scalar kind: either every weight is an exact ``fractions.Fraction`` or every
weight is a float. Exact sets make the cycle-balance decision exact; float
sets fall back to a relative tolerance. ``WeightSet`` is the package's one
per-edge table; the ratios and box parameters of ``design`` are plain tuples
in ``Graph.sorted_edges`` order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import InvalidWalk, MixedScalarKinds, UnknownEdge, WeightOutOfRange
from .graph import Graph, SpanningTree, Walk, fundamental_cycle, spanning_tree

Scalar = Union[Fraction, float]

#: Relative tolerance on the cycle products of float weight sets,
#: |R - 1| <= HOLONOMY_TOL. Exact values are decided exactly.
HOLONOMY_TOL = 1e-9


def is_exact(v) -> bool:
    return type(v) is not float and isinstance(v, (Fraction, int)) and not isinstance(v, bool)


class EdgeWeights(NamedTuple):
    """Weight pair for a canonical edge (i, j) with i < j.

    ``a_ij`` weights the influence of j on i; ``a_ji`` the influence of i
    on j. Both lie in the open interval (0, 1).
    """

    a_ij: Scalar
    a_ji: Scalar


class WeightSet:
    """One weight pair per graph edge, stored under the canonical key (i, j),
    i < j; immutable after construction. ``exact`` holds when every weight is
    an exact rational, and fails on a graph with no edges."""

    def __init__(self, graph: Graph, pairs):
        """Build from ``{(i, j): (a_ij, a_ji)}`` with keys in either orientation.

        For a key given as (j, i) with j > i the pair is stored flipped so
        the canonical record keeps its meaning. Every edge must be given
        exactly once.
        """
        store, edges = {}, graph.edges
        exact = 0  # Fraction values; in (0, 1) no other value is exact
        for key, pair in pairs.items():
            i, j = int(key[0]), int(key[1])
            e = graph.require_edge(i, j)
            if e in store:
                raise UnknownEdge(f"edge ({i},{j}) given more than once")
            a, b = pair
            if not (0 < a < 1 and 0 < b < 1):
                raise WeightOutOfRange(f"weight {b if 0 < a < 1 else a} on edge {e} outside (0,1)")
            if type(a) is not float or type(b) is not float:  # isinstance on an ABC is slow
                exact += isinstance(a, Fraction) + isinstance(b, Fraction)
            store[e] = EdgeWeights(a, b) if i < j else EdgeWeights(b, a)
        if len(store) < len(edges):
            raise UnknownEdge(f"no weights for edges {sorted(edges - set(store))}")
        if 0 < exact < 2 * len(store):
            raise MixedScalarKinds("weight set mixes exact rationals and floats")
        self.graph, self._pairs, self.exact = graph, store, exact > 0

    def pair(self, edge) -> EdgeWeights:
        """The stored pair of an edge given in either orientation."""
        return self._pairs[self.graph.require_edge(*edge)]

    def terms(self, i: int, j: int) -> EdgeWeights:
        """(a_ij, a_ji) read in the orientation (i, j): the terms of the ratio."""
        w = self.pair((i, j))
        return w if i < j else EdgeWeights(w.a_ji, w.a_ij)

    def weight(self, i: int, j: int) -> Scalar:
        """The weight a_ij that agent i places on agent j's value."""
        return self.terms(i, j).a_ij

    def items(self):
        """(edge, pair) in ascending edge order."""
        return [(e, self._pairs[e]) for e in self.graph.sorted_edges]

    def one(self) -> Scalar:
        return Fraction(1) if self.exact else 1.0

    def to_float(self) -> "WeightSet":
        if not self.exact:
            return self
        return WeightSet(self.graph, {e: tuple(map(float, w)) for e, w in self.items()})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.graph == other.graph
            and self._pairs == other._pairs
        )

    def __hash__(self):
        return hash((self.graph, tuple(self.items())))


def local_matrix(ws: WeightSet, edge):
    """Full n-by-n update matrix for one edge, as nested lists.

    The matrix is the identity except for the 2x2 principal block at rows
    and columns i, j, which holds [[1-a_ij, a_ij], [a_ji, 1-a_ji]]. Entries
    are Fractions for exact sets and floats otherwise, so row sums are
    exactly one in exact mode.
    """
    i, j = ws.graph.require_edge(*edge)
    w = ws.pair((i, j))
    one = ws.one()
    zero = one - one
    n = ws.graph.n
    m = [[one if r == c else zero for c in range(n)] for r in range(n)]
    m[i - 1][i - 1] = one - w.a_ij
    m[i - 1][j - 1] = w.a_ij
    m[j - 1][i - 1] = w.a_ji
    m[j - 1][j - 1] = one - w.a_ji
    return m


def ratio(ws: WeightSet, i: int, j: int) -> Scalar:
    """Directed ratio a_ij / a_ji of a weight set; reciprocal under
    orientation swap."""
    num, den = ws.terms(i, j)
    return num / den


def walk_ratio(ws: WeightSet, w) -> Scalar:
    """Product of directed ratios along a walk; 1 for empty or single-node walks.

    Multiplicative over concatenation, and equal to 1 on any walk followed
    by its own inverse.
    """
    nodes = w.nodes if isinstance(w, Walk) else tuple(w)
    value = ws.one()
    for u, v in zip(nodes, nodes[1:]):
        if not ws.graph.has_edge(u, v):
            raise InvalidWalk(f"({u},{v}) is not an edge of the graph")
        value = value * ratio(ws, u, v)
    return value


class TreePotentials:
    """Node potentials over one spanning tree, each computed once, from its parent's.

    q_root = 1 and q_v = q_parent(v) * ratio(parent(v), v) over a weight
    set: the ratios of the root-to-v tree walk, multiplied in
    walk order as walking it would. A potential is filled in when first
    needed, so the whole tree costs n - 1 ratios. Exact sets keep q_v as a
    Fraction with exponent 0; float sets as a ``math.frexp`` mantissa and
    exponent, which cannot overflow.
    """

    def __init__(self, t: SpanningTree, ws: WeightSet):
        self.t, self.ws, self.exact = t, ws, ws.exact
        self._q = {t.root: (Fraction(1), 0) if self.exact else math.frexp(1.0)}

    def _ratio(self, u: int, v: int) -> tuple:
        """(mantissa, exponent) of the ratio u->v. Float terms are split apart
        first, so a ratio past float64 is carried like any other; one that is
        a normal float gets the bits of ``math.frexp(num / den)``."""
        num, den = self.ws.terms(u, v)
        if self.exact:
            return num / den, 0
        (ma, ea), (mb, eb) = math.frexp(num), math.frexp(den)
        m, k = math.frexp(ma / mb)
        return m, ea - eb + k

    def __getitem__(self, v: int) -> tuple:
        """(mantissa, exponent) of q_v."""
        chain, w = [], v
        while w not in self._q:  # climb to the nearest known ancestor
            chain.append(w)
            w = self.t.parent[w]
        for w in reversed(chain):
            u = self.t.parent[w]
            (m, e), (mr, er) = self._q[u], self._ratio(u, w)
            m, k = (m * mr, 0) if self.exact else math.frexp(m * mr)
            self._q[w] = (m, e + er + k)
        return self._q[v]

    def values(self, top: bool = False) -> tuple:
        """Potentials of nodes 1..n; floats scaled by 2**-s, with s = 0, or with
        ``top`` the s that puts the largest in [1, 2). Past float64: inf or 0."""
        q = [self[v] for v in range(1, self.t.n + 1)]
        if self.exact:
            return tuple(m for m, _ in q)
        s = max(e for _, e in q) - 1 if top else 0
        return tuple(math.ldexp(m, e - s) if e - s <= 1024 else math.inf for m, e in q)

    def residuals(self) -> tuple:
        """(failing, margin) over the non-tree edges (i, j), in ascending order.

        Each closes the fundamental cycle i..j-i, whose ratio product is the
        residual R = q_j * ratio(j, i) / q_i; exact sets test R == 1, floats
        |R - 1| <= HOLONOMY_TOL. ``failing`` is the first edge that fails, or
        None; ``margin`` the worst |log R|, 0.0 on a tree.
        """
        failing, margin = None, 0.0
        for i, j in (e for e in self.ws.graph.sorted_edges if e not in self.t.edges):
            (mi, ei), (mj, ej), (mr, er) = self[i], self[j], self._ratio(j, i)
            if self.exact:
                num, den = (mj * mr / mi).as_integer_ratio()
                ok, log_r = num == den, math.log(num) - math.log(den)
            else:
                x, k = mj * mr / mi, ej + er - ei  # R = x * 2**k
                ok = abs(k) < 4 and abs(math.ldexp(x, k) - 1.0) <= HOLONOMY_TOL
                log_r = math.log(x) + k * math.log(2.0)
            margin = max(margin, abs(log_r))
            if failing is None and not ok:
                failing = (i, j)
        return failing, margin


@dataclass(frozen=True)
class HolonomyWitness:
    """A closed walk whose ratio product differs from one."""

    cycle: Walk
    ratio: Scalar


@dataclass(frozen=True)
class HolonomyReport:
    holonomic: bool
    witness: Optional[HolonomyWitness] = None
    margin: float = 0.0  # worst |log R| over the fundamental cycles; 0.0 for a tree
    #: the pass that decided the check, for callers that go on to the potentials
    potentials: Optional[TreePotentials] = field(default=None, compare=False, repr=False)


def check_holonomy(ws: WeightSet, root: int = 1) -> HolonomyReport:
    """Decide whether every cycle has ratio product one, in O(n + m).

    :meth:`TreePotentials.residuals` over the breadth-first tree rooted at
    ``root`` tests the fundamental cycles, which determine the product over
    every cycle: walk products are multiplicative over concatenation and
    cancel on back-and-forth steps. Float weights use |R - 1| <=
    HOLONOMY_TOL. Only the first failing cycle is built, as the witness,
    with its ratio from :func:`walk_ratio`. The report keeps the pass.
    """
    t = spanning_tree(ws.graph, root=root)
    pot = TreePotentials(t, ws)
    failing, margin = pot.residuals()
    if failing is None:
        return HolonomyReport(True, None, margin, pot)
    cycle = fundamental_cycle(t, *failing)
    return HolonomyReport(False, HolonomyWitness(cycle, walk_ratio(ws, cycle)), margin, pot)


def min_weight(ws: WeightSet) -> Scalar:
    """Smallest nonzero entry over all materialized local matrices.

    Equals the minimum of {a, 1-a} over every directed weight. For a graph
    with no edges the only product is the identity, so the floor is 1.
    """
    return min((v for w in ws._pairs.values() for a in w for v in (a, 1 - a)),
               default=ws.one())


def entry_floor(ws: WeightSet) -> Scalar:
    """Lower bound min_weight ** (n - 1) for nonzero entries of any
    schedule product; also the contraction amount in the decay certificate."""
    return min_weight(ws) ** (ws.graph.n - 1)
