"""Inverse design: from a target distribution to cycle-balanced weights.

A weight set is summarized by one positive ratio a_ij / a_ji per edge
(i, j), i < j; the opposite orientation reads the reciprocal. Ratios coming
from a positive vector p (entrywise quotients p_j / p_i) are balanced around
every cycle, and that correspondence is one-to-one. Going back from ratios
to weights leaves one degree of freedom per edge, parameterized by a number
in (0, 1); sweeping the parameter sweeps the whole set of weight sets with
the given limit. Ratios and box points are plain tuples with one entry per
edge, in ``Graph.sorted_edges`` order.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import NonInteriorVector, ParameterOutOfRange, WeightOutOfRange
from .graph import Graph
from .weights import WeightSet, is_exact, ratio

#: Default margin keeping sampled box parameters away from 0 and 1.
BOX_MARGIN = 1e-6


def weight_ratios(ws: WeightSet) -> tuple:
    """Ratios a_ij / a_ji of a weight set, one per edge (i, j) in
    ``sorted_edges`` order.

    Invariant under scaling both weights of an edge by a common factor. When
    a float quotient is past float64, every quotient is taken exactly.
    """
    ratios = tuple(ratio(ws, *e) for e in ws.graph.sorted_edges)
    if math.inf in ratios:
        ratios = tuple(Fraction(a) / Fraction(b) for _, (a, b) in ws.items())
    return ratios


def distribution_ratios(p, g: Graph) -> tuple:
    """Quotients p_j / p_i of the sequence ``p``, one per edge (i, j) of ``g``
    in ``sorted_edges`` order.

    The result is balanced around every cycle. When a float quotient is past
    float64, every quotient is taken exactly, as a Fraction of two floats.
    Raises NonInteriorVector if any entry is not positive and finite.
    """
    if len(p) != g.n:
        raise NonInteriorVector(f"vector has {len(p)} entries for {g.n} nodes")
    if any(not 0 < v < math.inf for v in p):
        raise NonInteriorVector("target vector must be strictly positive and finite")
    ratios = tuple(p[j - 1] / p[i - 1] for i, j in g.sorted_edges)
    if math.inf in ratios:
        ratios = tuple(Fraction(p[j - 1]) / Fraction(p[i - 1])
                       for i, j in g.sorted_edges)
    return ratios


def box_point(g: Graph, values) -> tuple:
    """One parameter in (0, 1) per edge of ``g``, in ``sorted_edges`` order."""
    values = tuple(values)
    if len(values) != len(g.sorted_edges):
        raise ParameterOutOfRange(f"{len(values)} parameters for {len(g.sorted_edges)} edges")
    for e, x in zip(g.sorted_edges, values):
        if not 0 < x < 1:  # NaN fails too
            raise ParameterOutOfRange(f"box parameter {x} on edge {e} outside (0,1)")
    return values


def sample_box_point(g: Graph, seed: int) -> tuple:
    """Seeded uniform draw in (BOX_MARGIN, 1 - BOX_MARGIN) per edge (PCG64 stream)."""
    import numpy as np  # only here: the rest of design is exact or plain-float arithmetic
    if seed < 0:
        raise ParameterOutOfRange(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.uniform(BOX_MARGIN, 1.0 - BOX_MARGIN, size=len(g.sorted_edges))
    return box_point(g, [float(v) for v in draws])


def weights_from_ratios(g: Graph, y, x) -> WeightSet:
    """The weight set on the ratio fiber of ``y`` selected by the box point ``x``.

    ``y`` and ``x`` hold one ratio and one parameter per edge of ``g``, in
    ``sorted_edges`` order. Per edge with ratio r and parameter t the pair
    is (r*t, t) when r <= 1 and (t, t/r) otherwise; either way both weights
    stay inside (0, 1) and their quotient is exactly r. Distinct box points
    select distinct weight sets. The weights are exact when every ratio and
    parameter is. Float mode takes t/r of a ratio past float64 in one
    rounding, and raises WeightOutOfRange when a weight underflows to zero.
    """
    x = box_point(g, x)
    if len(y) != len(x):
        raise ParameterOutOfRange(f"{len(y)} ratios for {len(x)} edges")
    exact = all(map(is_exact, y)) and all(map(is_exact, x))
    pairs = {}
    for e, r, t in zip(g.sorted_edges, y, x):
        if not (r > 0 if is_exact(r) else 0 < r < math.inf):  # a float test that NaN fails
            raise ParameterOutOfRange(f"ratio {r} on edge {e} must be positive and finite")
        if exact:
            pairs[e] = (r * t, t) if r <= 1 else (t, t / r)
        elif r > sys.float_info.max:
            pairs[e] = (float(t), float(Fraction(t) / r))
        else:
            r, t = float(r), float(t)
            pairs[e] = (r * t, t) if r <= 1 else (t, t / r)
        if 0 in pairs[e]:
            raise WeightOutOfRange(f"edge {e} needs a weight below the float64 range")
    return WeightSet(g, pairs)


def design_for(p, g: Graph, x) -> WeightSet:
    """Weights whose gossip limit is ``p``, selected inside the fiber by the
    box point ``x``.

    The result is cycle-balanced by construction and
    :func:`hologossip.limit.consensus_limit` recovers ``p`` from it.
    """
    return weights_from_ratios(g, distribution_ratios(p, g), x)
