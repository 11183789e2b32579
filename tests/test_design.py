from fractions import Fraction as F

import numpy as np
import pytest

from hologossip import errors
from hologossip.acceptance import (
    random_connected_graph,
    random_rational_box,
    random_rational_simplex,
)
from hologossip.design import (
    box_point,
    design_for,
    distribution_ratios,
    sample_box_point,
    weight_ratios,
    weights_from_ratios,
)
from hologossip.graph import build_graph
from hologossip.limit import consensus_limit
from hologossip.weights import WeightSet, check_holonomy
from conftest import half_weights


def _pair(ws, e):
    w = ws.pair(e)
    return (w.a_ij, w.a_ji)


def test_weight_ratios_worked(balanced):
    # one ratio per edge in ascending order: (1, 2), (1, 3), (2, 3)
    assert weight_ratios(balanced) == (F(2, 3), F(1, 3), F(1, 2))


def test_weight_ratios_standard_gossip_all_ones(triangle):
    y = weight_ratios(half_weights(triangle))
    assert y == (1, 1, 1)


def test_weight_ratios_scale_invariant(triangle, balanced):
    scaled = WeightSet(
        triangle,
        {e: (w.a_ij / 2, w.a_ji / 2) for e, w in balanced.items()},
    )
    assert weight_ratios(scaled) == weight_ratios(balanced)


def test_distribution_ratios_worked(triangle):
    y = distribution_ratios([F(1, 2), F(1, 3), F(1, 6)], triangle)
    assert y == (F(2, 3), F(1, 3), F(1, 2))
    path = build_graph(2, [(1, 2)])
    assert distribution_ratios([F(2, 3), F(1, 3)], path) == (F(1, 2),)


def test_weight_ratios_past_float64_are_exact(triangle):
    # 0.5 / 5e-324 = 2**1073 is past float64; every quotient is then a Fraction
    g = build_graph(2, [(1, 2)])
    ws = WeightSet(g, {(1, 2): (0.5, 5e-324)})
    y = weight_ratios(ws)
    assert y == (2**1073,) and type(y[0]) is F
    back = consensus_limit(weights_from_ratios(g, y, (F(1, 2),)))[1].entries
    assert tuple(map(float, back)) == consensus_limit(ws)[1].entries == (1e-323, 1.0)
    pairs = {(1, 2): (0.5, 5e-324), (1, 3): (0.5, 0.25), (2, 3): (0.25, 0.5)}
    y = weight_ratios(WeightSet(triangle, pairs))
    assert all(type(v) is F for v in y) and y == tuple(F(a) / F(b) for a, b in pairs.values())
    # a quotient inside float64 keeps the float ratios
    y = weight_ratios(WeightSet(g, {(1, 2): (5e-324, 0.5)}))
    assert y == (1e-323,) and type(y[0]) is float


def test_distribution_ratios_uniform(triangle):
    assert distribution_ratios([F(1, 3)] * 3, triangle) == (1, 1, 1)


def test_distribution_ratios_rejects_boundary(triangle):
    with pytest.raises(errors.NonInteriorVector):
        distribution_ratios([F(1, 2), F(1, 2), F(0)], triangle)
    with pytest.raises(errors.NonInteriorVector):
        distribution_ratios([F(1, 2), F(1, 2)], triangle)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(errors.NonInteriorVector):
            distribution_ratios([0.5, 0.5, bad], triangle)


def test_distribution_ratios_past_float64_are_exact(triangle):
    # 0.5 / 5e-324 = 2**1073 is past float64; every quotient is then a Fraction
    p = [5e-324, 0.5, 0.5]
    y = distribution_ratios(p, triangle)
    assert all(type(v) is F for v in y) and y[0] == 2**1073
    # exact ratios and parameters give exact weights with the exact target as limit
    ws = weights_from_ratios(triangle, y, (F(1, 2),) * 3)
    assert consensus_limit(ws)[1].entries == tuple(F(v) / sum(map(F, p)) for v in p)
    ws = weights_from_ratios(triangle, y, (0.5,) * 3)
    assert ws.items() == [((1, 2), (0.5, 5e-324)), ((1, 3), (0.5, 5e-324)), ((2, 3), (0.5, 0.5))]
    with pytest.raises(errors.WeightOutOfRange):
        weights_from_ratios(triangle, y, (0.2,) * 3)


def test_weights_from_ratios_branches(triangle):
    y = distribution_ratios([F(1, 2), F(1, 3), F(1, 6)], triangle)
    x = (F(3, 10), F(3, 5), F(1, 2))  # edges (1, 2), (1, 3), (2, 3)
    ws = weights_from_ratios(triangle, y, x)
    assert _pair(ws, (1, 2)) == (F(1, 5), F(3, 10))  # r <= 1: (r*x, x)
    assert _pair(ws, (2, 3)) == (F(1, 4), F(1, 2))
    assert _pair(ws, (1, 3)) == (F(1, 5), F(3, 5))

    # r > 1 branch: (x, x / r)
    g2 = build_graph(2, [(1, 2)])
    ws2 = weights_from_ratios(g2, (F(3),), (F(3, 5),))
    assert _pair(ws2, (1, 2)) == (F(3, 5), F(1, 5))

    # boundary r = 1 gives the symmetric pair
    ws3 = weights_from_ratios(g2, (F(1),), (F(1, 2),))
    assert _pair(ws3, (1, 2)) == (F(1, 2), F(1, 2))


def test_design_for_worked_triangle(triangle):
    p = [F(1, 2), F(1, 3), F(1, 6)]
    ws = design_for(p, triangle, box_point(triangle, [F(3, 10), F(3, 5), F(1, 2)]))
    assert _pair(ws, (1, 2)) == (F(1, 5), F(3, 10))
    assert _pair(ws, (2, 3)) == (F(1, 4), F(1, 2))
    assert _pair(ws, (1, 3)) == (F(1, 5), F(3, 5))
    assert check_holonomy(ws).holonomic
    assert consensus_limit(ws)[1].entries == tuple(p)


def test_design_uniform_with_half_is_standard_gossip(triangle):
    ws = design_for([F(1, 3)] * 3, triangle, (F(1, 2),) * 3)
    assert all((w.a_ij, w.a_ji) == (F(1, 2), F(1, 2)) for _, w in ws.items())


def test_round_trip_random_exact_and_float():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = 3 + int(rng.integers(0, 6))
        g = random_connected_graph(rng, n, extra=2)
        p = random_rational_simplex(rng, n)
        ws = design_for(p, g, random_rational_box(rng, g))
        assert consensus_limit(ws)[1].entries == tuple(p)
        _, pf = consensus_limit(ws.to_float())
        assert max(abs(a - float(b)) for a, b in zip(pf.as_floats(), p)) <= 1e-12


def test_fiber_property_small(triangle):
    p = [F(1, 2), F(1, 3), F(1, 6)]
    xs = [(F(1, 4),) * 3, (F(2, 3),) * 3, (F(1, 10), F(1, 2), F(9, 10))]
    sets = [design_for(p, triangle, x) for x in xs]
    assert len({tuple(ws.items()) for ws in sets}) == 3
    ys = [weight_ratios(ws) for ws in sets]
    assert ys[0] == ys[1] == ys[2]
    limits = {consensus_limit(ws)[1].entries for ws in sets}
    assert limits == {tuple(p)}


def test_ratios_after_weights_identity_exact():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = 3 + int(rng.integers(0, 4))
        g = random_connected_graph(rng, n, extra=2)
        y = tuple(F(int(rng.integers(1, 13)), int(rng.integers(1, 13))) for _ in g.sorted_edges)
        x = random_rational_box(rng, g)
        assert weight_ratios(weights_from_ratios(g, y, x)) == y


def test_distribution_ratios_injective():
    rng = np.random.default_rng(61)
    g = random_connected_graph(rng, 5, extra=3)
    seen = set()
    for _ in range(20):
        p = tuple(random_rational_simplex(rng, 5))
        if p in seen:
            continue
        seen.add(p)
    ys = [distribution_ratios(list(p), g) for p in seen]
    for a in range(len(ys)):
        for b in range(a + 1, len(ys)):
            assert ys[a] != ys[b]


def test_box_point_validation(triangle):
    assert box_point(triangle, [F(1, 2), 0.25, F(3, 4)]) == (F(1, 2), 0.25, F(3, 4))
    for bad in (F(1), 0.0, float("nan")):
        with pytest.raises(errors.ParameterOutOfRange, match="outside"):
            box_point(triangle, [F(1, 2), bad, F(1, 2)])
    with pytest.raises(errors.ParameterOutOfRange, match="2 parameters for 3 edges"):
        box_point(triangle, [F(1, 2)] * 2)
    with pytest.raises(errors.ParameterOutOfRange):  # weights_from_ratios checks its box
        weights_from_ratios(triangle, (F(1),) * 3, (F(1, 2), F(1), F(1, 2)))


def test_ratio_vector_validation(triangle):
    with pytest.raises(errors.ParameterOutOfRange):
        weights_from_ratios(triangle, (F(-1), F(1), F(1)), (F(1, 2),) * 3)
    with pytest.raises(errors.ParameterOutOfRange):  # one ratio per edge
        weights_from_ratios(triangle, (F(1),), (F(1, 2),) * 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, F(0)])
def test_ratio_vector_rejects_nonfinite_and_nonpositive(triangle, bad):
    with pytest.raises(errors.ParameterOutOfRange):
        weights_from_ratios(triangle, (bad, 1.0, 1.0), (0.5,) * 3)


def test_ratio_vector_keeps_huge_fractions_exact(triangle):
    # past the float64 range: compared with inf exactly, never converted to float
    y = (F(10**400), F(1), F(1, 10**400))
    ws = weights_from_ratios(triangle, y, (F(1, 2),) * 3)
    assert ws.exact and weight_ratios(ws) == y


def test_sample_box_point_seeded(triangle):
    a = sample_box_point(triangle, seed=5)
    b = sample_box_point(triangle, seed=5)
    c = sample_box_point(triangle, seed=6)
    assert a == b
    assert a != c
    assert len(a) == 3 and all(0 < v < 1 for v in a)
    with pytest.raises(errors.ParameterOutOfRange):
        sample_box_point(triangle, seed=-3)
