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
    BoxPoint,
    RatioVector,
    design_for,
    distribution_from_ratios,
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
    y = weight_ratios(balanced)
    assert y.get(1, 2) == F(2, 3) and y.get(2, 1) == F(3, 2)
    assert y.get(2, 3) == F(1, 2) and y.get(3, 2) == F(2)
    assert y.get(1, 3) == F(1, 3) and y.get(3, 1) == F(3)


def test_weight_ratios_standard_gossip_all_ones(triangle):
    y = weight_ratios(half_weights(triangle))
    assert all(v == 1 for _, v in y.items())


def test_weight_ratios_scale_invariant(triangle, balanced):
    scaled = WeightSet(
        triangle,
        {e: (w.a_ij / 2, w.a_ji / 2) for e, w in balanced.items()},
    )
    assert weight_ratios(scaled) == weight_ratios(balanced)


def test_distribution_ratios_worked(triangle):
    y = distribution_ratios([F(1, 2), F(1, 3), F(1, 6)], triangle)
    assert y.get(1, 2) == F(2, 3)
    assert y.get(2, 3) == F(1, 2)
    assert y.get(1, 3) == F(1, 3)
    path = build_graph(2, [(1, 2)])
    assert distribution_ratios([F(2, 3), F(1, 3)], path).get(1, 2) == F(1, 2)


def test_weight_ratios_past_float64_are_exact(triangle):
    # 0.5 / 5e-324 = 2**1073 is past float64; every quotient is then a Fraction
    g = build_graph(2, [(1, 2)])
    ws = WeightSet(g, {(1, 2): (0.5, 5e-324)})
    y = weight_ratios(ws)
    assert y.exact and y.get(1, 2) == 2**1073 and y.get(2, 1) == F(1, 2**1073)
    limit = consensus_limit(ws)[1].entries
    assert tuple(map(float, distribution_from_ratios(y).entries)) == limit == (1e-323, 1.0)
    pairs = {(1, 2): (0.5, 5e-324), (2, 3): (0.25, 0.5), (1, 3): (0.5, 0.25)}
    y = weight_ratios(WeightSet(triangle, pairs))
    assert y.exact and dict(y.items()) == {e: F(a) / F(b) for e, (a, b) in pairs.items()}
    # a quotient inside float64 keeps the float ratios
    y = weight_ratios(WeightSet(g, {(1, 2): (5e-324, 0.5)}))
    assert not y.exact and y.get(1, 2) == 1e-323


def test_distribution_ratios_uniform(triangle):
    y = distribution_ratios([F(1, 3)] * 3, triangle)
    assert all(v == 1 for _, v in y.items())


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
    assert y.exact and y.get(1, 2) == 2**1073
    assert distribution_from_ratios(y).entries == tuple(F(v) / sum(map(F, p)) for v in p)
    ws = weights_from_ratios(y, BoxPoint.uniform(triangle, 0.5))
    assert ws.items() == [((1, 2), (0.5, 5e-324)), ((1, 3), (0.5, 5e-324)), ((2, 3), (0.5, 0.5))]
    with pytest.raises(errors.WeightOutOfRange):
        weights_from_ratios(y, BoxPoint.uniform(triangle, 0.2))


def test_distribution_from_ratios_round_trip(triangle):
    p = [F(1, 2), F(1, 3), F(1, 6)]
    back = distribution_from_ratios(distribution_ratios(p, triangle))
    assert back.entries == tuple(p)


def test_distribution_from_ratios_all_ones(triangle):
    y = RatioVector(triangle, {e: F(1) for e in triangle.sorted_edges})
    assert distribution_from_ratios(y).entries == (F(1, 3),) * 3


def test_distribution_from_ratios_rejects_unbalanced(triangle):
    y = RatioVector(triangle, {(1, 2): F(1), (2, 3): F(1), (1, 3): F(2)})
    with pytest.raises(errors.NotBalanced):
        distribution_from_ratios(y)


def test_weights_from_ratios_branches(triangle):
    y = distribution_ratios([F(1, 2), F(1, 3), F(1, 6)], triangle)
    x = BoxPoint(triangle, {(1, 2): F(3, 10), (2, 3): F(1, 2), (1, 3): F(3, 5)})
    ws = weights_from_ratios(y, x)
    assert _pair(ws, (1, 2)) == (F(1, 5), F(3, 10))  # r <= 1: (r*x, x)
    assert _pair(ws, (2, 3)) == (F(1, 4), F(1, 2))
    assert _pair(ws, (1, 3)) == (F(1, 5), F(3, 5))

    # r > 1 branch: (x, x / r)
    g2 = build_graph(2, [(1, 2)])
    y2 = RatioVector(g2, {(1, 2): F(3)})
    ws2 = weights_from_ratios(y2, BoxPoint(g2, {(1, 2): F(3, 5)}))
    assert _pair(ws2, (1, 2)) == (F(3, 5), F(1, 5))

    # boundary r = 1 gives the symmetric pair
    y3 = RatioVector(g2, {(1, 2): F(1)})
    ws3 = weights_from_ratios(y3, BoxPoint(g2, {(1, 2): F(1, 2)}))
    assert _pair(ws3, (1, 2)) == (F(1, 2), F(1, 2))


def test_design_for_worked_triangle(triangle):
    p = [F(1, 2), F(1, 3), F(1, 6)]
    x = BoxPoint(triangle, {(1, 2): F(3, 10), (2, 3): F(1, 2), (1, 3): F(3, 5)})
    ws = design_for(p, triangle, x)
    assert _pair(ws, (1, 2)) == (F(1, 5), F(3, 10))
    assert _pair(ws, (2, 3)) == (F(1, 4), F(1, 2))
    assert _pair(ws, (1, 3)) == (F(1, 5), F(3, 5))
    assert check_holonomy(ws).holonomic
    assert consensus_limit(ws)[1].entries == tuple(p)


def test_design_uniform_with_half_is_standard_gossip(triangle):
    ws = design_for([F(1, 3)] * 3, triangle, BoxPoint.uniform(triangle, F(1, 2)))
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
    xs = [
        BoxPoint.uniform(triangle, F(1, 4)),
        BoxPoint.uniform(triangle, F(2, 3)),
        BoxPoint(triangle, {(1, 2): F(1, 10), (2, 3): F(9, 10), (1, 3): F(1, 2)}),
    ]
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
        y = RatioVector(
            g,
            {
                e: F(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
                for e in g.sorted_edges
            },
        )
        x = random_rational_box(rng, g)
        assert weight_ratios(weights_from_ratios(y, x)) == y


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
    with pytest.raises(errors.ParameterOutOfRange):
        BoxPoint.uniform(triangle, F(1))
    with pytest.raises(errors.ParameterOutOfRange):
        BoxPoint.from_sequence(triangle, [F(1, 2)] * 2)
    with pytest.raises(errors.UnknownEdge):
        BoxPoint(triangle, {(1, 2): F(1, 2)})
    with pytest.raises(errors.UnknownEdge):  # an edge given in both orientations
        BoxPoint(triangle, {(1, 2): F(1, 2), (2, 3): F(1, 2), (1, 3): F(1, 2), (2, 1): F(1, 3)})


def test_ratio_vector_validation(triangle):
    with pytest.raises(errors.ParameterOutOfRange):
        RatioVector(triangle, {(1, 2): F(-1), (2, 3): F(1), (1, 3): F(1)})
    with pytest.raises(errors.UnknownEdge):
        RatioVector(triangle, {(1, 2): F(1)})
    with pytest.raises(errors.UnknownEdge):  # even with consistent reciprocal values
        RatioVector(triangle, {(1, 2): F(2), (2, 3): F(1), (1, 3): F(1), (2, 1): F(1, 2)})
    # reciprocal orientations are accepted and canonicalized
    y = RatioVector(triangle, {(2, 1): F(3, 2), (2, 3): F(1, 2), (1, 3): F(1, 3)})
    assert y.get(1, 2) == F(2, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, F(0)])
def test_ratio_vector_rejects_nonfinite_and_nonpositive(triangle, bad):
    with pytest.raises(errors.ParameterOutOfRange):
        RatioVector(triangle, {(1, 2): bad, (2, 3): 1.0, (1, 3): 1.0})


def test_ratio_vector_keeps_huge_fractions_exact(triangle):
    # past the float64 range: compared with inf exactly, never converted to float
    y = RatioVector(triangle, {(1, 2): F(10**400), (2, 3): F(1, 10**400), (1, 3): F(1)})
    assert y.exact and y.get(2, 1) == F(1, 10**400) and y.get(2, 3) == F(1, 10**400)


def test_exact_ratio_vector_get_returns_fractions(triangle):
    y = RatioVector(triangle, {(1, 2): 2, (3, 2): 4, (1, 3): F(1, 2)})
    assert y.exact
    got = [y.get(i, j) for i, j in triangle.sorted_edges] + [
        y.get(j, i) for i, j in triangle.sorted_edges]
    assert all(type(v) is F for v in got)
    assert got == [F(2), F(1, 2), F(1, 4), F(1, 2), F(2), F(4)]


def test_sample_box_point_seeded(triangle):
    a = sample_box_point(triangle, seed=5)
    b = sample_box_point(triangle, seed=5)
    c = sample_box_point(triangle, seed=6)
    assert a == b
    assert a != c
    assert all(0 < v < 1 for _, v in a.items())
    with pytest.raises(errors.ParameterOutOfRange):
        sample_box_point(triangle, seed=-3)
