from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologossip import errors
from hologossip.acceptance import (
    random_connected_graph,
    random_rational_box,
    random_rational_simplex,
)
from hologossip.design import design_for
from hologossip.graph import build_graph, spanning_tree
from hologossip.weights import (
    WeightSet,
    check_holonomy,
    entry_floor,
    local_matrix,
    min_weight,
    ratio,
    walk_ratio,
)
from conftest import half_weights

# weights in (0,1) on a denominator-24 grid, never equal to 0 or 1
grid_weight = st.integers(min_value=1, max_value=23).map(lambda k: F(k, 24))


def test_local_matrix_worked_example(balanced_float):
    m = np.array(local_matrix(balanced_float, (1, 2)), dtype=float)
    assert np.array_equal(m, np.array([[0.8, 0.2, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]]))
    assert float(min(v for row in local_matrix(balanced_float, (1, 2)) for v in row if v > 0)) == 0.2


def test_local_matrix_standard_gossip_block(triangle):
    ws = half_weights(triangle)
    m = local_matrix(ws, (2, 3))
    assert m[1][1] == m[1][2] == m[2][1] == m[2][2] == F(1, 2)


def test_local_matrix_orientation_symmetric(balanced):
    assert local_matrix(balanced, (2, 1)) == local_matrix(balanced, (1, 2))


def test_local_matrix_unknown_edge(balanced):
    path = build_graph(3, [(1, 2), (2, 3)])
    ws = WeightSet(path, {(1, 2): (F(1, 3), F(1, 3)), (2, 3): (F(1, 4), F(1, 4))})
    with pytest.raises(errors.UnknownEdge):
        local_matrix(ws, (1, 3))


@settings(max_examples=60, deadline=None)
@given(a=grid_weight, b=grid_weight, c=grid_weight, d=grid_weight)
def test_local_matrix_rows_sum_to_one_exactly(a, b, c, d):
    g = build_graph(3, [(1, 2), (2, 3)])
    ws = WeightSet(g, {(1, 2): (a, b), (2, 3): (c, d)})
    for e in g.sorted_edges:
        m = local_matrix(ws, e)
        for row in m:
            assert sum(row) == 1
            assert all(v >= 0 for v in row)
        assert all(m[k][k] > 0 for k in range(3))


def test_local_matrix_row_sums_float_mode(triangle):
    rng = np.random.default_rng(7)
    for _ in range(20):
        ws = WeightSet(
            triangle,
            {
                e: (float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
                for e in triangle.sorted_edges
            },
        )
        for e in triangle.sorted_edges:
            m = np.array(local_matrix(ws, e), dtype=float)
            assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-15


def test_weight_set_validation(triangle):
    with pytest.raises(errors.WeightOutOfRange):
        WeightSet(triangle, {(1, 2): (F(1), F(1, 2)), (2, 3): (F(1, 2), F(1, 2)), (1, 3): (F(1, 2), F(1, 2))})
    with pytest.raises(errors.MixedScalarKinds):
        WeightSet(triangle, {(1, 2): (0.5, 0.5), (2, 3): (F(1, 2), F(1, 2)), (1, 3): (0.5, 0.5)})
    with pytest.raises(errors.UnknownEdge):
        WeightSet(triangle, {(1, 2): (0.5, 0.5), (2, 3): (0.5, 0.5)})


def test_weight_orientation_flip(triangle):
    ws = WeightSet(
        triangle,
        {(2, 1): (F(3, 10), F(1, 5)), (2, 3): (F(1, 4), F(1, 2)), (1, 3): (F(1, 5), F(3, 5))},
    )
    # key (2,1) means a_21 first; stored canonically
    assert ws.weight(1, 2) == F(1, 5)
    assert ws.weight(2, 1) == F(3, 10)


def test_ratio_worked_examples(balanced):
    assert ratio(balanced, 1, 2) == F(2, 3)
    assert ratio(balanced, 2, 1) == F(3, 2)
    sym = half_weights(balanced.graph)
    assert ratio(sym, 3, 1) == 1


@settings(max_examples=80, deadline=None)
@given(a=grid_weight, b=grid_weight)
def test_ratio_antisymmetry_exact(a, b):
    g = build_graph(2, [(1, 2)])
    ws = WeightSet(g, {(1, 2): (a, b)})
    assert ratio(ws, 1, 2) * ratio(ws, 2, 1) == 1


def test_walk_ratio_worked_examples(balanced):
    # r_12 = 2/3 and r_23 = 1/2, so the walk 1-2-3 multiplies to 1/3
    assert walk_ratio(balanced, [1, 2, 3]) == F(1, 3)
    assert walk_ratio(balanced, [1]) == 1
    assert walk_ratio(balanced, [1, 2, 3, 2, 1]) == 1  # w then w^-1
    with pytest.raises(errors.InvalidWalk):
        path = build_graph(3, [(1, 2), (2, 3)])
        ws = WeightSet(path, {(1, 2): (F(1, 3), F(1, 3)), (2, 3): (F(1, 4), F(1, 4))})
        walk_ratio(ws, [1, 3])


def test_walk_ratio_multiplicative_random():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = 3 + int(rng.integers(0, 5))
        g = random_connected_graph(rng, n, extra=2)
        pairs = {
            e: (F(int(rng.integers(1, 20)), 20), F(int(rng.integers(1, 20)), 20))
            for e in g.sorted_edges
        }
        ws = WeightSet(g, pairs)
        start = int(rng.integers(1, n + 1))
        w1 = _random_walk(rng, g, start, int(rng.integers(0, 6)))
        w2 = _random_walk(rng, g, w1[-1], int(rng.integers(0, 6)))
        assert walk_ratio(ws, w1 + w2[1:]) == walk_ratio(ws, w1) * walk_ratio(ws, w2)


def _random_walk(rng, g, start, length):
    nodes = [start]
    for _ in range(length):
        nbrs = g.adjacency[nodes[-1]]
        nodes.append(nbrs[int(rng.integers(0, len(nbrs)))])
    return nodes


def test_check_holonomy_balanced(balanced, balanced_float):
    assert check_holonomy(balanced).holonomic
    assert check_holonomy(balanced_float).holonomic


def test_check_holonomy_witness(unbalanced):
    report = check_holonomy(unbalanced)
    assert not report.holonomic
    assert report.witness.cycle.nodes == (2, 1, 3, 2)
    assert report.witness.ratio == F(1, 2)


def test_check_holonomy_tree_graph_always_true():
    g = build_graph(4, [(1, 2), (2, 3), (2, 4)])
    rng = np.random.default_rng(3)
    for _ in range(10):
        pairs = {
            e: (F(int(rng.integers(1, 20)), 20), F(int(rng.integers(1, 20)), 20))
            for e in g.sorted_edges
        }
        assert check_holonomy(WeightSet(g, pairs)).holonomic


def test_check_holonomy_float_tolerance(triangle, balanced_float):
    pairs = {e: (w.a_ij, w.a_ji) for e, w in balanced_float.items()}
    nudged = dict(pairs)
    a, b = nudged[(1, 3)]
    nudged[(1, 3)] = (a * (1 + 1e-12), b)
    assert check_holonomy(WeightSet(triangle, nudged)).holonomic
    nudged[(1, 3)] = (a * (1 + 1e-6), b)
    assert not check_holonomy(WeightSet(triangle, nudged)).holonomic


def test_holonomic_implies_closed_walk_ratio_one():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = 3 + int(rng.integers(0, 6))
        g = random_connected_graph(rng, n, extra=int(rng.integers(1, n)))
        ws = design_for(random_rational_simplex(rng, n), g, random_rational_box(rng, g))
        assert check_holonomy(ws).holonomic
        start = int(rng.integers(1, n + 1))
        wk = _random_walk(rng, g, start, int(rng.integers(0, 9)))
        back = spanning_tree(g, root=start).path(wk[-1], start)
        closed = wk + list(back.nodes[1:])
        assert closed[0] == closed[-1]
        assert len(closed) <= 13
        assert walk_ratio(ws, closed) == 1


def test_holonomic_walk_independence():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = 4 + int(rng.integers(0, 4))
        g = random_connected_graph(rng, n, extra=n // 2)
        ws = design_for(random_rational_simplex(rng, n), g, random_rational_box(rng, g))
        a, b = 1, n
        w1 = spanning_tree(g, root=a).path(a, b)
        w2 = _random_walk(rng, g, a, int(rng.integers(1, 7)))
        w2 = w2 + list(spanning_tree(g, root=w2[-1]).path(w2[-1], b).nodes[1:])
        assert walk_ratio(ws, w1.nodes) == walk_ratio(ws, w2)


def test_min_weight_and_floor_worked(balanced):
    assert min_weight(balanced) == F(1, 5)
    assert entry_floor(balanced) == F(1, 25)


def test_min_weight_standard_gossip():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    ws = half_weights(g)
    assert min_weight(ws) == F(1, 2)
    assert entry_floor(ws) == F(1, 8)


def test_entry_floor_two_nodes():
    g = build_graph(2, [(1, 2)])
    ws = WeightSet(g, {(1, 2): (F(1, 3), F(2, 3))})
    assert min_weight(ws) == F(1, 3)
    assert entry_floor(ws) == F(1, 3)
