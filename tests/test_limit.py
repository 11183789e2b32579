from fractions import Fraction as F

import numpy as np
import pytest

from hologossip import errors
from hologossip.acceptance import (
    random_connected_graph,
    random_rational_box,
    random_rational_simplex,
    random_rational_weights,
)
from hologossip.design import design_for
from hologossip.graph import build_graph, spanning_tree_from_edges
from hologossip.limit import (
    ProbabilityVector,
    consensus_limit,
    nonholonomy_witness_trees,
    tree_vector,
    verify_left_eigenvector,
)
from hologossip.weights import WeightSet, check_holonomy
from conftest import half_weights, random_spanning_tree


def test_consensus_limit_worked_example(balanced):
    q, p = consensus_limit(balanced)
    assert q == (F(1), F(2, 3), F(1, 3))
    assert p.entries == (F(1, 2), F(1, 3), F(1, 6))


def test_consensus_limit_other_base_scales_potential(balanced):
    q, p = consensus_limit(balanced, base=2)
    assert q == (F(3, 2), F(1), F(1, 2))
    assert p.entries == (F(1, 2), F(1, 3), F(1, 6))


def test_standard_gossip_limit_is_uniform():
    for edges in ([(1, 2), (2, 3), (1, 3)], [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]):
        g = build_graph(max(max(e) for e in edges), edges)
        _, p = consensus_limit(half_weights(g))
        assert p.entries == tuple(F(1, g.n) for _ in range(g.n))


def test_consensus_limit_rejects_unbalanced(unbalanced):
    with pytest.raises(errors.NotHolonomic) as err:
        consensus_limit(unbalanced)
    assert err.value.witness.ratio == F(1, 2)


def test_base_invariance_random():
    rng = np.random.default_rng(41)
    for _ in range(15):
        n = 3 + int(rng.integers(0, 6))
        g = random_connected_graph(rng, n, extra=2)
        ws = design_for(random_rational_simplex(rng, n), g, random_rational_box(rng, g))
        vectors = {consensus_limit(ws, base=b)[1].entries for b in range(1, n + 1)}
        assert len(vectors) == 1


def test_tree_vector_worked_examples(unbalanced, triangle):
    t_path = spanning_tree_from_edges(triangle, [(1, 2), (2, 3)])
    t_chord = spanning_tree_from_edges(triangle, [(1, 2), (1, 3)])
    assert tree_vector(unbalanced, t_path).entries == (F(1, 3), F(1, 3), F(1, 3))
    assert tree_vector(unbalanced, t_chord).entries == (F(2, 5), F(2, 5), F(1, 5))


def test_tree_vector_agrees_with_limit_when_balanced():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = 3 + int(rng.integers(0, 6))
        g = random_connected_graph(rng, n, extra=int(rng.integers(1, n)))
        ws = design_for(random_rational_simplex(rng, n), g, random_rational_box(rng, g))
        _, p = consensus_limit(ws)
        for _ in range(10):
            t = random_spanning_tree(rng, g)
            assert tree_vector(ws, t).entries == p.entries


def _verified(ws, *entries) -> bool:
    return verify_left_eigenvector(ws, ProbabilityVector(entries))


def test_verify_left_eigenvector_worked(balanced):
    assert _verified(balanced, F(1, 2), F(1, 3), F(1, 6))
    assert not _verified(balanced, F(1, 3), F(1, 3), F(1, 3))
    tiny = F(1, 10 ** 400)  # below every float: exact vectors are checked exactly
    assert not _verified(balanced, F(1, 2) + tiny, F(1, 3), F(1, 6) - tiny)


def test_verify_left_eigenvector_two_node():
    g = build_graph(2, [(1, 2)])
    ws = WeightSet(g, {(1, 2): (F(1, 3), F(2, 3))})
    assert _verified(ws, F(2, 3), F(1, 3))
    assert not _verified(ws, F(1, 2), F(1, 2))


def test_verify_left_eigenvector_rejects_wrong_length(balanced):
    with pytest.raises(errors.NonInteriorVector):
        _verified(balanced, F(1, 2), F(1, 2))


def test_verify_left_eigenvector_float_tolerance(balanced_float):
    assert _verified(balanced_float, 0.5, 1 / 3, 1 / 6)
    # moving d from node 3 to node 1 gives edge deviations 0.2d, 0 and 0.8d
    assert _verified(balanced_float, 0.5 + 1e-13, 1 / 3, 1 / 6 - 1e-13)
    assert not _verified(balanced_float, 0.5 + 1e-11, 1 / 3, 1 / 6 - 1e-11)
    assert not _verified(balanced_float, 0.45, 0.35, 0.20)


def test_witness_trees_worked(unbalanced):
    wt = nonholonomy_witness_trees(unbalanced)
    assert wt.path_tree.edges == frozenset({(1, 2), (1, 3)})
    assert wt.chord_tree.edges == frozenset({(1, 2), (2, 3)})
    assert wt.path_vector.entries == (F(2, 5), F(2, 5), F(1, 5))
    assert wt.chord_vector.entries == (F(1, 3), F(1, 3), F(1, 3))


def test_witness_trees_none_when_balanced(balanced):
    assert nonholonomy_witness_trees(balanced) is None


def test_witness_trees_none_on_tree_graph():
    g = build_graph(3, [(1, 2), (2, 3)])
    ws = WeightSet(g, {(1, 2): (F(1, 5), F(4, 5)), (2, 3): (F(2, 5), F(1, 5))})
    assert nonholonomy_witness_trees(ws) is None


def test_witness_trees_random_validity():
    rng = np.random.default_rng(47)
    found = 0
    while found < 15:
        n = 3 + int(rng.integers(0, 6))
        g = random_connected_graph(rng, n, extra=max(1, n // 2))
        ws = random_rational_weights(rng, g)
        if check_holonomy(ws).holonomic:
            continue
        found += 1
        wt = nonholonomy_witness_trees(ws)
        assert wt.path_tree.edges != wt.chord_tree.edges
        gap = max(
            abs(a - b) for a, b in zip(wt.path_vector.entries, wt.chord_vector.entries)
        )
        assert gap > F(1, 10 ** 9)
        # no candidate passes everywhere: the disagreement shows up off-tree
        assert not verify_left_eigenvector(ws, wt.path_vector)
        assert not verify_left_eigenvector(ws, wt.chord_vector)


def test_probability_vector_validation():
    with pytest.raises(errors.NotUnitSum):
        ProbabilityVector((F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(errors.NonInteriorVector):
        ProbabilityVector((F(3, 2), F(-1, 2)))
    with pytest.raises(errors.NonInteriorVector):
        ProbabilityVector((float("nan"), 0.5))
    with pytest.raises(errors.NonInteriorVector):
        ProbabilityVector((0.5, 0.5, 0.0 * float("inf")))
    with pytest.raises(errors.NonInteriorVector):
        ProbabilityVector(())
    p = ProbabilityVector((0.25, 0.75))
    assert p.as_floats() == (0.25, 0.75)
    assert not p.exact
