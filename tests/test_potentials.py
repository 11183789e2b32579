"""The one-pass tree potentials against the walk formulas they replace.

``reference_limit`` and ``reference_check`` are the per-node and per-cycle
walks that ``consensus_limit`` and ``check_holonomy`` used before the pass:
O(n * depth) work, kept here as the oracle. The pass multiplies the same
ratios in the same order, so results must agree to the last bit (compared
through ``repr``, which also pins Fraction against float).
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from hologossip import errors
from hologossip.acceptance import (
    random_connected_graph,
    random_float_weights,
    random_rational_box,
    random_rational_simplex,
    random_rational_weights,
)
from hologossip.design import design_for, sample_box_point
from hologossip.graph import SpanningTree, build_graph, fundamental_cycles, spanning_tree
from hologossip.limit import VECTOR_TOL, consensus_limit, tree_vector
from hologossip.weights import HOLONOMY_TOL, WeightSet, check_holonomy, walk_ratio
from conftest import uniform_weights


def reference_limit(ws, base):
    """Potentials as walk products along each tree path from ``base``."""
    t = spanning_tree(ws.graph, root=base)
    q = tuple(walk_ratio(ws, t.path(base, v).nodes) for v in range(1, ws.graph.n + 1))
    total = sum(q)
    return q, tuple(v / total for v in q)


def reference_check(ws):
    """(holonomic, witness nodes, witness ratio) from one walk per fundamental cycle."""
    for cycle in fundamental_cycles(ws.graph, spanning_tree(ws.graph, root=1)):
        r = walk_ratio(ws, cycle.nodes)
        if not (r == 1 if ws.exact else abs(r - 1.0) <= HOLONOMY_TOL):
            return False, cycle.nodes, r
    return True, None, None


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    return build_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def uniform_path(n, a, b):
    return WeightSet(path_graph(n), {(i, i + 1): (a, b) for i in range(1, n)})


def test_limit_matches_walk_reference_over_every_base():
    rng = np.random.default_rng(101)
    for case in range(24):
        n = 3 + int(rng.integers(0, 12))
        g = random_connected_graph(rng, n, extra=int(rng.integers(0, n)))
        exact = design_for(random_rational_simplex(rng, n), g, random_rational_box(rng, g))
        on_tree = random_float_weights(rng, path_graph(n))
        for ws in (exact, exact.to_float(), on_tree):
            for base in range(1, n + 1):
                q, p = consensus_limit(ws, base)
                assert repr((q, p.entries)) == repr(reference_limit(ws, base))


def test_limit_matches_walk_reference_on_deep_float_paths():
    rng = np.random.default_rng(103)
    for n in (300, 700):
        ws = uniform_weights(rng, path_graph(n), 0.3, 0.7)
        for base in (1, n // 3, n):
            q, p = consensus_limit(ws, base)
            assert repr((q, p.entries)) == repr(reference_limit(ws, base))


def test_check_matches_walk_reference():
    rng = np.random.default_rng(107)
    for case in range(120):
        n = 3 + int(rng.integers(0, 12))
        g = random_connected_graph(rng, n, extra=int(rng.integers(1, n)))
        if case % 3 == 0:
            ws = design_for(random_rational_simplex(rng, n), g, random_rational_box(rng, g))
            ws = ws.to_float() if case % 2 else ws
        else:
            ws = random_rational_weights(rng, g) if case % 2 else random_float_weights(rng, g)
        report = check_holonomy(ws)
        w = report.witness
        got = (report.holonomic, w and w.cycle.nodes, w and w.ratio)
        assert repr(got) == repr(reference_check(ws))


def test_tree_vector_ignores_parent_dict_order():
    rng = np.random.default_rng(109)
    for _ in range(10):
        n = 4 + int(rng.integers(0, 8))
        g = random_connected_graph(rng, n, extra=2)
        ws = random_float_weights(rng, g)
        t = spanning_tree(g, root=int(rng.integers(1, n + 1)))
        items = list(t.parent.items())
        random.Random(n).shuffle(items)
        shuffled = SpanningTree(root=t.root, parent=dict(items), edges=t.edges)
        assert repr(tree_vector(ws, shuffled).entries) == repr(tree_vector(ws, t).entries)


@pytest.mark.parametrize("n", [3, 50, 200, 2000])
@pytest.mark.parametrize("family", ["path", "cycle", "tree_plus_chords"])
def test_float_limit_matches_exact_limit(family, n):
    rng = np.random.default_rng(n)
    if family == "tree_plus_chords":
        g = random_connected_graph(rng, n, extra=max(1, n // 10))
    else:
        g = path_graph(n) if family == "path" else cycle_graph(n)
    exact = design_for(random_rational_simplex(rng, n), g, random_rational_box(rng, g))
    _, p = consensus_limit(exact)
    _, pf = consensus_limit(exact.to_float())
    assert max(abs(a - float(b)) for a, b in zip(pf.entries, p.entries)) <= VECTOR_TOL


def test_limit_work_is_linear_on_long_cycle(monkeypatch):
    n = 2000
    g = cycle_graph(n)
    ws = design_for([1 / n] * n, g, sample_box_point(g, seed=3))
    calls = []
    terms = WeightSet.terms

    def counting_terms(self, i, j):
        calls.append((i, j))
        return terms(self, i, j)

    monkeypatch.setattr(WeightSet, "terms", counting_terms)
    consensus_limit(ws, base=n // 2)
    # one pass from the base: n - 1 tree ratios and one residual, a pair read each
    assert 0 < len(calls) <= len(g.edges)


def test_float_limit_beyond_float64_range():
    up = consensus_limit(uniform_path(1800, 0.4, 0.6))[1].entries
    down = consensus_limit(uniform_path(1800, 0.6, 0.4))[1].entries
    assert min(up) < 1e-300
    assert max(abs(a - b) for a, b in zip(reversed(down), up)) <= VECTOR_TOL
    assert all(abs(a - b) <= 1e-12 * b for a, b in zip(reversed(down), up) if b > 1e-300)


def test_unrepresentable_float_limit_raises():
    with pytest.raises(errors.UnrepresentableLimit):
        consensus_limit(uniform_path(400, 0.1, 0.9))
    # the exact limit exists and its smallest entry is about 1e-381
    small = min(consensus_limit(uniform_path(400, F(1, 10), F(9, 10)))[1].entries)
    assert -382 < math.log10(small.numerator) - math.log10(small.denominator) < -380


def test_margin_is_zero_on_trees_and_balanced_sets(balanced):
    assert check_holonomy(balanced).margin == 0.0
    assert check_holonomy(uniform_path(5, F(1, 10), F(9, 10))).margin == 0.0


def test_margin_is_worst_residual_not_first():
    # star tree from node 1 with ratio-1 edges; residuals 1/2 on (2,3), 8 on (3,4)
    g = build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    half = (F(1, 2), F(1, 2))
    ws = WeightSet(g, {(1, 2): half, (1, 3): half, (1, 4): half, (2, 4): half,
                       (2, 3): (F(2, 5), F(1, 5)), (3, 4): (F(1, 10), F(4, 5))})
    report = check_holonomy(ws)
    assert report.witness.cycle.nodes == (2, 1, 3, 2)
    assert report.witness.ratio == F(1, 2)
    assert report.margin == pytest.approx(math.log(8), rel=1e-15)
    assert check_holonomy(ws.to_float()).margin == pytest.approx(math.log(8), rel=1e-15)


def test_margin_of_huge_exact_residual(triangle):
    tiny = F(1, 10 ** 400)
    ws = WeightSet(triangle, {(1, 2): (F(1, 2), F(1, 2)), (2, 3): (F(1, 2), F(1, 2)),
                              (1, 3): (tiny, F(1, 2))})
    report = check_holonomy(ws)
    assert not report.holonomic
    assert report.margin == pytest.approx(400 * math.log(10) - math.log(2), rel=1e-12)
