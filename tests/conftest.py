from fractions import Fraction

import pytest

from hologossip import WeightSet, build_graph
from hologossip.acceptance import (
    BALANCED_TRIANGLE,
    BALANCED_TRIANGLE_EXACT,
    UNBALANCED_TRIANGLE,
    UNBALANCED_TRIANGLE_EXACT,
)
from hologossip.graph import UnionFind, spanning_tree_from_edges


@pytest.fixture
def triangle():
    return build_graph(3, [(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def balanced(triangle):
    """Exact cycle-balanced triangle; limit [1/2, 1/3, 1/6]."""
    return WeightSet(triangle, BALANCED_TRIANGLE_EXACT)


@pytest.fixture
def balanced_float(triangle):
    return WeightSet(triangle, BALANCED_TRIANGLE)


@pytest.fixture
def unbalanced(triangle):
    """Exact unbalanced triangle; chord ratio 1/2, path ratios 1."""
    return WeightSet(triangle, UNBALANCED_TRIANGLE_EXACT)


@pytest.fixture
def unbalanced_float(triangle):
    return WeightSet(triangle, UNBALANCED_TRIANGLE)


def half_weights(g, half=Fraction(1, 2)):
    """Every weight 1/2: plain pairwise averaging, exact unless ``half`` is a float."""
    return WeightSet(g, {e: (half, half) for e in g.sorted_edges})


def uniform_weights(rng, g, lo, hi):
    """Float weights drawn uniformly from (lo, hi), a_ij then a_ji per edge in
    ascending edge order: ``acceptance.random_float_weights`` on another range."""
    return WeightSet(g, {e: (float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))
                         for e in g.sorted_edges})


def random_spanning_tree(rng, g):
    """Spanning tree grown over a random edge permutation."""
    edges = list(g.sorted_edges)
    uf = UnionFind(g.n)
    chosen = []
    for idx in rng.permutation(len(edges)):
        e = edges[int(idx)]
        if uf.union(*e):
            chosen.append(e)
    return spanning_tree_from_edges(g, chosen)
