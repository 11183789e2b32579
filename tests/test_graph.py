import numpy as np
import pytest

from hologossip import errors
from hologossip.acceptance import random_connected_graph, random_float_weights
from hologossip.engine import is_scrambling
from hologossip.graph import (
    UnionFind,
    build_graph,
    fundamental_cycles,
    spanning_tree,
    spanning_tree_containing,
    spanning_tree_from_edges,
)
from hologossip.weights import local_matrix


def test_build_triangle():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert g.n == 3
    assert g.sorted_edges == ((1, 2), (1, 3), (2, 3))


def test_build_single_edge():
    g = build_graph(2, [(1, 2)])
    assert g.sorted_edges == ((1, 2),)


def test_build_rejects_disconnected():
    with pytest.raises(errors.DisconnectedGraph):
        build_graph(3, [(1, 2)])
    # the node count of a file is unchecked: nothing may be allocated or scanned per node
    with pytest.raises(errors.DisconnectedGraph, match="node 3 unreachable"):
        build_graph(10**30, [(1, 2)])


def test_build_rejects_self_loop():
    with pytest.raises(errors.SelfLoop):
        build_graph(2, [(1, 2), (2, 2)])


def test_build_rejects_duplicate_either_orientation():
    with pytest.raises(errors.DuplicateEdge):
        build_graph(2, [(1, 2), (2, 1)])


def test_build_rejects_empty_and_bad_nodes():
    with pytest.raises(errors.EmptyGraph):
        build_graph(0, [])
    with pytest.raises(errors.InvalidNode):
        build_graph(2, [(1, 3)])


def test_single_node_graph_is_degenerate_but_valid():
    g = build_graph(1, [])
    assert spanning_tree(g, 1).edges == frozenset()
    assert fundamental_cycles(g, spanning_tree(g, 1)) == []


def test_spanning_tree_triangle():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    t = spanning_tree(g, 1)
    assert t.edges == frozenset({(1, 2), (1, 3)})


def test_spanning_tree_path_is_whole_graph():
    g = build_graph(2, [(1, 2)])
    assert spanning_tree(g, 1).edges == frozenset({(1, 2)})


def test_spanning_tree_four_cycle():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    t = spanning_tree(g, 1)
    assert t.edges == frozenset({(1, 2), (1, 4), (2, 3)})


def test_spanning_tree_covers_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = 2 + int(rng.integers(0, 7))
        g = random_connected_graph(rng, n, extra=int(rng.integers(0, 4)))
        for root in (1, n):
            t = spanning_tree(g, root)
            assert len(t.edges) == n - 1
            assert set(t.parent) == set(range(1, n + 1))


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_bfs_tree_puts_no_end_of_a_non_tree_edge_above_the_other(seed):
    # witness trees hang one end of a non-tree edge under the other: were it an
    # ancestor, the moved parent pointer would close a loop
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = 3 + int(rng.integers(0, 38))
        g = random_connected_graph(rng, n, extra=int(rng.integers(1, n)))
        t = spanning_tree(g)
        for i, j in g.edges - t.edges:
            assert i not in t.path_to_root(j) and j not in t.path_to_root(i)


def test_tree_path_endpoints():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    t = spanning_tree(g, 1)
    p = t.path(3, 4)
    assert p.nodes == (3, 2, 1, 4)


def test_fundamental_cycles_triangle():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    t = spanning_tree(g, 1)
    cycles = fundamental_cycles(g, t)
    assert [c.nodes for c in cycles] == [(2, 1, 3, 2)]


def test_fundamental_cycles_tree_graph_empty():
    g = build_graph(4, [(1, 2), (2, 3), (2, 4)])
    assert fundamental_cycles(g, spanning_tree(g, 1)) == []


def test_fundamental_cycles_four_cycle():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    cycles = fundamental_cycles(g, spanning_tree(g, 1))
    assert [c.nodes for c in cycles] == [(3, 2, 1, 4, 3)]


def test_fundamental_cycles_random_count_and_shape():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = 3 + int(rng.integers(0, 6))
        g = random_connected_graph(rng, n, extra=int(rng.integers(1, n)))
        cycles = fundamental_cycles(g, spanning_tree(g, 1))
        assert len(cycles) == len(g.edges) - g.n + 1
        for c in cycles:
            assert c.nodes[0] == c.nodes[-1]
            assert len(set(c.nodes)) >= 3
            assert all(g.has_edge(u, v) for u, v in zip(c.nodes, c.nodes[1:]))


def test_spanning_tree_containing_keeps_required_edges():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    t = spanning_tree_containing(g, {(3, 4), (1, 4)})
    assert {(3, 4), (1, 4)} <= set(t.edges)
    assert len(t.edges) == 3
    with pytest.raises(errors.InvalidWalk):
        spanning_tree_containing(g, {(1, 2), (2, 3), (1, 3)})


@pytest.mark.parametrize("edges", [
    [(1, 2)],  # misses node 3
    [(1, 2), (2, 3), (1, 3)],  # a cycle
    [(1, 2), (3, 4), (1, 4), (1, 3)],  # spans, but one edge too many
    [(2, 3), (3, 4), (2, 4)],  # a cycle away from the root, which node 1 misses
])
def test_spanning_tree_from_edges_rejects_a_non_tree(edges):
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)])
    with pytest.raises(errors.DisconnectedGraph, match="edge set is not a spanning tree"):
        spanning_tree_from_edges(g, edges)
    assert spanning_tree_from_edges(g, [(1, 2), (2, 3), (3, 4)]).parent == {1: None, 2: 1, 3: 2, 4: 3}



def _state(uf):
    return uf.parent, uf.size, uf.components


@pytest.mark.parametrize("seed", range(6))
def test_union_find_undo_takes_back_the_latest_merges(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    calls = [tuple(int(v) for v in rng.integers(1, n + 1, size=2)) for _ in range(2 * n)]
    uf, merges = UnionFind(n), []  # (call index, root it hung)
    for k, (a, b) in enumerate(calls):
        root = uf.union(a, b)
        if root is not None:
            assert uf.union(b, a) is None and uf.union(a, a) is None
            merges.append((k, root))
    assert uf.components == n - len(merges)
    for undone in range(len(merges) + 1):
        kept = merges[len(merges) - undone][0] if undone else len(calls)
        replayed = UnionFind(n)
        for a, b in calls[:kept]:
            replayed.union(a, b)
        assert _state(uf) == _state(replayed)
        if undone < len(merges):
            uf.undo(merges[-1 - undone][1])


def test_neighbor_shared_triangle_product_support(triangle):
    # every two rows of the product share a positive column: it is scrambling
    ws = random_float_weights(np.random.default_rng(0), triangle)
    m = np.eye(3)
    for e in [(1, 3), (2, 3), (1, 2)]:  # A_12 @ A_23 @ A_13
        m = np.array(local_matrix(ws, e), dtype=float) @ m
    assert is_scrambling(m)
