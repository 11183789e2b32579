"""Simple connected graphs, walks, spanning trees, and the fundamental cycle basis.

Nodes are integers 1..n. Undirected edges are stored canonically as pairs
(i, j) with i < j; public helpers accept either orientation. Every traversal
visits neighbors in ascending node order, so spanning trees and the cycle
basis are deterministic across runs and platforms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    DisconnectedGraph,
    DuplicateEdge,
    EmptyGraph,
    InvalidNode,
    InvalidWalk,
    SelfLoop,
    UnknownEdge,
)


def normalize_edge(i: int, j: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph on nodes 1..n.

    Instances are immutable after construction and safe to share between
    concurrent tasks. Build through :func:`build_graph`, which validates
    the invariants (no self-loops, no duplicates, connected).
    """

    n: int
    edges: frozenset

    @cached_property
    def sorted_edges(self) -> tuple:
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> dict:
        """Sorted neighbors of each node that has an edge; its size follows
        the edges, not ``n``, which an unchecked file can set to 10**30. In
        ascending edge order, v's neighbors i < v come first, then j > v."""
        adj = {}
        for i, j in self.sorted_edges:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        return {v: tuple(nbrs) for v, nbrs in adj.items()}

    @cached_property
    def parents_from_1(self) -> dict:
        """``bfs_parents`` from node 1: build_graph's BFS, kept for spanning_tree."""
        return bfs_parents(1, self.adjacency)

    def has_edge(self, i: int, j: int) -> bool:
        return normalize_edge(i, j) in self.edges

    def require_edge(self, i: int, j: int) -> tuple[int, int]:
        e = normalize_edge(i, j)
        if e not in self.edges:
            raise UnknownEdge(f"({i},{j}) is not an edge of the graph")
        return e


def build_graph(n: int, edges: Iterable) -> Graph:
    """Validate and build a simple connected graph.

    Args:
        n: node count; nodes are 1..n.
        edges: iterable of (i, j) pairs in either orientation.

    Raises:
        EmptyGraph, InvalidNode, SelfLoop, DuplicateEdge, DisconnectedGraph.
    """
    if n < 1:
        raise EmptyGraph("graph needs at least one node")
    seen = set()
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise InvalidNode(f"edge ({i},{j}) uses a node outside 1..{n}")
        if i == j:
            raise SelfLoop(f"self-loop ({i},{i}) not allowed")
        e = normalize_edge(i, j)
        if e in seen:
            raise DuplicateEdge(f"edge ({e[0]},{e[1]}) given more than once")
        seen.add(e)
    g = Graph(n=n, edges=frozenset(seen))
    reached = g.parents_from_1
    if len(reached) != n:
        missing = next(v for v in range(1, n + 1) if v not in reached)
        raise DisconnectedGraph(f"node {missing} unreachable from node 1")
    return g


def bfs_parents(root: int, adjacency) -> dict:
    """Breadth-first parent pointers from ``root``, in visiting order.

    ``adjacency`` maps a node to its neighbors in the order to visit them; a
    node it leaves out has none. The root maps to None; unreachable nodes
    are absent.
    """
    parent = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


@dataclass(frozen=True)
class Walk:
    """A walk given by its node sequence; closed when first == last."""

    nodes: tuple

    def __str__(self):
        return "→".join(str(v) for v in self.nodes)


@dataclass(eq=False)
class SpanningTree:
    """Rooted spanning tree: parent pointers plus the tree edge subset."""

    root: int
    parent: dict
    edges: frozenset

    @property
    def n(self) -> int:
        return len(self.parent)

    def path_to_root(self, v: int) -> list:
        chain = [v]
        while self.parent[chain[-1]] is not None:
            chain.append(self.parent[chain[-1]])
        return chain

    def path(self, i: int, j: int) -> Walk:
        """Unique tree walk from i to j (through the lowest common ancestor)."""
        up_i = self.path_to_root(i)
        pos = {v: k for k, v in enumerate(up_i)}
        down = [j]
        while down[-1] not in pos:
            down.append(self.parent[down[-1]])
        lca = down.pop()
        return Walk(tuple(up_i[: pos[lca] + 1] + list(reversed(down))))


def spanning_tree(g: Graph, root: int = 1) -> SpanningTree:
    """Breadth-first spanning tree rooted at ``root``.

    Neighbors are visited in ascending index order, so the result is a
    deterministic function of the graph.
    """
    if not (1 <= root <= g.n):
        raise InvalidNode(f"root {root} outside 1..{g.n}")
    parent = g.parents_from_1 if root == 1 else bfs_parents(root, g.adjacency)
    edges = frozenset(normalize_edge(v, p) for v, p in parent.items() if p is not None)
    return SpanningTree(root=root, parent=parent, edges=edges)


def spanning_tree_from_edges(g: Graph, edges: Iterable) -> SpanningTree:
    """Root the given spanning edge set at node 1 via BFS over those edges."""
    treeset = frozenset(g.require_edge(*e) for e in edges)
    parent = bfs_parents(1, Graph(g.n, treeset).adjacency)
    if len(parent) != g.n or len(treeset) != g.n - 1:
        raise DisconnectedGraph("edge set is not a spanning tree")
    return SpanningTree(root=1, parent=parent, edges=treeset)


def spanning_tree_containing(g: Graph, required: Iterable) -> SpanningTree:
    """Grow a spanning tree that contains all ``required`` edges.

    The required edges must be acyclic; remaining graph edges are added in
    ascending order, skipping any that would close a cycle.
    """
    uf = UnionFind(g.n)
    chosen = []
    for e in sorted(normalize_edge(*e) for e in required):
        g.require_edge(*e)
        if not uf.union(*e):
            raise InvalidWalk("required edges contain a cycle")
        chosen.append(e)
    for e in g.sorted_edges:
        if uf.union(*e):
            chosen.append(e)
    return spanning_tree_from_edges(g, chosen)


def fundamental_cycle(t: SpanningTree, i: int, j: int) -> Walk:
    """The tree path i..j closed by the non-tree edge j-i."""
    return Walk(t.path(i, j).nodes + (i,))


def fundamental_cycles(g: Graph, t: SpanningTree) -> list:
    """One closed walk per non-tree edge, in ascending edge order.

    Returns |E| - n + 1 closed walks; together with the multiplicativity of
    walk products over concatenation they determine the product over every
    cycle of the graph.
    """
    return [fundamental_cycle(t, i, j) for i, j in g.sorted_edges if (i, j) not in t.edges]


class UnionFind:
    """Union-find over nodes 1..n with path compression."""

    def __init__(self, n: int):
        self._parent = list(range(n + 1))
        self.components = n

    def find(self, v: int) -> int:
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:
            self._parent[v], v = root, self._parent[v]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[rb] = ra
        self.components -= 1
        return True

