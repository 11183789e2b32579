"""Simulation of weighted gossip schedules.

A schedule is a finite sequence of edges: explicit, periodic, or drawn
uniformly at random from the edge set with a seeded generator. Stepping an
edge (i, j) left-multiplies the running product by that edge's local
matrix, which only mixes rows i and j: an O(n) update. On small graphs
(PLAIN_ROWS_BELOW, PLAIN_BLOCK_BELOW), where a numpy call costs more than
the arithmetic, it runs on Python float lists, through a loop generated for
each n on first use with the rows unpacked into locals (_row_kernel). Steps
on disjoint rows commute, so on mid-sized graphs (LEVEL_ROWS_BELOW) the
steps between two checkpoints go by dependency levels, each level's rows in
one gather-scale-scatter (_step_levels). The state from x0 is P @ x0. The
smallest positive entry of P is the min of per-row floors (ProductTracker);
every result is bit-identical.

A run takes the O(n^2) seminorm of the product only where its value is
read: at the recorded trace steps and the last step, the checkpoints of
its stopping rule; a caller that reads no trace (RunOptions.trace) needs
only every SPARSE_RECORD_EVERY-th step and the last. The run is one loop
over segments, each ending at the next checkpoint. Where every step is one,
each block_length(n) steps share one gather of the row versions they make,
reduced over rows, and one pass over the rows they leave alone
(ProductTracker.block). A sparse segment that may hold a step below
the tolerance is taken again the same way (see run and RISE), so the result
is bit-identical to testing the rule after every step.

Diagnostics follow the standard contraction toolkit for products of
stochastic matrices: the row-spread semi-norm (max column spread, zero
exactly on rank-one matrices with equal rows), the ergodicity coefficient
(half the max L1 row distance, a contraction factor for the semi-norm),
and the scrambling test (no pair of rows with disjoint support). When a
periodic schedule's smallest spanning window m is known, the run keeps a
ledger checking the geometric decay certificate

    seminorm(P(t:0)) <= (1 - eps) ** (t / (m * floor(n/2)) - 1)

with eps = min_weight ** (n - 1).

Reproducibility: random schedules draw edge indices with numpy's PCG64
generator seeded from the schedule's 64-bit seed; for a fixed numpy
version the draw is bit-identical across platforms. Indices are drawn in
fixed chunks of DRAW_CHUNK as the run consumes them, which gives the same
stream as one draw of the whole step count (tested), so schedule memory
does not depend on the step count. The engine always simulates in float64
regardless of the weight kind.

numpy is imported by the functions that compute with it: the closed-form
commands import this module, never simulate, and so start without numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .errors import GraphMismatch, InvalidSchedule, NotStochastic, UnknownEdge
from .graph import Graph, UnionFind
from .weights import EdgeWeights, WeightSet, entry_floor

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-10

#: Floor applied to the decay certificate when checking it against the
#: computed seminorm. Rows of a float64 product cannot differ by less than
#: a few ulps, while the certificate keeps shrinking geometrically, so past
#: this resolution the raw comparison would only measure rounding noise.
LEDGER_RESOLUTION = 1e-15

#: Random schedules draw this many edge indices at a time.
DRAW_CHUNK = 4096

#: Trace recording policy: every step up to this bound, ...
DENSE_RECORD_LIMIT = 1000
#: ... then every this many steps.
SPARSE_RECORD_EVERY = 100

#: Below this many nodes, ProductTracker.advance steps rows as Python float
#: lists: a numpy call costs more than the O(n) arithmetic. On 100-step
#: segments, the generated kernel broke even with dependency levels at n =
#: 25-27 on the cycle and 29-31 on a random tree (levels x0.60, x0.83 at 32).
PLAIN_ROWS_BELOW = 32
#: ... and below this many, ProductTracker.block, whose gather of K * n * n floats
#: stays within 4096 here. On 1,000 random edges in process, float lists read x0.78
#: of numpy rows at n = 19 and x0.91-0.94 at 30, but no workload runs at 20-30.
PLAIN_BLOCK_BELOW = 20
#: From PLAIN_ROWS_BELOW to below this many, advance goes by dependency levels
#: (_step_levels), whose 2k x n temporaries outgrow the cache. Against one step at a
#: time on 100-step segments, the cycle read x0.53 at n = 400, x0.94 at 500
#: and x1.09 at 600; a random tree x0.68 at 500 and x0.83 at 600.
LEVEL_ROWS_BELOW = 500

#: Largest rise of the computed seminorm that one step can cause through
#: rounding, with u = 2**-53 the unit roundoff of float64. The exact update
#: of rows i and j is a convex combination, so no column's max rises and no
#: min falls. Each computed entry, fl(fl(fl(1 - a) x) + fl(a y)), is within
#: three roundings of the exact one, so it exceeds a column max M by at most
#: 3uM and falls below a column min m by at most 3um, to first order. The
#: seminorm's subtractions max - min, at this step and the one before, add
#: one rounding each, at most u(M - m) apiece. Entries lie in [0, 1], so the
#: rise is at most 5uM + um <= 6u; the bound takes 8u, which also absorbs
#: the second-order terms and the rounding of ``tol + k * RISE``.
RISE = 8 * 2.0 ** -53


# -- schedules ----------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Finite edge sequence: ``edges`` repeated ``repetitions`` times (once when
    explicit), or seeded draws."""

    graph: Graph
    kind: str  # "explicit" | "periodic" | "random"
    edges: tuple = ()
    repetitions: int = 1
    seed: Optional[int] = None
    steps: int = 0

    @classmethod
    def explicit(cls, graph: Graph, edges) -> "Schedule":
        canon = tuple(graph.require_edge(*e) for e in edges)
        return cls(graph=graph, kind="explicit", edges=canon)

    @classmethod
    def periodic(cls, graph: Graph, period, repetitions: int) -> "Schedule":
        canon = tuple(graph.require_edge(*e) for e in period)
        if not canon:
            raise InvalidSchedule("period must be nonempty")
        if repetitions < 1:
            raise InvalidSchedule("repetitions must be >= 1")
        return cls(graph=graph, kind="periodic", edges=canon, repetitions=repetitions)

    @classmethod
    def random(cls, graph: Graph, seed: int, steps: int) -> "Schedule":
        if seed is None:
            raise InvalidSchedule("random schedules need an explicit seed")
        if seed < 0:
            raise InvalidSchedule(f"seed must be >= 0, got {seed}")
        if steps < 1:
            raise InvalidSchedule(f"steps must be >= 1, got {steps}")
        if not graph.edges:
            raise UnknownEdge("graph has no edges to draw from")
        return cls(graph=graph, kind="random", seed=int(seed), steps=int(steps))

    def __len__(self):
        if self.kind == "random":
            return self.steps
        return len(self.edges) * self.repetitions

    def edge_list(self) -> Iterator[tuple]:
        """Yield the edge sequence in order; random edges are drawn DRAW_CHUNK at a time."""
        if self.kind != "random":
            for _ in range(self.repetitions):
                yield from self.edges
        else:
            import numpy as np
            rng = np.random.Generator(np.random.PCG64(self.seed))
            order = self.graph.sorted_edges
            for start in range(0, self.steps, DRAW_CHUNK):
                size = min(DRAW_CHUNK, self.steps - start)
                for k in rng.integers(0, len(order), size=size).tolist():
                    yield order[k]


@dataclass(frozen=True)
class ScheduleClass:
    """Spanning classification; random schedules are spanning with probability one."""

    spanning: bool
    m_spanning: Optional[int] = None


def spanning_prefix(n: int, edges) -> Optional[int]:
    """Length of the shortest prefix of ``edges`` that connects all n nodes,
    or None when the whole sequence does not (incremental union-find)."""
    uf = UnionFind(n)
    for k, e in enumerate(edges, 1):
        uf.union(*e)
        if uf.components == 1:
            return k
    return 0 if uf.components == 1 else None


class _EdgeWindow:
    """Connectivity of a window of edges that grows at its newest end and
    shrinks at its oldest. A union-find by size and without path compression
    can undo its latest union; the stack keeps the window's edges in the
    order their unions were made, and ``pop`` turns it into a queue (the
    queue-undo trick): an amortized O(log L) unions undone and redone per
    edge of a window over L edges."""

    def __init__(self, n: int):
        self.parent, self.size, self.components = list(range(n + 1)), [1] * (n + 1), n
        self.stack, self.fronts = [], 0  # (edge, among the oldest, root it hung or None)

    def _root(self, v: int) -> int:
        while self.parent[v] != v:
            v = self.parent[v]
        return v

    def push(self, edge, front: bool = False) -> None:
        """Add ``edge`` as the newest, or, redone by ``pop``, as one of the oldest."""
        a, b = self._root(edge[0]), self._root(edge[1])
        if self.size[a] < self.size[b]:
            a, b = b, a
        if a != b:
            self.parent[b] = a
            self.size[a] += self.size[b]
            self.components -= 1
        self.stack.append((edge, front, b if a != b else None))

    def _undo(self) -> tuple:
        edge, front, b = self.stack.pop()
        if b is not None:
            a, self.parent[b] = self.parent[b], b
            self.size[a] -= self.size[b]
            self.components += 1
        return edge, front

    def pop(self) -> None:
        """Drop the oldest edge of the window."""
        if not self.fronts:  # undo every edge, then redo them newest first: oldest on top
            newest_first = [self._undo()[0] for _ in range(len(self.stack))]
            self.fronts = len(newest_first)
            for e in newest_first:
                self.push(e, True)
        elif not self.stack[-1][1]:  # undo newer edges up to as many fronts; redo fronts last
            backs, fronts = [], []
            while not backs or len(fronts) < min(len(backs), self.fronts):
                edge, front = self._undo()
                (fronts if front else backs).append(edge)
            for e in reversed(backs):
                self.push(e)
            for e in reversed(fronts):
                self.push(e, True)
        self._undo()
        self.fronts -= 1


def classify_schedule(s: Schedule) -> ScheduleClass:
    """Spanning test plus, for periodic schedules, the smallest window m
    such that every length-m window of the repeated period is spanning.

    A window of the repetition is a prefix of some rotation of the period,
    so m is the largest, over the rotations o, shortest spanning prefix f(o).
    Its end o + f(o) never decreases as o grows, so one two-pointer pass over
    the doubled period finds every f(o), dropping the oldest edge of the
    window as o moves on: O(L log L) unions for a period of length L. A
    spanning period has every rotation spanning within L edges. Random
    schedules are spanning with probability one and have no defined m.
    """
    n = s.graph.n
    if s.kind == "explicit":
        return ScheduleClass(spanning=spanning_prefix(n, s.edges) is not None)
    if s.kind == "random":
        return ScheduleClass(spanning=True)
    period = s.edges
    if spanning_prefix(n, period) is None:
        return ScheduleClass(spanning=False)
    doubled, window, end, m = period * 2, _EdgeWindow(n), 0, 0
    for o in range(len(period)):
        while window.components > 1:
            window.push(doubled[end])
            end += 1
        m = max(m, end - o)
        window.pop()
    return ScheduleClass(spanning=True, m_spanning=m)


# -- running product ----------------------------------------------------------

def block_length(n: int) -> int:
    """Steps K per part of ProductTracker.block on n nodes. A part gathers K states
    of R rows of n floats, R = n below PLAIN_BLOCK_BELOW and min(2K, n) from there
    up: at most 4096 floats at small n, where a part's fixed numpy calls outweigh
    its steps, and K = 8 from n = 22 up (longer was slower at 200)."""
    return max(8, min(DENSE_RECORD_LIMIT, 4096 // (n * n)))


def _mix(edge, w: EdgeWeights) -> tuple:
    """One canonical edge's step coefficients: 0-based rows i < j, the columns
    c0 = [[1 - a_ij], [a_ji]] and c1 = [[a_ij], [1 - a_ji]], and their floats."""
    import numpy as np
    i, j = edge
    a, b = float(w.a_ij), float(w.a_ji)
    p = (1.0 - a, a, b, 1.0 - b)
    return i - 1, j - 1, np.array([[p[0]], [p[2]]]), np.array([[p[1]], [p[3]]]), p


@functools.cache  # made by the first advance or block on n nodes, never at import
def _row_kernel(n: int, versions: bool):
    """``advance``'s edge loop on the float-list rows R of n nodes, unrolled:
    rows i and j are unpacked into locals a0.. and b0.., and the new rows are
    list displays of p0 * a_k + p1 * b_k and q0 * a_k + q1 * b_k. Each entry
    rounds twice, as c0 * P[i] + c1 * P[j] does in numpy, so both give the
    same bits. With ``versions`` (for block), ``push`` takes each new row, row
    i then row j, and ``record`` the version of each row after each step: R's
    rows on entry are 0..n-1, then two per step. The source is made from integers alone."""
    a, b = (", ".join(f"{x}{k}" for k in range(n)) for x in "ab")
    p, q = (", ".join(f"{c}0 * a{k} + {c}1 * b{k}" for k in range(n)) for c in "pq")
    namespace = {}
    exec(f"def kernel(R, mixes, edges{', push, record' if versions else ''}):\n"
         + (f"    latest, w = list(range({n})), {n}\n" if versions else "")
         + f"    for i, j, _, _, (p0, p1, q0, q1) in map(mixes.__getitem__, edges):\n"
         f"        {a}, = R[i]\n"
         f"        {b}, = R[j]\n"
         f"        R[i] = u = [{p}]\n"
         f"        R[j] = v = [{q}]\n"
         + ("        push(u)\n        push(v)\n        latest[i], latest[j] = w, w + 1\n"
            "        w += 2\n        record(latest)\n" if versions else ""), namespace)
    return namespace["kernel"]


class ProductTracker:
    """Running left product of the local matrices of a weight set.

    Starts at the identity, with each edge's ``_mix`` entry tabled once
    under both orientations. ``advance(edges)`` replaces rows i and j of
    each edge with the rows of c0 * P[i] + c1 * P[j]; each entry is
    fl(fl(c x) + fl(c' y)), as in two separate row updates: edge by edge on
    float lists below PLAIN_ROWS_BELOW nodes (``_row_kernel``), else in numpy,
    a dependency level at a time below LEVEL_ROWS_BELOW (``_step_levels``).
    ``min_entry`` is the min of one positive-entry floor per row, taken from
    P when read.
    """

    def __init__(self, ws: WeightSet):
        import numpy as np
        self.P = np.eye(ws.graph.n)
        self.t = 0
        self._mixes = {}
        for e, w in ws.items():
            self._mixes[e] = self._mixes[e[::-1]] = _mix(e, w)

    def advance(self, edges: list) -> None:
        """Step through ``edges``. A step's dependency level is one past the
        last level that wrote row i or row j, so the steps of a level touch
        disjoint rows and each row sees its steps in schedule order."""
        P, n = self.P, len(self.P)
        if n < PLAIN_ROWS_BELOW:
            R = P.tolist()
            _row_kernel(n, False)(R, self._mixes, edges)
            P[:] = R
        elif n >= LEVEL_ROWS_BELOW:
            _step_levels(P, [[m] for m in map(self._mixes.__getitem__, edges)])
        else:
            depth, levels = [0] * n, []
            for m in map(self._mixes.__getitem__, edges):
                i, j = m[0], m[1]
                d = depth[i] if depth[i] > depth[j] else depth[j]
                depth[i] = depth[j] = d + 1
                if d == len(levels):
                    levels.append([])
                levels[d].append(m)
            _step_levels(P, levels)
        self.t += len(edges)

    def restore(self, snapshot: np.ndarray, t: int) -> None:
        import numpy as np
        np.copyto(self.P, snapshot)
        self.t = t

    def min_entry(self) -> float:
        return float(_positive_floors(self.P).min())

    def block(self, edges, tol: float) -> list:
        """Step through ``edges``, in parts of ``block_length(n)``, and return
        one row (t, edge, seminorm, min_entry) per step, up to the first row
        whose seminorm is below ``tol``. The tracker keeps those steps.

        Each part runs on a table of versions of the rows it touches: each
        row's value before the part, then the two rows each step writes.
        Below PLAIN_BLOCK_BELOW nodes every row is a version, and
        ``_row_kernel`` writes the new rows and records which version each row
        holds after each step; from there up, numpy rows and a loop over the
        steps do both. The versions current after each step are gathered as
        (row, step, column) and their floors as (row, step), so the column
        maxima and minima and the floors of every step reduce over the first
        axis, the short one. One pass over the other rows, which no step of
        the part changes, completes them. Max and min are exact, so every
        value equals the reduction of the whole product after that step, bit
        for bit. Floors are read from P on entry and carried across parts;
        gathered rows fill buffers made once per call, so malloc does not
        return and re-fault them.
        """
        from array import array
        import numpy as np
        P, floors, out = self.P, _positive_floors(self.P), []
        n, K = len(P), block_length(len(P))
        plain = n < PLAIN_BLOCK_BELOW
        fixed_buf, touched_buf = np.empty((n, n)), np.empty(K * (n if plain else min(2 * K, n)) * n)
        if plain:
            R, kernel, rows = P.tolist(), _row_kernel(n, True), np.arange(n)
        for start in range(0, len(edges), K):
            part = edges[start:start + K]
            if plain:  # every row is a version: P's rows, then two new rows per step
                table, current = array("d"), array("q")
                kernel(R, self._mixes, part, table.fromlist, current.fromlist)
                versions = np.concatenate((P, np.frombuffer(table).reshape(-1, n)))
                current = np.frombuffer(current, dtype=np.int64).reshape(len(part), n).T
            else:
                steps = [self._mixes[e] for e in part]
                rows = sorted({r for i, j, *_ in steps for r in (i, j)})
                local = {r: k for k, r in enumerate(rows)}
                versions = np.empty((len(rows) + 2 * len(steps), n))
                versions[:len(rows)] = P[rows]
                latest, current = list(range(len(rows))), []
                for v, (i, j, c0, c1, _) in zip(range(len(rows), len(versions), 2), steps):
                    li, lj = local[i], local[j]
                    np.add(c0 * versions[latest[li]], c1 * versions[latest[lj]], out=versions[v:v + 2])
                    latest[li], latest[lj] = v, v + 1
                    current += latest
                current = np.array(current).reshape(len(steps), len(rows)).T  # (row, step) -> version
            touched = versions.take(current, axis=0, mode="clip",  # (touched row, step, column)
                                    out=touched_buf[:current.size * n].reshape(*current.shape, n))
            others = np.ones(n, dtype=bool)
            others[rows] = False
            fixed = P.take(np.flatnonzero(others), axis=0, mode="clip", out=fixed_buf[:n - len(rows)])
            hi = np.maximum(touched.max(axis=0), fixed.max(axis=0, initial=-np.inf))
            lo = np.minimum(touched.min(axis=0), fixed.min(axis=0, initial=np.inf))
            norms = (hi - lo).max(axis=1)
            version_floors = np.concatenate((floors[rows], _positive_floors(versions[len(rows):])))
            mins = np.minimum(version_floors[current].min(axis=0),
                              floors[others].min(initial=np.inf))
            below = np.flatnonzero(norms < tol)
            kept = int(below[0]) + 1 if len(below) else len(part)
            P[rows] = touched[:, kept - 1]
            floors[rows] = version_floors[current[:, kept - 1]]
            out += zip(range(self.t + 1, self.t + kept + 1), part,
                       norms[:kept].tolist(), mins[:kept].tolist())
            self.t += kept
            if len(below):
                break
        return out


def _step_levels(P: np.ndarray, levels: list) -> None:
    """Step P through ``levels``, lists of ``_mix`` entries on disjoint rows.
    One step writes rows i < j as one strided view. A wider level gathers its
    rows I then J, scales them by (1 - a_ij.., 1 - a_ji..), adds its rows J
    then I scaled by (a_ij.., a_ji..) and scatters the sums back. Each entry
    is fl(fl(c x) + fl(c' y)) either way: the bits of one edge at a time."""
    import numpy as np
    wide = [m for level in levels if len(level) > 1 for m in level]
    if wide:
        I, J, _, _, p = zip(*wide)
        p0, p1, q0, q1 = zip(*p)
        rows = np.array((I, J))
        k1, k2 = np.array((p0, q1))[..., None], np.array((p1, q0))[..., None]
    s = 0
    for level in levels:
        if len(level) == 1:
            i, j, c0, c1, _ = level[0]  # in place: faster than np.add(..., out=)
            S = c0 * P[i]
            S += c1 * P[j]
            P[i:j + 1:j - i] = S
            continue
        e = s + len(level)
        r = rows[:, s:e]
        X = P.take(r, axis=0)
        X *= k1[:, s:e]
        Y = P.take(r[::-1], axis=0)
        Y *= k2[:, s:e]
        X += Y
        P[r] = X
        s = e


def _positive_floors(M: np.ndarray) -> np.ndarray:
    """Smallest positive entry along the last axis of M, rows of a
    stochastic product, in one pass that does not branch on the zeros.

    The entries are finite and >= 0, so their float64 bit patterns, read as
    unsigned integers, order like their values. Taking 1 from each pattern
    wraps +0.0 to the largest one, which never wins; adding it back to the
    min gives the smallest positive entry, exactly. Every row sums to about
    1, so none is all zeros.
    """
    import numpy as np
    bits = M.view(np.uint64) - np.uint64(1)
    return (bits.min(axis=-1) + np.uint64(1)).view(np.float64)


# -- matrix diagnostics -------------------------------------------------------

def seminorm(M) -> float:
    """Maximum column spread; zero exactly when all rows are equal."""
    import numpy as np
    m = np.asarray(M, dtype=float)
    return float((m.max(axis=0) - m.min(axis=0)).max())


def ergodicity_coefficient(M) -> float:
    """Half the maximum L1 distance between rows of a stochastic matrix."""
    import numpy as np
    m = np.asarray(M, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotStochastic("matrix must be square")
    if (m < -1e-12).any() or np.abs(m.sum(axis=1) - 1.0).max() > 1e-9:
        raise NotStochastic("matrix is not row stochastic")
    # one row against the rows after it at a time: O(n^2) memory, not O(n^3)
    worst = max(np.abs(m[i:] - m[i]).sum(axis=1).max() for i in range(len(m)))
    return float(worst / 2.0)


def is_scrambling(M) -> bool:
    """True when no two rows have disjoint support."""
    import numpy as np
    pos = np.asarray(M) > 0
    return all((pos[i:] & pos[i]).any(axis=1).all() for i in range(len(pos)))


# -- full runs ----------------------------------------------------------------

@dataclass
class RunOptions:
    """Knobs for :func:`run`. ``tol`` of 0 disables early stopping. ``trace``
    False: no one reads the rows of every step up to DENSE_RECORD_LIMIT, so
    without a ledger the run records only its checkpoints there too."""

    tol: float = DEFAULT_TOL
    trace: bool = True


class TraceRow(NamedTuple):
    t: int
    edge: tuple
    seminorm: float
    bound: Optional[float]
    min_entry: float


@dataclass
class RunReport:
    """Outcome of one schedule run (float64 arithmetic throughout)."""

    p_hat: list
    P: np.ndarray
    steps: int
    converged: bool
    final_seminorm: float
    trace: list
    max_bound_violation: Optional[float]
    spanning: bool
    m_spanning: Optional[int]
    epsilon: float
    tol: float
    schedule_kind: str
    schedule_seed: Optional[int] = None


def run(ws: WeightSet, schedule: Schedule, opts: Optional[RunOptions] = None) -> RunReport:
    """Step the product through a schedule.

    Stops at the end of the schedule or at the first step whose seminorm is
    below ``opts.tol``. The limit estimate ``p_hat`` is the vector of
    column means of the final product. The residual seminorm bounds its
    error in exact arithmetic only: at the rounding floor, max|p_hat - p*|
    read 4.2e-15 against a seminorm of 1.7e-16 (designed 5-cycle, tol 0;
    the rounding term is ROADMAP item 3). When the schedule is periodic with
    a known spanning window m, every recorded step is checked against the
    geometric decay certificate and the worst violation is reported (<= 0
    means the certificate held everywhere it is measurable; the certificate
    is floored at LEDGER_RESOLUTION for the comparison, traces carry the raw
    value).

    The run is one loop over segments, each ending at the next checkpoint of
    the stopping rule, where the seminorm is taken: the recorded steps and the
    last step. Up to DENSE_RECORD_LIMIT every step is one, and that whole
    segment is one ``ProductTracker.block`` call. Past it, or from step 0 when
    ``opts.trace`` is False and the run has no ledger, a segment runs through
    ``ProductTracker.advance`` to the next multiple of SPARSE_RECORD_EVERY or
    to the end of the schedule. With ``tol > 0`` the run keeps a snapshot of
    the product at the segment's start; when the seminorm k steps later reads
    below ``tol + k * RISE``, one of those steps may have been below ``tol``:
    the run restores the snapshot, takes the segment again through ``block``
    and records its last row, the first below ``tol`` or the segment's end.
    Every output equals that of a test after every step.
    """
    import numpy as np
    if ws.graph != schedule.graph:
        raise GraphMismatch("weight set and schedule use different graphs")
    opts = opts or RunOptions()
    info = classify_schedule(schedule)
    eps = float(entry_floor(ws))
    window = info.m_spanning * (ws.graph.n // 2) if info.m_spanning else None
    dense_end = DENSE_RECORD_LIMIT if opts.trace or window is not None else 0

    tracker = ProductTracker(ws)
    trace = []
    snapshot = None
    edges = schedule.edge_list()
    s = seminorm(tracker.P)
    while s >= opts.tol:
        dense = tracker.t < dense_end
        segment = list(islice(edges, dense_end - tracker.t if dense
                              else SPARSE_RECORD_EVERY - tracker.t % SPARSE_RECORD_EVERY))
        if not segment:
            break
        if dense:
            rows = tracker.block(segment, opts.tol)
        else:
            if opts.tol > 0:
                if snapshot is None:  # from step 0 when checkpoint-only; P + snapshot: O(n^2)
                    snapshot = np.empty_like(tracker.P)
                np.copyto(snapshot, tracker.P)
            tracker.advance(segment)
            s = seminorm(tracker.P)
            if opts.tol > 0 and s < opts.tol + len(segment) * RISE:
                tracker.restore(snapshot, tracker.t - len(segment))
                rows = tracker.block(segment, opts.tol)[-1:]
            else:
                rows = [(tracker.t, segment[-1], s, tracker.min_entry())]
        for t, edge, s, low in rows:
            bound = (1.0 - eps) ** (t / window - 1.0) if window is not None else None
            trace.append(TraceRow(t, edge, s, bound, low))
    viols = [row.seminorm - max(row.bound, LEDGER_RESOLUTION)
             for row in trace if row.bound is not None]

    return RunReport(
        p_hat=tracker.P.mean(axis=0).tolist(),
        P=tracker.P,
        steps=tracker.t,
        converged=bool(s < opts.tol),
        final_seminorm=float(s),
        trace=trace,
        max_bound_violation=max(viols) if viols else None,
        spanning=info.spanning,
        m_spanning=info.m_spanning,
        epsilon=eps,
        tol=opts.tol,
        schedule_kind=schedule.kind,
        schedule_seed=schedule.seed,
    )

