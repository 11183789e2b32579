"""Simulation of weighted gossip schedules.

A schedule is a finite sequence of edges: explicit, periodic, or drawn
uniformly at random from the edge set with a seeded generator. Stepping an
edge (i, j) left-multiplies the running product by that edge's local
matrix, which only mixes rows i and j, so the update costs O(n) instead of
a dense multiply. The state reached from x0 is P @ x0. A run tables each
edge's coefficients once, and the smallest positive entry of P is kept as
per-row floors (see ProductTracker); every result stays bit-identical.

A run takes the O(n^2) seminorm of the product only where its value is
read: at the recorded trace steps and the last step, the checkpoints of
its stopping rule. A gap between two checkpoints that may hold a step below
the tolerance is replayed exactly (see run and RISE), so the result is
bit-identical to testing the rule after every step.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import GraphMismatch, InvalidSchedule, NotStochastic, UnknownEdge
from .graph import Graph, UnionFind, normalize_edge
from .weights import EdgeWeights, WeightSet, entry_floor

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
    """Finite edge sequence: explicit list, repeated period, or seeded draws."""

    graph: Graph
    kind: str  # "explicit" | "periodic" | "random"
    edges: tuple = ()
    period: tuple = ()
    repetitions: int = 0
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
        return cls(graph=graph, kind="periodic", period=canon, repetitions=repetitions)

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
        if self.kind == "explicit":
            return len(self.edges)
        if self.kind == "periodic":
            return len(self.period) * self.repetitions
        return self.steps

    def edge_list(self) -> Iterator[tuple]:
        """Yield the edge sequence in order; random edges are drawn DRAW_CHUNK at a time."""
        if self.kind == "explicit":
            yield from self.edges
        elif self.kind == "periodic":
            for _ in range(self.repetitions):
                yield from self.period
        else:
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


def classify_schedule(s: Schedule) -> ScheduleClass:
    """Spanning test plus, for periodic schedules, the smallest window m
    such that every length-m window of the repeated period is spanning.

    A window of the repetition is a prefix of some rotation of the period,
    so m is the largest, over the rotations, shortest spanning prefix: one
    union-find pass per rotation, O(len(period)**2). A spanning period has
    every rotation spanning within len(period) edges. Random schedules are
    spanning with probability one and have no defined m.
    """
    n = s.graph.n
    if s.kind == "explicit":
        return ScheduleClass(spanning=spanning_prefix(n, s.edges) is not None)
    if s.kind == "random":
        return ScheduleClass(spanning=True)
    period = s.period
    if spanning_prefix(n, period) is None:
        return ScheduleClass(spanning=False)
    m = max(spanning_prefix(n, period[o:] + period[:o]) for o in range(len(period)))
    return ScheduleClass(spanning=True, m_spanning=m)


# -- running product ----------------------------------------------------------

def _mix(edge, w: EdgeWeights) -> tuple:
    """One edge's step coefficients: 0-based rows i < j and the columns
    c0 = [[1 - a_ij], [a_ji]] and c1 = [[a_ij], [1 - a_ji]]."""
    i, j = normalize_edge(int(edge[0]), int(edge[1]))
    a, b = float(w.a_ij), float(w.a_ji)
    return i - 1, j - 1, np.array([[1.0 - a], [b]]), np.array([[a], [1.0 - b]])


class ProductTracker:
    """Running left product of local matrices.

    Starts at the identity. ``step`` replaces rows i and j with the rows of
    c0 * P[i] + c1 * P[j] (see ``_mix``; ``w`` is the edge's EdgeWeights or
    its ``_mix`` entry). Each entry is fl(fl(c x) + fl(c' y)), as in two
    separate row updates. ``min_entry`` copies nothing: P.min() when P has
    no zero, else the min of one positive-entry floor per row, refreshed on
    the rows stepped since the last read (every row after ``restore``).
    """

    def __init__(self, n: int):
        self.P = np.eye(n)
        self.t = 0
        self._floors, self._stale = np.ones(n), set()

    def step(self, edge, w) -> "ProductTracker":
        i, j, c0, c1 = w if len(w) == 4 else _mix(edge, w)
        S = c0 * self.P[i] + c1 * self.P[j]
        self.P[i] = S[0]
        self.P[j] = S[1]
        self._stale.update((i, j))
        self.t += 1
        return self

    def restore(self, snapshot: np.ndarray, t: int) -> None:
        np.copyto(self.P, snapshot)
        self.t = t
        self._stale.update(range(len(self.P)))

    def seminorm(self) -> float:
        return seminorm(self.P)

    def min_entry(self) -> float:
        low = self.P.min()
        if low <= 0 and self._stale:
            rows = list(self._stale)
            sub = self.P[rows]
            self._floors[rows] = np.where(sub > 0, sub, np.inf).min(axis=1)
            self._stale.clear()
        return float(low if low > 0 else self._floors.min())


# -- matrix diagnostics -------------------------------------------------------

def seminorm(M) -> float:
    """Maximum column spread; zero exactly when all rows are equal."""
    m = np.asarray(M, dtype=float)
    return float((m.max(axis=0) - m.min(axis=0)).max())


def ergodicity_coefficient(M) -> float:
    """Half the maximum L1 distance between rows of a stochastic matrix."""
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
    pos = np.asarray(M) > 0
    return all((pos[i:] & pos[i]).any(axis=1).all() for i in range(len(pos)))


# -- full runs ----------------------------------------------------------------

@dataclass
class RunOptions:
    """Knobs for :func:`run`. ``tol`` of 0 disables early stopping."""

    tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class TraceRow:
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
    column means of the final product, and the residual seminorm is its
    error certificate. When the schedule is periodic with a known spanning
    window m, every recorded step is checked against the geometric decay
    certificate and the worst violation is reported (<= 0 means the
    certificate held everywhere it is measurable; the certificate is
    floored at LEDGER_RESOLUTION for the comparison, traces carry the raw
    value).

    The seminorm is taken only at the checkpoints: the recorded steps and
    the last step. Past DENSE_RECORD_LIMIT, with ``tol > 0``, the run keeps
    a snapshot of the product at each checkpoint and the edges stepped
    since. When a checkpoint k steps later reads below ``tol + k * RISE``,
    one of those steps may have been below ``tol``: the run restores the
    snapshot and replays them with a seminorm after each, up to the first
    one below ``tol``. Every output equals that of a test after every step.
    """
    if ws.graph != schedule.graph:
        raise GraphMismatch("weight set and schedule use different graphs")
    opts = opts or RunOptions()
    n = ws.graph.n
    info = classify_schedule(schedule)
    eps = float(entry_floor(ws))
    window = info.m_spanning * (n // 2) if info.m_spanning else None
    pairs = {e: _mix(e, w) for e, w in ws.to_float().items()}

    tracker = ProductTracker(n)
    trace = []
    max_viol = None
    snapshot, pending = None, []  # product at the last sparse checkpoint, edges since

    def checkpoint(edge) -> float:
        nonlocal max_viol
        s = tracker.seminorm()
        if pending and s < opts.tol + len(pending) * RISE:
            tracker.restore(snapshot, tracker.t - len(pending))
            for edge in pending:  # the row below names the step the replay stops at
                tracker.step(edge, pairs[edge])
                s = tracker.seminorm()
                if s < opts.tol:
                    break
        bound = None
        if window is not None:
            bound = (1.0 - eps) ** (tracker.t / window - 1.0)
            viol = s - max(bound, LEDGER_RESOLUTION)
            max_viol = viol if max_viol is None else max(max_viol, viol)
        trace.append(TraceRow(tracker.t, edge, s, bound, tracker.min_entry()))
        return s

    s = tracker.seminorm()
    converged = s < opts.tol
    for edge in schedule.edge_list():
        if converged:
            break
        tracker.step(edge, pairs[edge])
        if snapshot is not None:
            pending.append(edge)
        if tracker.t <= DENSE_RECORD_LIMIT or tracker.t % SPARSE_RECORD_EVERY == 0:
            s = checkpoint(edge)
            converged = s < opts.tol
            if opts.tol > 0 and tracker.t >= DENSE_RECORD_LIMIT:
                if snapshot is None:
                    snapshot = np.empty_like(tracker.P)
                np.copyto(snapshot, tracker.P)
                pending.clear()
    if tracker.t and trace[-1].t != tracker.t:  # ran out between checkpoints: edge was the last step
        s = checkpoint(edge)
        converged = s < opts.tol

    p_hat = tracker.P.mean(axis=0)
    return RunReport(
        p_hat=[float(v) for v in p_hat],
        P=tracker.P,
        steps=tracker.t,
        converged=bool(converged),
        final_seminorm=float(s),
        trace=trace,
        max_bound_violation=max_viol,
        spanning=info.spanning,
        m_spanning=info.m_spanning,
        epsilon=eps,
        tol=opts.tol,
        schedule_kind=schedule.kind,
        schedule_seed=schedule.seed,
    )


def min_entry_floor_check(ws: WeightSet, schedule: Schedule) -> bool:
    """Check min nonzero entry > min_weight ** (n-1) for every prefix product."""
    if ws.graph != schedule.graph:
        raise GraphMismatch("weight set and schedule use different graphs")
    eps = float(entry_floor(ws))
    tracker = ProductTracker(ws.graph.n)
    if not tracker.min_entry() > eps:
        return False
    pairs = {e: _mix(e, w) for e, w in ws.to_float().items()}
    for edge in schedule.edge_list():
        tracker.step(edge, pairs[edge])
        if not tracker.min_entry() > eps:
            return False
    return True
