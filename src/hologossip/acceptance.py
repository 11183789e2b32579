"""Built-in acceptance checks.

Each criterion is a deterministic, seeded check of one advertised guarantee
of the library, with its tolerance pinned here. They back both the CLI
``verify`` subcommand and the acceptance test module; all randomness flows
from fixed seeds so every published number is reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np

from .design import box_point, design_for, weight_ratios
from .engine import (
    ProductTracker,
    RunOptions,
    Schedule,
    ergodicity_coefficient,
    is_scrambling,
    run,
    seminorm,
)
from .graph import Graph, build_graph, normalize_edge, spanning_tree_from_edges
from .limit import (
    consensus_limit,
    nonholonomy_witness_trees,
    tree_vector,
    verify_left_eigenvector,
)
from .weights import WeightSet, check_holonomy, local_matrix

# -- worked fixtures ----------------------------------------------------------

def triangle() -> Graph:
    return build_graph(3, [(1, 2), (2, 3), (1, 3)])


#: Cycle-balanced weights on the triangle; limit [1/2, 1/3, 1/6].
BALANCED_TRIANGLE = {(1, 2): (0.2, 0.3), (2, 3): (0.25, 0.5), (1, 3): (0.2, 0.6)}
BALANCED_TRIANGLE_EXACT = {
    (1, 2): (Fraction(1, 5), Fraction(3, 10)),
    (2, 3): (Fraction(1, 4), Fraction(1, 2)),
    (1, 3): (Fraction(1, 5), Fraction(3, 5)),
}

#: Unbalanced: both ratios on the path are 1 but the chord ratio is 1/2.
UNBALANCED_TRIANGLE = {(1, 2): (0.5, 0.5), (2, 3): (0.5, 0.5), (1, 3): (0.2, 0.4)}
UNBALANCED_TRIANGLE_EXACT = {
    (1, 2): (Fraction(1, 2), Fraction(1, 2)),
    (2, 3): (Fraction(1, 2), Fraction(1, 2)),
    (1, 3): (Fraction(1, 5), Fraction(2, 5)),
}


# -- seeded generators shared with the test suite -----------------------------

def random_connected_graph(rng, n: int, extra: int = 2) -> Graph:
    """Random tree over a random node relabeling plus ``extra`` chords."""
    order = [int(v) + 1 for v in rng.permutation(n)]
    edges = set()
    for k in range(1, n):
        attach = order[int(rng.integers(0, k))]
        edges.add(normalize_edge(order[k], attach))
    pool = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in edges
    ]
    take = min(extra, len(pool))
    for idx in rng.permutation(len(pool))[:take]:
        edges.add(pool[int(idx)])
    return build_graph(n, edges)


def random_rational_simplex(rng, n: int, max_num: int = 8) -> list:
    nums = [int(rng.integers(1, max_num + 1)) for _ in range(n)]
    total = sum(nums)
    return [Fraction(v, total) for v in nums]


def random_rational_box(rng, g: Graph, lo: int = 7, hi: int = 13) -> tuple:
    vals = [Fraction(int(rng.integers(lo, hi + 1)), 20) for _ in g.sorted_edges]
    return box_point(g, vals)


def random_rational_weights(rng, g: Graph) -> WeightSet:
    pairs = {
        e: (Fraction(int(rng.integers(1, 20)), 20), Fraction(int(rng.integers(1, 20)), 20))
        for e in g.sorted_edges
    }
    return WeightSet(g, pairs)


def random_float_weights(rng, g: Graph) -> WeightSet:
    return WeightSet(g, {e: (float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)))
                         for e in g.sorted_edges})


def random_local_product(rng, ws: WeightSet, steps: int) -> np.ndarray:
    tracker = ProductTracker(ws)
    order = ws.graph.sorted_edges
    tracker.advance([order[int(rng.integers(0, len(order)))] for _ in range(steps)])
    return tracker.P


# -- criteria ------------------------------------------------------------------

def _worst_pairwise_gap(estimates) -> float:
    """Largest entry difference over all pairs of estimates."""
    return max(max(abs(x - y) for x, y in zip(a, b)) for a, b in combinations(estimates, 2))


@dataclass(frozen=True)
class AcceptanceResult:
    passed: bool
    detail: str


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    fn: Callable[[], AcceptanceResult]


def criterion_limit_correctness() -> AcceptanceResult:
    """Seeded random schedule reaches the closed-form limit of the triangle."""
    g = triangle()
    exact = WeightSet(g, BALANCED_TRIANGLE_EXACT)
    _, p = consensus_limit(exact)
    if p.entries != (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)):
        return AcceptanceResult(False, f"closed form gave {p.entries}")
    target = p.as_floats()

    ws = WeightSet(g, BALANCED_TRIANGLE)
    start = time.perf_counter()
    report = run(ws, Schedule.random(g, seed=7, steps=10_000), RunOptions(tol=1e-10))
    elapsed = time.perf_counter() - start

    rank_one = np.ones((3, 1)) @ np.asarray(report.p_hat)[None, :]
    dev = float(np.abs(report.P - rank_one).max())
    err = max(abs(a - b) for a, b in zip(report.p_hat, target))
    passed = dev < 1e-10 and err <= 1e-8 and elapsed < 1.0
    return AcceptanceResult(
        passed,
        f"rank-one dev {dev:.2e} (<1e-10), p_hat err {err:.2e} (<=1e-8), "
        f"{elapsed * 1e3:.0f} ms (<1000)",
    )


def criterion_order_independence() -> AcceptanceResult:
    """20 random seeds and 3 periodic spanning schedules agree pairwise."""
    g = triangle()
    ws = WeightSet(g, BALANCED_TRIANGLE)
    untraced = RunOptions(trace=False)
    estimates = [run(ws, Schedule.random(g, k, 10_000), untraced).p_hat for k in range(20)]
    periods = [
        [(1, 2), (2, 3)],
        [(1, 2), (2, 3), (1, 3)],
        [(1, 3), (2, 3)],
    ]
    for period in periods:
        reps = 10_000 // len(period) + 1
        estimates.append(run(ws, Schedule.periodic(g, period, reps), untraced).p_hat)
    worst = _worst_pairwise_gap(estimates)
    return AcceptanceResult(
        worst <= 1e-8, f"23 runs, worst pairwise gap {worst:.2e} (<=1e-8)"
    )


def criterion_decay_certificate() -> AcceptanceResult:
    """Periodic 2-spanning run never exceeds (1-eps)^(t/(m*floor(n/2)) - 1)."""
    g = triangle()
    ws = WeightSet(g, BALANCED_TRIANGLE)
    schedule = Schedule.periodic(g, [(1, 2), (2, 3), (1, 3)], repetitions=3334)
    report = run(ws, schedule, RunOptions(tol=0.0))
    ok_m = report.m_spanning == 2
    ok_eps = abs(report.epsilon - 0.2 ** 2) < 1e-15
    viol = report.max_bound_violation
    passed = ok_m and ok_eps and viol is not None and viol <= 0 and report.steps >= 10_000
    shown = "n/a" if viol is None else f"{viol:.2e}"
    return AcceptanceResult(
        passed,
        f"m={report.m_spanning}, eps={report.epsilon:.3g}, steps={report.steps}, "
        f"max violation {shown} (<=0)",
    )


def criterion_order_dependence_without_balance() -> AcceptanceResult:
    """Tree-restricted schedules on an unbalanced set reach distinct limits."""
    g = triangle()
    exact = WeightSet(g, UNBALANCED_TRIANGLE_EXACT)
    t_path = spanning_tree_from_edges(g, [(1, 2), (2, 3)])
    t_chord = spanning_tree_from_edges(g, [(1, 2), (1, 3)])
    p_path = tree_vector(exact, t_path)
    p_chord = tree_vector(exact, t_chord)
    third = Fraction(1, 3)
    if p_path.entries != (third, third, third):
        return AcceptanceResult(False, f"path tree vector {p_path.entries}")
    if p_chord.entries != (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)):
        return AcceptanceResult(False, f"chord tree vector {p_chord.entries}")
    exact_gap = p_chord.entries[0] - p_path.entries[0]

    ws = WeightSet(g, UNBALANCED_TRIANGLE)
    r_path = run(ws, Schedule.periodic(g, [(1, 2), (2, 3)], 5000), RunOptions(trace=False))
    r_chord = run(ws, Schedule.periodic(g, [(1, 2), (1, 3)], 5000), RunOptions(trace=False))
    err_path = max(abs(a - float(b)) for a, b in zip(r_path.p_hat, p_path.entries))
    err_chord = max(abs(a - float(b)) for a, b in zip(r_chord.p_hat, p_chord.entries))
    gap = abs(r_chord.p_hat[0] - r_path.p_hat[0])
    passed = (
        exact_gap == Fraction(1, 15)
        and err_path <= 1e-8
        and err_chord <= 1e-8
        and gap >= 1 / 15 - 2e-8
    )
    return AcceptanceResult(
        passed,
        f"limits err {err_path:.2e}/{err_chord:.2e} (<=1e-8), "
        f"first-entry gap {gap:.6f} (>=1/15)",
    )


def criterion_inverse_design_round_trip() -> AcceptanceResult:
    """design -> closed form recovers targets; one simulation per case."""
    rng = np.random.default_rng(20250)
    cases = 100
    worst_float = 0.0
    worst_sim = 0.0
    for case in range(cases):
        n = 3 + case % 6
        g = random_connected_graph(rng, n, extra=n)
        p = random_rational_simplex(rng, n)
        x = random_rational_box(rng, g)
        ws = design_for(p, g, x)
        _, back = consensus_limit(ws)
        if back.entries != tuple(p):
            return AcceptanceResult(False, f"case {case}: exact round trip failed")
        wsf = ws.to_float()
        _, back_f = consensus_limit(wsf)
        worst_float = max(
            worst_float,
            max(abs(a - float(b)) for a, b in zip(back_f.as_floats(), p)),
        )
        report = run(
            wsf,
            Schedule.random(g, seed=1000 + case, steps=150_000),
            RunOptions(tol=1e-9, trace=False),
        )
        worst_sim = max(
            worst_sim, max(abs(a - float(b)) for a, b in zip(report.p_hat, p))
        )
    passed = worst_float <= 1e-12 and worst_sim <= 1e-8
    return AcceptanceResult(
        passed,
        f"{cases} cases exact, float dev {worst_float:.2e} (<=1e-12), "
        f"sim err {worst_sim:.2e} (<=1e-8)",
    )


def criterion_fiber_property() -> AcceptanceResult:
    """Distinct box points for one target share ratios and simulated limits."""
    g = triangle()
    p = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    rng = np.random.default_rng(606)
    boxes = []
    seen = set()
    while len(boxes) < 10:
        vals = tuple(Fraction(int(rng.integers(2, 19)), 20) for _ in g.sorted_edges)
        if vals in seen:
            continue
        seen.add(vals)
        boxes.append(box_point(g, vals))
    sets = [design_for(p, g, x) for x in boxes]
    ratios = [weight_ratios(ws) for ws in sets]
    if any(r != ratios[0] for r in ratios[1:]):
        return AcceptanceResult(False, "ratio images differ")
    distinct = len({tuple(ws.items()) for ws in sets})
    estimates = [
        run(ws.to_float(), Schedule.random(g, 99, 20_000), RunOptions(trace=False)).p_hat
        for ws in sets
    ]
    worst = _worst_pairwise_gap(estimates)
    passed = distinct == 10 and worst <= 1e-8
    return AcceptanceResult(
        passed,
        f"10 box points, {distinct} distinct weight sets, identical ratio images, "
        f"sim gap {worst:.2e} (<=1e-8)",
    )


def criterion_eigenvector_characterization() -> AcceptanceResult:
    """Fixed vector exists exactly for balanced sets."""
    rng = np.random.default_rng(7117)
    for k in range(50):
        n = 3 + k % 6
        g = random_connected_graph(rng, n, extra=2)
        ws = design_for(
            random_rational_simplex(rng, n, max_num=12),
            g,
            random_rational_box(rng, g, lo=3, hi=17),
        )
        _, p = consensus_limit(ws)
        if not verify_left_eigenvector(ws, p):
            return AcceptanceResult(False, f"balanced case {k}: vector rejected")
    for k in range(50):
        n = 3 + k % 6
        g = random_connected_graph(rng, n, extra=max(1, n // 2))
        ws = None
        for _ in range(20):
            cand = random_rational_weights(rng, g)
            if not check_holonomy(cand).holonomic:
                ws = cand
                break
        if ws is None:
            return AcceptanceResult(False, f"case {k}: could not sample unbalanced set")
        wt = nonholonomy_witness_trees(ws)
        if wt is None:
            return AcceptanceResult(False, f"case {k}: witness missing")
        if verify_left_eigenvector(ws, wt.path_vector) or verify_left_eigenvector(
            ws, wt.chord_vector
        ):
            return AcceptanceResult(False, f"case {k}: candidate vector accepted")
    return AcceptanceResult(True, "50 balanced sets accepted, 2x50 candidates rejected")


def criterion_min_entry_floor() -> AcceptanceResult:
    """Every prefix product keeps its min nonzero entry above the floor."""
    rng = np.random.default_rng(8842)
    for k in range(100):
        n = 3 + k % 6
        g = random_connected_graph(rng, n, extra=2)
        ws = random_float_weights(rng, g)
        order = g.sorted_edges
        edges = [order[int(rng.integers(0, len(order)))] for _ in range(500)]
        report = run(ws, Schedule.explicit(g, edges), RunOptions(tol=0.0))
        lows = [row.min_entry for row in report.trace]  # tol 0: one row per step
        if len(lows) != len(edges) or not all(low > report.epsilon for low in lows):
            return AcceptanceResult(False, f"case {k}: floor violated")
    return AcceptanceResult(True, "100 schedules x 500 steps, zero floor violations")


def criterion_scrambling_and_contraction() -> AcceptanceResult:
    """Products over floor(n/2) spanning strings scramble; seminorm contracts."""
    rng = np.random.default_rng(3141)
    for k in range(60):
        n = 3 + k % 6
        g = random_connected_graph(rng, n, extra=2)
        ws = random_float_weights(rng, g)
        tracker = ProductTracker(ws)
        # a permutation of the full edge set covers a spanning tree
        tracker.advance([g.sorted_edges[int(idx)] for _ in range(n // 2)
                         for idx in rng.permutation(len(g.sorted_edges))])
        P = tracker.P
        if not is_scrambling(P):
            return AcceptanceResult(False, f"case {k}: product not scrambling")
        mu = ergodicity_coefficient(P)
        floor = float(P[P > 0].min())
        if mu > 1 - floor + 1e-12:
            return AcceptanceResult(False, f"case {k}: mu {mu} > 1 - min {floor}")
    worst = -np.inf
    for k in range(1000):
        n = 3 + k % 6
        g = random_connected_graph(rng, n, extra=2)
        ws = random_float_weights(rng, g)
        P = random_local_product(rng, ws, int(rng.integers(1, 7)))
        Q = random_local_product(rng, ws, int(rng.integers(1, 7)))
        lhs = seminorm(P @ Q)
        rhs = ergodicity_coefficient(P) * seminorm(Q)
        worst = max(worst, lhs - rhs)
        if lhs > rhs + 1e-12:
            return AcceptanceResult(False, f"pair {k}: contraction violated by {lhs - rhs}")
    return AcceptanceResult(
        True, f"60 scrambling products, 1000 pairs, worst slack {worst:.2e} (<=0)"
    )


def criterion_structural_update_fidelity() -> AcceptanceResult:
    """Two-row product updates match the dense-multiply oracle."""
    rng = np.random.default_rng(512)
    worst = 0.0
    for k in range(100):
        n = 2 + k % 4
        g = random_connected_graph(rng, n, extra=2)
        ws = random_float_weights(rng, g)
        tracker = ProductTracker(ws)
        dense = np.eye(n)
        order = g.sorted_edges
        edges = [order[int(rng.integers(0, len(order)))] for _ in range(20)]
        tracker.advance(edges)
        for e in edges:
            dense = np.array(local_matrix(ws, e), dtype=float) @ dense
        worst = max(worst, float(np.abs(tracker.P - dense).max()))
    return AcceptanceResult(
        worst <= 1e-14, f"100 runs x 20 steps, worst deviation {worst:.2e} (<=1e-14)"
    )


CRITERIA = [
    Criterion(1, "limit correctness", criterion_limit_correctness),
    Criterion(2, "order independence", criterion_order_independence),
    Criterion(3, "decay certificate", criterion_decay_certificate),
    Criterion(4, "order dependence without balance", criterion_order_dependence_without_balance),
    Criterion(5, "inverse design round trip", criterion_inverse_design_round_trip),
    Criterion(6, "fiber property", criterion_fiber_property),
    Criterion(7, "eigenvector characterization", criterion_eigenvector_characterization),
    Criterion(8, "min entry floor", criterion_min_entry_floor),
    Criterion(9, "scrambling and contraction", criterion_scrambling_and_contraction),
    Criterion(10, "structural update fidelity", criterion_structural_update_fidelity),
]
