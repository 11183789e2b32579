import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from hologossip import engine, errors
from hologossip.acceptance import (
    random_connected_graph,
    random_float_weights,
    random_local_product,
    random_rational_weights,
)
from hologossip.engine import (
    DENSE_RECORD_LIMIT,
    DRAW_CHUNK,
    LEDGER_RESOLUTION,
    LEVEL_ROWS_BELOW,
    PLAIN_BLOCK_BELOW,
    PLAIN_ROWS_BELOW,
    RISE,
    SPARSE_RECORD_EVERY,
    ProductTracker,
    RunOptions,
    Schedule,
    TraceRow,
    block_length,
    classify_schedule,
    ergodicity_coefficient,
    is_scrambling,
    run,
    seminorm,
)
from hologossip.graph import UnionFind, build_graph
from hologossip.weights import WeightSet, entry_floor, local_matrix
from conftest import half_weights, uniform_weights


def _stepped(ws, *edges) -> ProductTracker:
    tracker = ProductTracker(ws)
    tracker.advance(list(edges))
    return tracker


def test_gossip_step_worked(balanced_float):
    # the README example: a step on edge (1, 2) with (a_12, a_21) = (0.2, 0.3)
    # takes the state x = [1, 0, 0] to P @ x
    P = _stepped(balanced_float, (1, 2)).P
    assert list(P @ [1.0, 0.0, 0.0]) == [0.8, 0.3, 0.0]


def test_gossip_step_fixes_consensus(balanced_float):
    P = _stepped(balanced_float, (2, 3)).P
    assert np.array_equal(P @ np.full(3, 0.7), np.full(3, 0.7))


def test_gossip_step_plain_average():
    P = _stepped(half_weights(build_graph(2, [(1, 2)]), 0.5), (1, 2)).P
    assert list(P @ [1.0, 0.0]) == [0.5, 0.5]


def test_tracker_single_step_is_local_matrix(balanced_float):
    tracker = _stepped(balanced_float, (1, 2))
    assert np.array_equal(tracker.P, np.array(local_matrix(balanced_float, (1, 2)), dtype=float))
    assert tracker.t == 1
    assert np.array_equal(_stepped(balanced_float, (2, 1)).P, tracker.P)


def test_tracker_two_steps_order_sensitive(balanced_float):
    a12 = np.array(local_matrix(balanced_float, (1, 2)), dtype=float)
    a23 = np.array(local_matrix(balanced_float, (2, 3)), dtype=float)
    tracker = _stepped(balanced_float, (1, 2), (2, 3))
    assert np.allclose(tracker.P, a23 @ a12, atol=1e-15)
    assert not np.allclose(tracker.P, a12 @ a23, atol=1e-3)


def test_tracker_support_never_shrinks():
    rng = np.random.default_rng(67)
    g = random_connected_graph(rng, 5, extra=2)
    ws = random_float_weights(rng, g)
    tracker = ProductTracker(ws)
    prev = tracker.P > 0
    for _ in range(30):
        e = g.sorted_edges[int(rng.integers(0, len(g.sorted_edges)))]
        tracker.advance([e])
        cur = tracker.P > 0
        assert (cur >= prev).all()
        prev = cur


def test_tracker_rows_stay_stochastic():
    rng = np.random.default_rng(83)
    g = random_connected_graph(rng, 6, extra=3)
    ws = random_float_weights(rng, g)
    tracker = ProductTracker(ws)
    for _ in range(300):
        e = g.sorted_edges[int(rng.integers(0, len(g.sorted_edges)))]
        tracker.advance([e])
        assert np.abs(tracker.P.sum(axis=1) - 1.0).max() <= 1e-12
        assert (tracker.P >= 0).all()


def test_tracker_histories_follow_policy(balanced_float):
    g = balanced_float.graph
    schedule = Schedule.explicit(g, [g.sorted_edges[k % 3] for k in range(120)])
    trace = run(balanced_float, schedule, RunOptions(tol=0)).trace
    assert [row.t for row in trace] == list(range(1, 121))
    values = [row.seminorm for row in trace]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_seminorm_worked_examples():
    assert seminorm(np.eye(2)) == 1.0
    assert seminorm(np.ones((3, 1)) @ np.array([[0.2, 0.5, 0.3]])) == 0.0
    assert seminorm([[0.8, 0.2], [0.3, 0.7]]) == 0.5


def test_ergodicity_worked_examples():
    assert ergodicity_coefficient(np.eye(2)) == 1.0
    assert ergodicity_coefficient(np.ones((3, 1)) @ np.array([[0.2, 0.5, 0.3]])) == 0.0
    assert ergodicity_coefficient([[0.8, 0.2], [0.3, 0.7]]) == 0.5


def test_ergodicity_rejects_non_stochastic():
    with pytest.raises(errors.NotStochastic):
        ergodicity_coefficient([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(errors.NotStochastic):
        ergodicity_coefficient([[1.2, -0.2], [0.5, 0.5]])
    for shape in ([[0.5, 0.5]], [[1.0], [1.0]], [1.0], [[[1.0]]]):
        with pytest.raises(errors.NotStochastic, match="matrix must be square"):
            ergodicity_coefficient(shape)


def test_is_scrambling_examples(balanced_float):
    assert not is_scrambling(np.eye(2))
    assert is_scrambling(np.full((3, 3), 1 / 3))
    a12 = np.array(local_matrix(balanced_float, (1, 2)), dtype=float)
    assert not is_scrambling(a12)  # row 3 is orthogonal to rows 1 and 2


def test_row_diagnostics_match_pairwise_broadcast():
    # the all-pairs (n, n, n) forms the row loops replace, on criterion 9's products
    rng = np.random.default_rng(3141)
    for k in range(60):
        n = 3 + k % 6
        g = random_connected_graph(rng, n, extra=2)
        ws = random_float_weights(rng, g)
        for P in (random_local_product(rng, ws, n * len(g.sorted_edges)),
                  random_local_product(rng, ws, int(rng.integers(1, 7)))):
            diffs = np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)
            assert ergodicity_coefficient(P) == float(diffs.max() / 2.0)
            pos = P > 0
            assert is_scrambling(P) == bool((pos[:, None, :] & pos[None, :, :]).any(axis=2).all())


def test_row_diagnostics_peak_memory_is_quadratic():
    n = 200
    m = np.random.default_rng(7).uniform(0.0, 1.0, size=(n, n))
    m /= m.sum(axis=1, keepdims=True)
    tracemalloc.start()
    try:
        ergodicity_coefficient(m)
        is_scrambling(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8  # a few n^2 floats; an (n, n, n) temporary is 64 MB


def test_classify_periodic_triangle(triangle):
    s = Schedule.periodic(triangle, [(1, 2), (2, 3)], repetitions=10)
    info = classify_schedule(s)
    assert info.spanning and info.m_spanning == 2


def test_classify_explicit_not_spanning(triangle):
    info = classify_schedule(Schedule.explicit(triangle, [(1, 2)]))
    assert not info.spanning and info.m_spanning is None


def test_classify_single_edge_path():
    g = build_graph(2, [(1, 2)])
    info = classify_schedule(Schedule.periodic(g, [(1, 2)], repetitions=5))
    assert info.spanning and info.m_spanning == 1


def test_classify_random(triangle):
    info = classify_schedule(Schedule.random(triangle, seed=1, steps=10))
    assert info.spanning and info.m_spanning is None


def test_classify_three_edge_period_is_two_spanning(triangle):
    info = classify_schedule(Schedule.periodic(triangle, [(1, 2), (2, 3), (1, 3)], 5))
    assert info.m_spanning == 2


def _spans(n, edges):
    uf = UnionFind(n)
    for e in edges:
        uf.union(*e)
    return uf.components == 1


def _tripled_period_window(n, period):
    """The window scan ``classify_schedule`` used to run, kept as the
    reference: every offset within one period, over a tripled period."""
    tripled, length = period * 3, len(period)
    for m in range(1, 2 * length + 1):
        if all(_spans(n, tripled[o : o + m]) for o in range(length)):
            return m
    return None


def test_classify_window_matches_tripled_period_scan():
    rng = np.random.default_rng(71)
    spanning = 0
    for k in range(400):
        n = 2 + int(rng.integers(0, 6))
        g = random_connected_graph(rng, n, extra=int(rng.integers(0, n)))
        edges = g.sorted_edges
        if k % 2:  # every edge once in a random order, plus random repeats
            period = [edges[int(i)] for i in rng.permutation(len(edges))]
            for _ in range(int(rng.integers(0, n))):
                period.insert(int(rng.integers(0, len(period) + 1)),
                              edges[int(rng.integers(0, len(edges)))])
        else:
            period = [edges[int(i)] for i in rng.integers(0, len(edges), int(rng.integers(1, 3 * n)))]
        period = tuple(period)
        info = classify_schedule(Schedule.periodic(g, period, 1))
        assert info.spanning == _spans(n, period)
        assert info.m_spanning == (_tripled_period_window(n, period) if info.spanning else None)
        spanning += info.spanning
    assert spanning >= 250


def _rotation_window(n, period):
    """The loop ``classify_schedule`` ran before its two-pointer pass, kept as the
    reference: the largest, over the rotations, shortest spanning prefix."""
    if engine.spanning_prefix(n, period) is None:
        return None
    return max(engine.spanning_prefix(n, period[o:] + period[:o]) for o in range(len(period)))


def test_classify_window_matches_rotation_scan():
    rng = np.random.default_rng(2201)
    seen = set()
    for k in range(1500):
        n = 2 + int(rng.integers(0, 8))
        g = random_connected_graph(rng, n, extra=int(rng.integers(0, n)))
        edges = g.sorted_edges
        period = [edges[int(i)] for i in rng.integers(0, len(edges), int(rng.integers(1, 8 * n)))]
        if k % 3 == 0:  # every edge at least once, so the period spans
            period += [edges[int(i)] for i in rng.permutation(len(edges))]
        period = tuple(period)
        info = classify_schedule(Schedule.periodic(g, period, 1))
        assert info.m_spanning == _rotation_window(n, period)
        assert info.spanning == (info.m_spanning is not None)
        seen.add((n == 2, info.spanning, len(set(period)) < len(period)))
    # with and without repeated edges, at n = 2 (whose one edge always spans) and
    # at larger n, spanning or not
    assert seen == {(two, spans, repeats) for two in (True, False) for spans in (True, False)
                    for repeats in (True, False) if spans or not two}
    # on a path every edge is a bridge: one that appears once puts every window at L
    path = build_graph(5, [(v, v + 1) for v in range(1, 5)])
    period = ((1, 2), (2, 3), (3, 4), (2, 3), (4, 5), (1, 2), (3, 4))
    assert classify_schedule(Schedule.periodic(path, period, 3)).m_spanning == len(period)
    assert _rotation_window(5, period) == len(period)


def test_run_two_node_closed_form():
    g = build_graph(2, [(1, 2)])
    ws = WeightSet(g, {(1, 2): (F(1, 3), F(2, 3))})
    report = run(ws, Schedule.explicit(g, [(1, 2)] * 60))
    assert abs(report.p_hat[0] - 2 / 3) < 1e-12
    assert abs(report.p_hat[1] - 1 / 3) < 1e-12


def test_run_requires_matching_graph(balanced_float):
    other = build_graph(3, [(1, 2), (2, 3)])
    with pytest.raises(errors.GraphMismatch):
        run(balanced_float, Schedule.explicit(other, [(1, 2)]))


def test_run_tree_restricted_unbalanced(unbalanced_float, triangle):
    r_path = run(unbalanced_float, Schedule.periodic(triangle, [(1, 2), (2, 3)], 3000))
    r_chord = run(unbalanced_float, Schedule.periodic(triangle, [(1, 2), (1, 3)], 3000))
    assert max(abs(v - 1 / 3) for v in r_path.p_hat) < 1e-8
    assert abs(r_chord.p_hat[0] - 0.4) < 1e-8
    assert abs(r_chord.p_hat[2] - 0.2) < 1e-8


def test_run_limit_consistency(balanced_float):
    report = run(
        balanced_float,
        Schedule.random(balanced_float.graph, seed=3, steps=10_000),
    )
    assert report.converged
    for row in report.P:
        assert max(abs(row - np.asarray(report.p_hat))) < report.tol
    # p_hat is fixed by every local matrix: p_i * a_ij == p_j * a_ji, up to the run's tol
    p = report.p_hat
    residual = max(abs(p[i - 1] * w.a_ij - p[j - 1] * w.a_ji) for (i, j), w in balanced_float.items())
    assert residual <= 10 * report.tol


def test_run_carries_state_vector(balanced_float):
    x0 = [1.0, 2.0, 4.0]
    report = run(balanced_float, Schedule.random(balanced_float.graph, seed=11, steps=5000))
    # the state P @ x0 converges to p . x0 with p = [1/2, 1/3, 1/6]
    expected = float(F(1, 2) * 1 + F(1, 3) * 2 + F(1, 6) * 4)
    assert max(abs(v - expected) for v in report.P @ x0) < 1e-8


def test_run_bound_ledger_clean_on_periodic(balanced_float, triangle):
    schedule = Schedule.periodic(triangle, [(1, 2), (2, 3), (1, 3)], 400)
    report = run(balanced_float, schedule, RunOptions(tol=0.0))
    assert report.m_spanning == 2
    assert report.epsilon == pytest.approx(0.04)
    assert report.max_bound_violation is not None
    assert report.max_bound_violation <= 0
    recorded = [row for row in report.trace if row.bound is not None]
    assert recorded and all(row.bound > 0 for row in recorded)


def test_run_random_schedules_reproducible(balanced_float):
    g = balanced_float.graph
    s = Schedule.random(g, seed=21, steps=500)
    assert list(s.edge_list()) == list(Schedule.random(g, seed=21, steps=500).edge_list())
    assert list(s.edge_list()) != list(Schedule.random(g, seed=22, steps=500).edge_list())
    r1 = run(balanced_float, s)
    r2 = run(balanced_float, Schedule.random(g, seed=21, steps=500))
    assert r1.p_hat == r2.p_hat
    assert [(row.t, row.seminorm) for row in r1.trace] == [
        (row.t, row.seminorm) for row in r2.trace
    ]


@pytest.mark.parametrize("chunk", [DRAW_CHUNK, DRAW_CHUNK + 1])
def test_chunked_draws_equal_one_draw(chunk):
    # numpy does not promise this; the lazy random schedule relies on it
    for k in (3, 7, 200, 2**33):
        for total in (9_999, 150_000, 150_001):
            whole = np.random.Generator(np.random.PCG64(k + total)).integers(0, k, size=total)
            rng = np.random.Generator(np.random.PCG64(k + total))
            parts = [rng.integers(0, k, size=min(chunk, total - start))
                     for start in range(0, total, chunk)]
            assert np.array_equal(np.concatenate(parts), whole)


def test_random_edge_stream_matches_one_draw():
    rng = np.random.default_rng(43)
    for seed in (0, 7, 21, 2**40 + 3):
        g = random_connected_graph(rng, 3 + seed % 5, extra=2)
        order = g.sorted_edges
        for steps in (1, DRAW_CHUNK, DRAW_CHUNK + 1, 3 * DRAW_CHUNK + 17):
            draws = np.random.Generator(np.random.PCG64(seed)).integers(0, len(order), size=steps)
            reference = [order[k] for k in draws]
            assert list(Schedule.random(g, seed, steps).edge_list()) == reference


def test_periodic_and_explicit_streams(triangle):
    period = [(1, 2), (2, 3), (1, 3), (2, 3)]
    s = Schedule.periodic(triangle, period, repetitions=5)
    assert list(s.edge_list()) == period * 5 and len(s) == 20
    e = Schedule.explicit(triangle, [(2, 1), (3, 2)])
    assert list(e.edge_list()) == [(1, 2), (2, 3)] and len(e) == 2


def test_explicit_schedule_is_its_edges_once():
    rng = np.random.default_rng(1900)
    for n in (3, 6):
        g = random_connected_graph(rng, n, extra=2)
        # spanning, spanning in the other orientation, and one edge short of a tree
        for edges in (g.sorted_edges, [e[::-1] for e in g.sorted_edges], g.sorted_edges[:n - 2]):
            a, b = Schedule.explicit(g, edges), Schedule.periodic(g, edges, 1)
            assert list(a.edge_list()) == list(b.edge_list()) and len(a) == len(b) == len(edges)
            spanning = len(edges) > n - 2  # n - 2 edges cannot connect n nodes
            assert classify_schedule(a).spanning == classify_schedule(b).spanning == spanning


def test_run_memory_does_not_grow_with_step_budget(balanced_float, triangle):
    # one draw of all 10**7 indices would take 80 MB, and a list of their edges 80 MB more
    run(balanced_float, Schedule.random(triangle, seed=3, steps=10))  # first-call allocations
    s = Schedule.random(triangle, seed=7, steps=10**7)
    tracemalloc.start()
    try:
        report = run(balanced_float, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and report.steps < 100 and len(s) == 10**7
    assert peak < 2**20


def _exact_left_product(ws, edges):
    n = ws.graph.n
    P = [[F(int(r == c)) for c in range(n)] for r in range(n)]
    for e in edges:
        A = local_matrix(ws, e)
        P = [[sum(a * P[k][c] for k, a in enumerate(row) if a) for c in range(n)] for row in A]
    return P


def test_run_matches_exact_product_on_short_schedules():
    rng = np.random.default_rng(97)
    for k in range(36):
        n = 3 + k % 4
        g = random_connected_graph(rng, n, extra=2)
        ws = random_rational_weights(rng, g)
        order = g.sorted_edges
        draw = [order[int(v)] for v in rng.integers(0, len(order), size=int(rng.integers(1, 9)))]
        if k % 3 == 0:
            s = Schedule.explicit(g, draw * (1 + 32 // len(draw)))
        elif k % 3 == 1:
            s = Schedule.periodic(g, draw, repetitions=40 // len(draw))
        else:
            s = Schedule.random(g, int(rng.integers(0, 2**31)), int(rng.integers(1, 41)))
        assert 1 <= len(s) <= 40
        report = run(ws, s, RunOptions(tol=0))
        exact = np.array(_exact_left_product(ws, list(s.edge_list())), dtype=float)
        assert report.steps == len(s)
        assert np.abs(report.P - exact).max() <= 1e-14


# -- stopping rule at checkpoints ---------------------------------------------

def _plain_steps(ws, edges):
    """Yield (edge, P) after each step, with P stepped by the two-row formula on a
    plain array, apart from ProductTracker. P is one array, updated in place."""
    pairs = dict(ws.to_float().items())
    P = np.eye(ws.graph.n)
    for edge in edges:
        a, b = pairs[edge]
        i, j = edge[0] - 1, edge[1] - 1
        P[i], P[j] = (1.0 - a) * P[i] + a * P[j], b * P[i] + (1.0 - b) * P[j]
        yield edge, P


def _min_positive(P) -> float:
    return float(P[P > 0].min())


def _every_step_run(ws, schedule, tol):
    """The stopping rule tested after every step: the reference that run(),
    which tests it only at checkpoints, must reproduce bit for bit."""
    n = ws.graph.n
    m = classify_schedule(schedule).m_spanning
    window = m * (n // 2) if m else None
    eps = float(entry_floor(ws))
    P, t = np.eye(n), 0
    trace, viols = [], []

    def record(edge, s):
        bound = None
        if window is not None:
            bound = (1.0 - eps) ** (t / window - 1.0)
            viols.append(s - max(bound, LEDGER_RESOLUTION))
        trace.append(TraceRow(t, edge, s, bound, _min_positive(P)))

    s = seminorm(P)
    converged = s < tol
    for t, (edge, P) in enumerate(_plain_steps(ws, schedule.edge_list()), 1):
        s = seminorm(P)
        converged = s < tol
        if t <= DENSE_RECORD_LIMIT or t % SPARSE_RECORD_EVERY == 0 or converged:
            record(edge, s)
        if converged:
            break
    if t and trace[-1].t != t:
        record(edge, s)
    return {"steps": t, "converged": converged, "final_seminorm": s,
            "p_hat": [float(v) for v in P.mean(axis=0)], "P": P.tobytes(),
            "trace": trace, "max_bound_violation": max(viols) if viols else None}


def _outcome(ws, schedule, tol, trace=True):
    r = run(ws, schedule, RunOptions(tol=tol, trace=trace))
    return {"steps": r.steps, "converged": r.converged, "final_seminorm": r.final_seminorm,
            "p_hat": r.p_hat, "P": r.P.tobytes(), "trace": r.trace,
            "max_bound_violation": r.max_bound_violation}


def _seminorms(ws, schedule):
    """Seminorm of the product before the first step and after every step."""
    values = [1.0] + [seminorm(P) for _, P in _plain_steps(ws, schedule.edge_list())]
    return np.array(values)


def _slow_case(seed):
    """n = 3..8 with weights in (0.005, 0.05): the seminorm still decays at step
    2,000. Odd seeds draw a random schedule of 1,957 steps; even seeds repeat a
    spanning period to about as many steps, neither a multiple of 100."""
    rng = np.random.default_rng(900 + seed)
    g = random_connected_graph(rng, 3 + seed % 6, extra=seed % 3)
    ws = uniform_weights(rng, g, 0.005, 0.05)
    if seed % 2:
        return ws, Schedule.random(g, seed=seed, steps=1957), rng
    edges = g.sorted_edges
    period = [edges[int(k)] for k in rng.permutation(len(edges))] + [edges[0]]
    return ws, Schedule.periodic(g, period, 1957 // len(period)), rng


def test_checkpoint_rule_matches_every_step_rule():
    stops = []
    for seed in range(5):
        ws, schedule, rng = _slow_case(seed)
        s = _seminorms(ws, schedule)
        last = len(schedule)
        assert last % SPARSE_RECORD_EVERY
        mid = int(rng.choice([t for t in range(DENSE_RECORD_LIMIT + 1, last)
                              if t % SPARSE_RECORD_EVERY]))
        # stop inside a gap, stop at the last step, run out unconverged
        for tol in (np.nextafter(s[mid], 1.0), np.nextafter(s[last], 1.0), s[last] / 2):
            expected = _every_step_run(ws, schedule, float(tol))
            assert _outcome(ws, schedule, float(tol)) == expected
            stops.append(expected["steps"])
    assert all(t > DENSE_RECORD_LIMIT for t in stops)
    assert sum(t % SPARSE_RECORD_EVERY != 0 for t in stops[::3]) >= 4


@pytest.mark.parametrize("n", [40, 64])
def test_checkpoint_rule_matches_every_step_rule_in_level_range(monkeypatch, n):
    # the sparse segments step by dependency levels; a stop inside one restores
    # the snapshot and replays the segment through block
    assert PLAIN_ROWS_BELOW <= n < LEVEL_ROWS_BELOW
    rng = np.random.default_rng(1900 + n)
    g = random_connected_graph(rng, n, extra=n // 4)
    ws = uniform_weights(rng, g, 0.05, 0.5)
    schedule = Schedule.random(g, seed=n, steps=1957)
    s = _seminorms(ws, schedule)
    assert s[-1] > 1e-9  # still far above rounding at the last step
    mid = int(rng.choice([t for t in range(DENSE_RECORD_LIMIT + 1, len(schedule))
                          if t % SPARSE_RECORD_EVERY and s[t] < s[:t].min()]))
    calls, replays, restore = _counted_kernel_steps(monkeypatch), [], ProductTracker.restore

    def recorded_restore(self, snapshot, t):
        replays.append(t)
        restore(self, snapshot, t)

    monkeypatch.setattr(ProductTracker, "restore", recorded_restore)
    stops = []
    for tol in (np.nextafter(s[mid], 1.0), np.nextafter(s[-1], 1.0), s[-1] / 2):
        expected = _every_step_run(ws, schedule, float(tol))
        assert _outcome(ws, schedule, float(tol)) == expected
        stops.append(expected["steps"])
    assert stops[0] == mid and stops[2] == len(schedule)
    assert calls["levels"] > 0 and calls["advance"] == 0
    assert mid - mid % SPARSE_RECORD_EVERY in replays


def test_checkpoint_rule_at_tolerance_boundary():
    # tol exactly at a checkpoint's seminorm, and one ulp above it: both replay
    cases = []
    for seed in range(2):
        ws, schedule, _ = _slow_case(seed)
        s = _seminorms(ws, schedule)
        cases += [(ws, schedule, s[c]) for c in (1100, 1900)]
    # runs that first reach the rounding floor inside a gap (n = 7 and 8), where the
    # seminorm rose by rounding before the checkpoint: only the k * RISE margin
    # makes the run look back into the gap
    rises = 0
    for seed in (6, 27):
        rng = np.random.default_rng(500 + seed)
        g = random_connected_graph(rng, 5 + seed % 4, extra=2)
        ws = uniform_weights(rng, g, 0.3, 0.7)
        schedule = Schedule.random(g, seed=seed, steps=1800)
        s = _seminorms(ws, schedule)
        low = np.minimum.accumulate(s)
        for c in range(1100, len(schedule) + 1, SPARSE_RECORD_EVERY):
            if low[c - SPARSE_RECORD_EVERY] >= s[c] > s[c - SPARSE_RECORD_EVERY + 1:c].min():
                cases.append((ws, schedule, s[c]))
                rises += 1
    assert rises == 2
    for ws, schedule, s_c in cases:
        for tol in (float(s_c), float(np.nextafter(s_c, 1.0))):
            assert _outcome(ws, schedule, tol) == _every_step_run(ws, schedule, tol)


def test_seminorm_rise_per_step_is_within_rise():
    worst = 0.0
    for seed in range(21):
        rng = np.random.default_rng(300 + seed)
        n = (3, 4, 5, 8, 12, 20, 50)[seed % 7]
        g = random_connected_graph(rng, n, extra=2)
        # each weight near 0, near 1, or in between
        draw = lambda: float(rng.choice([rng.uniform(1e-4, 1e-2), rng.uniform(0.99, 0.9999),
                                         rng.uniform(0.01, 0.99)]))
        ws = WeightSet(g, {e: (draw(), draw()) for e in g.sorted_edges})
        s = _seminorms(ws, Schedule.random(g, seed=seed, steps=1000))
        worst = max(worst, float(np.diff(s).max()))
    assert 0 < worst <= RISE


def _running_minima(s):
    """Steps whose seminorm is below every earlier one: with ``tol`` one ulp
    above it, the every-step rule stops exactly there."""
    low = np.minimum.accumulate(s)
    return [t for t in range(1, len(s)) if s[t] < low[t - 1]]


def test_block_stops_match_every_step_rule():
    # a 20-node periodic run, whose blocks leave rows alone, and a 5-node one
    rng = np.random.default_rng(970)
    g = random_connected_graph(rng, 20, extra=3)
    period = [g.sorted_edges[int(k)] for k in rng.permutation(len(g.sorted_edges))]
    cases = [(random_float_weights(rng, g), Schedule.periodic(g, period, 1300 // len(period))),
             _slow_case(2)[:2]]
    at_limit = 0
    for ws, schedule in cases:
        K = block_length(ws.graph.n)
        assert K == (10 if ws.graph.n == 20 else 163)
        s = _seminorms(ws, schedule)
        minima = _running_minima(s)
        # every offset inside a short dense block; the ends and middle of a long one.
        # Offset K - 1 stops at a block boundary, offset 0 just past one
        offsets = range(K) if K < 16 else (0, 1, K // 2, K - 2, K - 1)
        stops = [next(t for t in minima if K < t <= DENSE_RECORD_LIMIT and (t - 1) % K == o)
                 for o in offsets]
        if DENSE_RECORD_LIMIT in minima:
            stops.append(DENSE_RECORD_LIMIT)
            at_limit += 1
        # past step 1000: a replay that stops more than one block into its gap,
        # or past its middle where one block holds the whole gap
        stops.append(next(t for t in minima if t > DENSE_RECORD_LIMIT
                          and t % SPARSE_RECORD_EVERY > min(K, SPARSE_RECORD_EVERY // 2)))
        for t in stops:
            tol = float(np.nextafter(s[t], 1.0))
            expected = _every_step_run(ws, schedule, tol)
            assert expected["steps"] == t and expected["max_bound_violation"] is not None
            assert _outcome(ws, schedule, tol) == expected
    assert at_limit == 1


@pytest.mark.parametrize("seed", [0, 5])
def test_long_block_stops_match_every_step_rule(seed):
    # n = 3 (blocks of 455 steps) and n = 8 (64): stops at the first and last running
    # minimum of the first, a middle and the last dense block
    ws, schedule, _ = _slow_case(seed)
    n = ws.graph.n
    K = block_length(n)
    assert (n, K) == ((3, 455) if seed == 0 else (8, 64))
    s = _seminorms(ws, schedule)
    minima = _running_minima(s)
    last = (DENSE_RECORD_LIMIT - 1) // K
    for b in (0, last // 2, last):
        inside = [t for t in minima if b * K < t <= min((b + 1) * K, DENSE_RECORD_LIMIT)]
        assert len(inside) >= 2
        for t in (inside[0], inside[-1]):
            tol = float(np.nextafter(s[t], 1.0))
            expected = _every_step_run(ws, schedule, tol)
            assert expected["steps"] == t
            assert _outcome(ws, schedule, tol) == expected


def test_block_length_keeps_temporaries_bounded():
    # a part gathers K states of R rows of n floats: every row (R = n) below
    # PLAIN_BLOCK_BELOW, the at most min(2K, n) rows it touches from there up.
    # At most 4096 floats, or the 8-step parts of the large graphs
    for n in range(2, 2001):
        K = block_length(n)
        assert 8 <= K <= DENSE_RECORD_LIMIT
        if n < PLAIN_BLOCK_BELOW:
            assert K * n * n <= 4096
        else:
            assert K == 8 or K * min(2 * K, n) * n <= 4096
    assert [block_length(n) for n in (3, 8, 21, 22, 50, 200)] == [455, 64, 9, 8, 8, 8]


def test_runs_that_end_inside_a_block_match_every_step_rule():
    ws, schedule, _ = _slow_case(2)
    edges = list(schedule.edge_list())
    # a partial first block, a partial last dense block, and a gap of 61 edges
    # (7 blocks and 5 edges) that the last checkpoint replays; then the end of the
    # dense zone, one edge past it, a sparse checkpoint, and one edge past that
    for length in (5, 997, 1061, 1000, 1001, 1100, 1101):
        part = Schedule.explicit(ws.graph, edges[:length])
        last = float(_seminorms(ws, part)[length])
        for tol in (0.0, last / 2, float(np.nextafter(last, 1.0))):
            assert _outcome(ws, part, tol) == _every_step_run(ws, part, tol)


@pytest.mark.parametrize("n", [3, 50, 200])
def test_zero_tol_run_matches_every_step_rule(n):
    g = build_graph(n, [(v, v + 1) for v in range(1, n)] + [(1, n)])
    ws = random_float_weights(np.random.default_rng(990 + n), g)
    schedule = Schedule.random(g, seed=n, steps=1234)
    assert _outcome(ws, schedule, 0.0) == _every_step_run(ws, schedule, 0.0)


def test_zero_tol_never_replays(monkeypatch, balanced_float, triangle):
    restores = []
    restore = ProductTracker.restore
    monkeypatch.setattr(ProductTracker, "restore", lambda self, *a: restores.append(a) or restore(self, *a))
    blocks = []
    block = ProductTracker.block
    monkeypatch.setattr(ProductTracker, "block",
                        lambda self, edges, tol: blocks.append(len(edges)) or block(self, edges, tol))
    report = run(balanced_float, Schedule.random(triangle, seed=5, steps=3456), RunOptions(tol=0))
    assert report.steps == 3456 and not report.converged and not restores
    assert blocks == [DENSE_RECORD_LIMIT]  # the whole dense zone in one call
    # one row per checkpoint: 1000 dense, 24 sparse, the last step
    assert [row.t for row in report.trace] == (list(range(1, 1001)) + list(range(1100, 3401, 100))
                                              + [3456])


def _floor_holds(ws, schedule):
    """Acceptance criterion 8's test: with tol 0 the trace has one row per step,
    and every row's min_entry is above min_weight ** (n - 1)."""
    report = run(ws, schedule, RunOptions(tol=0.0))
    assert len(report.trace) == len(schedule)
    return all(row.min_entry > report.epsilon for row in report.trace)


def test_min_entry_floor_worked(balanced_float, triangle):
    # single factor: min P equals the smallest entry of that local matrix
    assert _floor_holds(balanced_float, Schedule.explicit(triangle, [(2, 3)]))
    assert _floor_holds(balanced_float, Schedule.explicit(triangle, []))
    s = Schedule.random(triangle, seed=13, steps=1000)
    assert float(entry_floor(balanced_float)) == pytest.approx(0.04)
    assert _floor_holds(balanced_float, s)


# -- min_entry from per-row floors ------------------------------------------

def _assert_trace_min_entries(ws, schedule, report):
    """Every trace row's min_entry against P[P > 0].min() of a plain product."""
    rows = {row.t: row.min_entry for row in report.trace}
    for t, (_, P) in enumerate(_plain_steps(ws, schedule.edge_list()), 1):
        if t in rows:
            assert rows.pop(t) == _min_positive(P), t
        if t == report.steps:
            break
    assert not rows
    return P


def test_min_entry_matches_mask_on_long_runs_with_zeros():
    stops = []
    for k, (family, n) in enumerate([("path", 40), ("cycle", 60), ("path", 100),
                                      ("cycle", 120), ("path", 200)]):
        edges = [(v, v + 1) for v in range(1, n)] + ([(1, n)] if family == "cycle" else [])
        g = build_graph(n, edges)
        rng = np.random.default_rng(600 + k)
        ws = random_float_weights(rng, g)
        schedule = Schedule.random(g, seed=k, steps=1850)
        s = _seminorms(ws, schedule)
        # stop between two checkpoints past the dense zone, so that the run replays
        mid = int(rng.choice([t for t in range(1101, 1500) if t % SPARSE_RECORD_EVERY]))
        report = run(ws, schedule, RunOptions(tol=float(np.nextafter(s[mid], 1.0))))
        P = _assert_trace_min_entries(ws, schedule, report)
        assert report.converged and (P == 0).any()  # the run ends on the zero path
        stops.append(report.steps)
    assert sum(t % SPARSE_RECORD_EVERY != 0 and t > DENSE_RECORD_LIMIT for t in stops) >= 4


def test_restore_refreshes_every_row_floor(balanced_float):
    tracker = _stepped(balanced_float, (1, 2))
    assert tracker.min_entry() == 0.2
    snapshot = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.25, 0.75]])
    tracker.restore(snapshot, 0)
    assert tracker.t == 0 and tracker.min_entry() == 0.25
    tracker.advance([(2, 3)])
    assert tracker.min_entry() == _min_positive(tracker.P)


def _tiny_weights(rng, g):
    """Weights near 1e-300, near 1 and in between: entries fall into the
    subnormal range and later underflow to 0.0."""
    draw = lambda: float(rng.choice([rng.uniform(1e-300, 2e-300), 1.0 - 2.0 ** -53,
                                     rng.uniform(1e-10, 1e-8), rng.uniform(0.2, 0.8)]))
    return WeightSet(g, {e: (draw(), draw()) for e in g.sorted_edges})


def test_min_entry_follows_underflow_that_shrinks_support():
    shrinks = 0
    for seed in range(6):
        rng = np.random.default_rng(700 + seed)
        g = random_connected_graph(rng, 4 + seed % 4, extra=1)
        ws = _tiny_weights(rng, g)
        schedule = Schedule.random(g, seed=seed, steps=1500)
        prev = np.eye(g.n) > 0
        for _, P in _plain_steps(ws, schedule.edge_list()):
            shrinks += bool((prev & (P == 0)).any())
            prev = P > 0
        _assert_trace_min_entries(ws, schedule, run(ws, schedule, RunOptions(tol=0)))
    assert shrinks >= 2


def test_min_entry_floor_check_matches_mask():
    outcomes = []
    for seed in range(40):
        rng = np.random.default_rng(800 + seed)
        g = random_connected_graph(rng, 2 + seed % 7, extra=1)
        ws = _tiny_weights(rng, g) if seed % 2 else random_float_weights(rng, g)
        schedule = Schedule.random(g, seed=seed, steps=300)
        eps = float(entry_floor(ws))
        expected = all(_min_positive(P) > eps for _, P in _plain_steps(ws, schedule.edge_list()))
        assert _floor_holds(ws, schedule) == expected
        outcomes.append(expected)
    assert 5 <= sum(outcomes) <= 35
    # a path and a cycle at n >= 40, where most rows stay untouched for many steps;
    # on the all-1/2 path a sweep from node n down to node 1 puts 2**-(n-1), the
    # floor itself, into row 1
    outcomes = []
    for n, chord in ((40, []), (48, [(1, 48)])):
        g = build_graph(n, [(v, v + 1) for v in range(1, n)] + chord)
        rng = np.random.default_rng(n)
        steps = [g.sorted_edges[int(k)] for k in rng.integers(0, len(g.sorted_edges), 300)]
        sweep = [(v, v + 1) for v in range(n - 1, 0, -1)]
        for ws, edges in ((half_weights(g, 0.5), steps[:150] + sweep + steps[150:]),
                          (random_float_weights(rng, g), steps)):
            schedule = Schedule.explicit(g, edges)
            eps = float(entry_floor(ws))
            expected = all(_min_positive(P) > eps for _, P in _plain_steps(ws, schedule.edge_list()))
            assert _floor_holds(ws, schedule) == expected
            outcomes.append(expected)
    assert True in outcomes and False in outcomes


# -- checkpoint-only runs (RunOptions.trace False) ----------------------------

#: What a run without a read trace must still give bit for bit.
_UNTRACED_SAME = ("steps", "converged", "final_seminorm", "p_hat", "P", "max_bound_violation")


def _assert_untraced_matches(ws, schedule, tol):
    """trace=False against the every-step rule and against trace=True: the same
    outcome; the rows of every checkpoint, or all rows when a ledger reads them."""
    expected = _every_step_run(ws, schedule, tol)
    assert _outcome(ws, schedule, tol) == expected
    untraced = _outcome(ws, schedule, tol, trace=False)
    assert {k: untraced[k] for k in _UNTRACED_SAME} == {k: expected[k] for k in _UNTRACED_SAME}
    if classify_schedule(schedule).m_spanning:
        assert untraced["trace"] == expected["trace"]
        assert [row.t for row in untraced["trace"][:10]] == list(range(1, 11))
    else:
        steps = expected["steps"]
        checkpoints = list(range(SPARSE_RECORD_EVERY, steps + 1, SPARSE_RECORD_EVERY))
        assert [row.t for row in untraced["trace"]] == checkpoints + (
            [steps] if steps % SPARSE_RECORD_EVERY else [])
        rows = {row.t: row for row in expected["trace"]}
        assert all(rows[row.t] == row for row in untraced["trace"])
    return expected["steps"]


@pytest.mark.parametrize("seed", [2, 11])
def test_untraced_run_matches_every_step_rule(seed):
    # n = 5 and 8, weights in (0.01, 0.1): the seminorm reaches a new low at
    # steps 100 and 101 in some of the schedules
    rng = np.random.default_rng(1400 + seed)
    g = random_connected_graph(rng, 3 + seed % 6, extra=seed % 3)
    ws = uniform_weights(rng, g, 0.01, 0.1)
    edges = g.sorted_edges
    period = [edges[int(k)] for k in rng.permutation(len(edges))]
    schedules = [Schedule.random(g, seed=seed, steps=1500),
                 Schedule.explicit(g, [edges[int(k)] for k in rng.integers(0, len(edges), 1500)]),
                 Schedule.periodic(g, period, 1500 // len(period))]
    stops = []
    for schedule in schedules:
        s = _seminorms(ws, schedule)
        minima = _running_minima(s)
        # inside the first segment, at its end, one past it, later in the first
        # 1000 steps and past them
        ts = [max(t for t in minima if t < 100)] + [t for t in (100, 101) if t in minima]
        inside = [t for t in minima if 101 < t < DENSE_RECORD_LIMIT and t % 100]
        ts += inside[len(inside) // 2:][:1]
        ts += [next(t for t in minima if t > DENSE_RECORD_LIMIT and t % 100)]
        for tol in [0.0] + [float(np.nextafter(s[t], 1.0)) for t in ts]:
            stops.append(_assert_untraced_matches(ws, schedule, tol))
    assert {100, 101} <= set(stops)
    assert any(t > DENSE_RECORD_LIMIT and t % 100 for t in stops)
    assert any(101 < t < DENSE_RECORD_LIMIT for t in stops)


def test_untraced_run_without_spanning_period():
    # the period leaves a node out: no ledger, and the seminorm stays at 1
    rng = np.random.default_rng(1450)
    g = random_connected_graph(rng, 6, extra=2)
    ws = random_float_weights(rng, g)
    period = [e for e in g.sorted_edges if 6 not in e]
    schedule = Schedule.periodic(g, period, 1234 // len(period))
    assert not classify_schedule(schedule).spanning
    for tol in (0.0, 1e-10, 0.5):
        assert _assert_untraced_matches(ws, schedule, tol) == len(schedule)


def _counted_kernel_steps(monkeypatch) -> dict:
    """Patch the kernel factory so that every kernel it hands out adds the number
    of edges it steps to the returned counts: under "block" for the kernels that
    also record versions, under "advance" for the others. Steps that advance
    takes in numpy count under "levels" when their level holds more than one
    step, else under "singles"."""
    steps, factory = {"advance": 0, "block": 0, "levels": 0, "singles": 0}, engine._row_kernel
    step_levels = engine._step_levels

    def counted(n, versions):
        kernel, kind = factory(n, versions), "block" if versions else "advance"

        def stepped(R, mixes, edges, *push):
            steps[kind] += len(edges)
            return kernel(R, mixes, edges, *push)
        return stepped

    def levelled(P, levels):
        for level in levels:
            steps["levels" if len(level) > 1 else "singles"] += len(level)
        return step_levels(P, levels)

    monkeypatch.setattr(engine, "_row_kernel", counted)
    monkeypatch.setattr(engine, "_step_levels", levelled)
    return steps


def test_untraced_zero_tol_never_replays(monkeypatch, balanced_float, triangle):
    calls = []
    for name in ("restore", "block"):
        monkeypatch.setattr(ProductTracker, name, lambda self, *a, name=name: calls.append(name))
    # nor steps through numpy rows: the triangle's rows are float lists
    plain = _counted_kernel_steps(monkeypatch)
    report = run(balanced_float, Schedule.random(triangle, seed=5, steps=3456),
                 RunOptions(tol=0, trace=False))
    assert report.steps == 3456 and not report.converged and not calls
    assert plain == {"advance": 3456, "block": 0, "levels": 0, "singles": 0}
    assert [row.t for row in report.trace] == list(range(100, 3401, 100)) + [3456]


# -- plain-float rows ---------------------------------------------------------

#: (PLAIN_ROWS_BELOW, PLAIN_BLOCK_BELOW, LEVEL_ROWS_BELOW) that force each path
#: of advance: numpy rows by dependency levels, numpy rows one step at a
#: time, float-list rows (block: numpy rows in the first two, float lists in
#: the third).
_FORCED_PATHS = ((0, 0, 10**9), (0, 0, 0), (10**9, 10**9, 10**9))


def _stepped_each_way(monkeypatch, ws, edges, steps):
    """advance, block and a traced run of ``steps`` random edges, with the rows
    of ``advance`` and ``block`` forced onto each path of _FORCED_PATHS."""
    out = []
    for limits in _FORCED_PATHS:
        for name, limit in zip(("PLAIN_ROWS_BELOW", "PLAIN_BLOCK_BELOW", "LEVEL_ROWS_BELOW"), limits):
            monkeypatch.setattr(engine, name, limit)
        calls = _counted_kernel_steps(monkeypatch)
        a, b = ProductTracker(ws), ProductTracker(ws)
        a.advance(edges)
        rows = b.block(edges, 0.0)
        plain = len(edges) if limits[0] else 0  # each call took the forced path
        assert calls["advance"] == calls["block"] == plain
        if limits == (0, 0, 0):
            assert calls["singles"] == len(edges)
        elif not plain:
            assert calls["levels"] + calls["singles"] == len(edges)
        r = run(ws, Schedule.random(ws.graph, seed=len(edges), steps=steps), RunOptions(tol=0))
        assert a.t == b.t == len(edges) and a.P.tobytes() == b.P.tobytes()
        out.append((a.P.tobytes(), rows, r.P.tobytes(), r.trace))
    return out


@pytest.mark.parametrize("n", [PLAIN_ROWS_BELOW - 1, PLAIN_ROWS_BELOW,
                               LEVEL_ROWS_BELOW - 1, LEVEL_ROWS_BELOW])
def test_advance_edge_by_edge_matches_one_call(n):
    # float-list rows below PLAIN_ROWS_BELOW nodes, numpy rows by dependency
    # levels from it on, numpy rows one step at a time from LEVEL_ROWS_BELOW on
    rng = np.random.default_rng(1400 + n)
    g = random_connected_graph(rng, n, extra=n)
    ws = random_float_weights(rng, g)
    edges = [g.sorted_edges[int(k)] for k in rng.integers(0, len(g.sorted_edges), 300)]
    one, each = ProductTracker(ws), ProductTracker(ws)
    one.advance(edges)
    for e in edges:
        each.advance([e])
    assert one.t == each.t == len(edges) and one.P.tobytes() == each.P.tobytes()


def _per_row_product(ws, edges) -> np.ndarray:
    """The product stepped one edge at a time, both new rows from one
    expression c0 * P[i] + c1 * P[j] on numpy rows: the reference for the
    dependency levels of ``advance``."""
    pairs = dict(ws.to_float().items())
    P = np.eye(ws.graph.n)
    for e in edges:
        (a, b), i, j = pairs[min(e), max(e)], min(e) - 1, max(e) - 1
        S = np.array([[1.0 - a], [b]]) * P[i] + np.array([[a], [1.0 - b]]) * P[j]
        P[i] = S[0]
        P[j] = S[1]
    return P


def _level_cases(rng, n):
    """(name, weights, edges) on n nodes for the level path: a star, where each
    level holds one step; a perfect matching of the path in random order, one
    wide level, then random path edges; random edges, some repeated up to three
    times in a row and each in either orientation; the path without its last
    edge, so that P keeps zeros; weights that take entries subnormal."""
    g = random_connected_graph(rng, n, extra=n // 4)
    star = build_graph(n, [(1, v) for v in range(2, n + 1)])
    path = build_graph(n, [(v, v + 1) for v in range(1, n)])
    draw = lambda order, k: [order[int(v)] for v in rng.integers(0, len(order), k)]
    matching = [path.sorted_edges[int(k)] for k in rng.permutation(range(0, n - 1, 2))]
    repeated = []
    for e in draw(g.sorted_edges, 200):
        repeated += [e[::-1] if rng.random() < 0.5 else e] * int(rng.choice([1, 1, 2, 3]))
    return [("star", random_float_weights(rng, star), draw(star.sorted_edges, 300)),
            ("matching", random_float_weights(rng, path), matching + draw(path.sorted_edges, 200)),
            ("repeated", random_float_weights(rng, g), repeated),
            ("zeros", random_float_weights(rng, path), draw(path.sorted_edges[:-1], 300)),
            ("subnormal", _tiny_weights(rng, g), draw(g.sorted_edges, 20 * n))]


@pytest.mark.parametrize("n", [PLAIN_ROWS_BELOW, 50, LEVEL_ROWS_BELOW - 1, LEVEL_ROWS_BELOW])
def test_levels_match_per_row_reference(monkeypatch, n):
    rng = np.random.default_rng(1800 + n)
    for name, ws, edges in _level_cases(rng, n):
        calls = _counted_kernel_steps(monkeypatch)
        tracker = ProductTracker(ws)
        for start in range(0, len(edges), SPARSE_RECORD_EVERY):
            tracker.advance(edges[start:start + SPARSE_RECORD_EVERY])
        expected = _per_row_product(ws, edges)
        assert tracker.P.tobytes() == expected.tobytes(), name
        wide = n < LEVEL_ROWS_BELOW and name != "star"
        assert calls["singles"] + calls["levels"] == len(edges) and bool(calls["levels"]) == wide
        if name == "matching" and wide:
            assert calls["levels"] >= n // 2
        if name == "zeros":
            assert (expected[:, -1] == 0).sum() == n - 1
        if name == "subnormal":
            assert ((0 < expected) & (expected < np.finfo(float).tiny)).any()


@pytest.mark.parametrize("n", range(2, PLAIN_ROWS_BELOW + 3))
def test_plain_rows_match_numpy_rows(monkeypatch, n):
    rng = np.random.default_rng(1300 + n)
    g = random_connected_graph(rng, n, extra=n % 3)
    path = build_graph(n, [(v, v + 1) for v in range(1, n)])
    subnormal = False
    # on the path, edges drawn without the last one leave node n apart: P keeps zeros
    for ws, order in ((random_float_weights(rng, g), g.sorted_edges),
                      (random_rational_weights(rng, g).to_float(), g.sorted_edges),
                      (random_float_weights(rng, path), path.sorted_edges[:-1] or path.sorted_edges),
                      (_tiny_weights(rng, g), g.sorted_edges)):
        # each edge in either orientation, some repeated up to three times in a row
        edges = []
        for k in rng.integers(0, len(order), 400):
            e = order[int(k)]
            edges += [e[::-1] if rng.random() < 0.5 else e] * int(rng.choice([1, 1, 2, 3]))
        level_rows, numpy_rows, plain_rows = _stepped_each_way(monkeypatch, ws, edges, 1150)
        assert level_rows == numpy_rows == plain_rows
        P = np.frombuffer(plain_rows[0]).reshape(n, n)
        if ws.graph is path and n > 2:
            assert (P[:, -1] == 0).sum() == n - 1
        subnormal |= any(0 < row[3] < np.finfo(float).tiny for row in plain_rows[1])
    assert subnormal or n <= 4  # the tiny weights go subnormal in products from n = 5 on


def _edges_with_stops(ws, order, rng, warm, offsets, length):
    """``length`` random edges over ``order`` to step after the ``warm`` ones,
    and the tols that stop a block call over them at ``offsets``: at each of
    those the edge is the first of ``order`` that takes the seminorm below every
    earlier step of the call, where one does (never on a disconnected path)."""
    pairs = dict(ws.to_float().items())

    def step(P, e):
        (a, b), i, j = pairs[e], e[0] - 1, e[1] - 1
        P[i], P[j] = (1.0 - a) * P[i] + a * P[j], b * P[i] + (1.0 - b) * P[j]
        return P

    P, low, edges, tols = np.eye(ws.graph.n), np.inf, [], {}
    for e in warm:
        step(P, e)
    for k in range(length):
        chosen = next((e for e in order if seminorm(step(P.copy(), e)) < low), None) if k in offsets else None
        e = chosen or order[int(rng.integers(0, len(order)))]
        s = seminorm(step(P, e))
        if chosen:
            tols[k] = float(np.nextafter(s, np.inf))
        low = min(low, s)
        edges.append(e[::-1] if rng.random() < 0.5 else e)
    return edges, tols


@pytest.mark.parametrize("n", range(2, PLAIN_BLOCK_BELOW + 3))
def test_plain_block_matches_numpy_block(monkeypatch, n):
    # stops at part offsets 0, 1, K - 1, K, mid-part and the last edge, after a
    # warm-up that leaves the seminorm below 1, with weights in (0.001, 0.01) so
    # that it is still far above rounding at the last edge; zeros on the path
    # without its last edge, subnormal entries from the tiny weights
    K = block_length(n)
    offsets = {0, 1, K - 1, K, K + K // 2, 2 * K + 1}
    rng = np.random.default_rng(1700 + n)
    g = random_connected_graph(rng, n, extra=n % 3)
    path = build_graph(n, [(v, v + 1) for v in range(1, n)])
    subnormal = False
    for ws, order, every_stop in ((uniform_weights(rng, g, 0.001, 0.01), g.sorted_edges, True),
                                  (random_float_weights(rng, path),
                                   path.sorted_edges[:-1] or path.sorted_edges, False),
                                  (_tiny_weights(rng, g), g.sorted_edges, False)):
        warm = [order[int(k)] for k in rng.integers(0, len(order), 30 * n)]
        edges, tols = _edges_with_stops(ws, order, rng, warm, offsets, 2 * K + 2)
        assert set(tols) == offsets if every_stop else 0 in tols
        for tol, stop in [(0.0, len(edges) - 1)] + [(tol, k) for k, tol in tols.items()]:
            got = []
            for limit in (0, 10**9):
                monkeypatch.setattr(engine, "PLAIN_BLOCK_BELOW", limit)
                tracker = ProductTracker(ws)
                tracker.advance(warm)
                rows = tracker.block(edges, tol)
                got.append((rows, tracker.t, tracker.P.tobytes(), tracker.min_entry()))
            assert got[0] == got[1]
            assert len(rows) == stop + 1 and tracker.t == len(warm) + stop + 1
            subnormal |= any(0 < row[3] < np.finfo(float).tiny for row in rows)
        if ws.graph is path and n > 2:
            assert (tracker.P[:, -1] == 0).sum() == n - 1
    assert subnormal or n <= 6  # the tiny weights go subnormal in these rows from n = 7 on


def test_contraction_inequality_random_products():
    rng = np.random.default_rng(71)
    for _ in range(200):
        n = 3 + int(rng.integers(0, 4))
        g = random_connected_graph(rng, n, extra=2)
        ws = random_float_weights(rng, g)
        P = random_local_product(rng, ws, int(rng.integers(1, 6)))
        Q = random_local_product(rng, ws, int(rng.integers(1, 6)))
        assert seminorm(P @ Q) <= ergodicity_coefficient(P) * seminorm(Q) + 1e-12


def test_spanning_string_products_scramble():
    rng = np.random.default_rng(73)
    for _ in range(20):
        n = 3 + int(rng.integers(0, 6))
        g = random_connected_graph(rng, n, extra=1)
        ws = random_float_weights(rng, g)
        tracker = ProductTracker(ws)
        for _ in range(max(1, n // 2)):
            tracker.advance([g.sorted_edges[int(idx)]
                             for idx in rng.permutation(len(g.sorted_edges))])
        P = tracker.P
        assert is_scrambling(P)
        assert ergodicity_coefficient(P) <= 1 - float(P[P > 0].min()) + 1e-12


def test_min_nonzero_monotone_under_constant_support():
    # exact-arithmetic check: dense rational products, one tracked column
    rng = np.random.default_rng(79)
    for _ in range(10):
        n = 3 + int(rng.integers(0, 3))
        g = random_connected_graph(rng, n, extra=1)
        pairs = {
            e: (F(int(rng.integers(1, 12)), 12), F(int(rng.integers(1, 12)), 12))
            for e in g.sorted_edges
        }
        ws = WeightSet(g, pairs)
        P = [[F(1) if r == c else F(0) for c in range(n)] for r in range(n)]
        col = int(rng.integers(0, n))
        for _ in range(25):
            e = g.sorted_edges[int(rng.integers(0, len(g.sorted_edges)))]
            A = local_matrix(ws, e)
            old = [row[col] for row in P]
            P = [
                [sum(A[r][k] * P[k][c] for k in range(n)) for c in range(n)]
                for r in range(n)
            ]
            new = [row[col] for row in P]
            if {k for k, v in enumerate(old) if v > 0} == {
                k for k, v in enumerate(new) if v > 0
            }:
                assert min(v for v in new if v > 0) >= min(v for v in old if v > 0)


def test_run_accepts_exact_weight_sets(balanced):
    report = run(balanced, Schedule.random(balanced.graph, seed=5, steps=5000))
    assert report.converged
    expected = (F(1, 2), F(1, 3), F(1, 6))
    assert max(abs(a - float(b)) for a, b in zip(report.p_hat, expected)) < 1e-8


def test_run_trace_without_spanning_window_has_no_bounds(balanced_float):
    report = run(balanced_float, Schedule.random(balanced_float.graph, seed=2, steps=200))
    assert report.m_spanning is None
    assert report.max_bound_violation is None
    assert all(row.bound is None for row in report.trace)


def test_ergodicity_range_on_random_stochastic_matrices():
    rng = np.random.default_rng(89)
    for _ in range(50):
        n = 2 + int(rng.integers(0, 5))
        m = rng.uniform(0.0, 1.0, size=(n, n))
        m = m / m.sum(axis=1, keepdims=True)
        mu = ergodicity_coefficient(m)
        assert 0.0 <= mu <= 1.0
        assert seminorm(m) >= 0.0


def test_schedule_validation(triangle):
    with pytest.raises(errors.UnknownEdge):
        Schedule.explicit(triangle, [(1, 4)])
    with pytest.raises(errors.InvalidSchedule):
        Schedule.periodic(triangle, [], 5)
    with pytest.raises(errors.InvalidSchedule):
        Schedule.periodic(triangle, [(1, 2)], 0)
    with pytest.raises(errors.InvalidSchedule):
        Schedule.random(triangle, seed=None, steps=5)
    with pytest.raises(errors.InvalidSchedule):
        Schedule.random(triangle, seed=-1, steps=5)
    with pytest.raises(errors.InvalidSchedule):
        Schedule.random(triangle, seed=1, steps=0)
    assert len(Schedule.periodic(triangle, [(1, 2), (2, 3)], 4)) == 8
