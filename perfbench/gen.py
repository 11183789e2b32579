"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes graph, weights and schedule
JSON files plus ``manifest.json`` into ``out_dir``. The manifest lists the
commands of one pass in the order they run, each with its argv (paths are
relative to ``out_dir``), the exit code it must return and what the oracle
checks. Nothing here imports hologossip: designed weights are built from the
ratio fiber directly, so the oracle's expectations do not come from the code
under test. The same seed gives byte-identical files, and no input is
filtered or re-drawn after the fact.

Families are the path, the cycle and a random tree plus chords.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

WORKLOADS = ("closed-form", "sim-small", "sim-large")

#: Closed-form sets that get one chord weight perturbed, so that a third of
#: the sets are unbalanced. Paths have no cycle and stay balanced. The choice
#: is fixed rather than drawn, so that every seed has the same mix of fast
#: (rejected) and slow (balanced) ``limit`` calls.
UNBALANCED = {
    ("cycle", 50, "float"),
    ("cycle", 200, "exact"),
    ("tree", 50, "exact"),
    ("tree", 200, "float"),
    ("tree", 2000, "float"),
}

#: Factors applied to one chord weight of an unbalanced set.
PERTURB = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))

#: The balanced ``limit`` commands at this size take seconds each, most of a
#: closed-form pass. They are marked heavy: an untraced run gives them a
#: place in only one round out of ``HEAVY_EVERY`` (see ``worker.py``), so that
#: the other commands are sampled many times across the run.
HEAVY_N = 2000
HEAVY_EVERY = 4

SIM_SMALL_GRAPHS = 100
SIM_SMALL_COMMANDS = 200
SIM_SMALL_RANDOM_STEPS = 150_000
SIM_SMALL_PERIODIC_STEPS = 60_000
#: Step budgets of sim-large; at these sizes the product stays far above the
#: default tolerance, so every command runs its whole schedule. They give the
#: commands at both sizes latencies in the same range, so the median latency
#: is not taken across a gap between two clusters.
SIM_LARGE_STEPS = {50: 8000, 200: 3000}
SIM_LARGE_PER_GRAPH = 6


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, *salt]))


def graph_edges(rng, family: str, n: int) -> list:
    """Sorted canonical edges of one graph of the family on nodes 1..n."""
    if family == "path":
        return [(i, i + 1) for i in range(1, n)]
    if family == "cycle":
        return sorted([(i, i + 1) for i in range(1, n)] + [(1, n)])
    # random recursive tree over a random relabeling, plus chords
    order = [int(v) + 1 for v in rng.permutation(n)]
    edges = set()
    for k in range(1, n):
        u, v = order[k], order[int(rng.integers(0, k))]
        edges.add((min(u, v), max(u, v)))
    chords = max(1, n // 10)
    while len(edges) < n - 1 + chords:
        u, v = (int(a) + 1 for a in rng.choice(n, size=2, replace=False))
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def chords(n: int, edges) -> list:
    """Edges that close a cycle over a forest grown in ascending edge order."""
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    out = []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            out.append((i, j))
        else:
            parent[ri] = rj
    return out


def target(rng, n: int, kind: str) -> list:
    """Positive distribution with entries num/total, num drawn from 1..4."""
    nums = [int(v) for v in rng.integers(1, 5, size=n)]
    total = sum(nums)
    if kind == "exact":
        return [Fraction(v, total) for v in nums]
    return [v / total for v in nums]


def box(rng, m: int, kind: str) -> list:
    """One fiber parameter per edge, kept in [0.4, 0.6]."""
    if kind == "exact":
        return [Fraction(int(k), 20) for k in rng.integers(8, 13, size=m)]
    return [float(v) for v in rng.uniform(0.4, 0.6, size=m)]


def designed(edges, p, x) -> dict:
    """Weights on the ratio fiber: a_ij / a_ji = p_j / p_i on every edge."""
    pairs = {}
    for (i, j), t in zip(edges, x):
        r = p[j - 1] / p[i - 1]
        pairs[(i, j)] = (r * t, t) if r <= 1 else (t, t / r)
    return pairs


def scalar_text(v) -> str:
    """How a value is written on a command line or in the manifest."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(float(v))


def _write(out_dir: str, name: str, doc) -> str:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return name


def write_graph(out_dir: str, name: str, n: int, edges) -> str:
    return _write(out_dir, name, {"n": n, "edges": [list(e) for e in edges]})


def write_weights(out_dir: str, name: str, pairs: dict) -> str:
    def js(v):
        return scalar_text(v) if isinstance(v, Fraction) else float(v)

    records = [
        {"edge": list(e), "a_ij": js(a), "a_ji": js(b)}
        for e, (a, b) in sorted(pairs.items())
    ]
    return _write(out_dir, name, records)


def _closed_form(seed: int, out_dir: str) -> list:
    commands = []
    sets = [
        (n, family, kind)
        for n in (50, 200, 2000)
        for family in ("path", "cycle", "tree")
        # exact weights only up to n=200: the exact limit on a 2000-node
        # path takes tens of seconds per call
        for kind in (("float", "exact") if n <= 200 else ("float",))
    ]
    for k, (n, family, kind) in enumerate(sets):
        rng = _rng(seed, 1, k)
        edges = graph_edges(rng, family, n)
        p = target(rng, n, kind)
        x = box(rng, len(edges), kind)
        tag = f"cf{k:02d}"
        g = write_graph(out_dir, f"{tag}_graph.json", n, edges)
        p_text = [scalar_text(v) for v in p]
        case = {"n": n, "family": family, "kind": kind, "target": p_text}
        balanced = (family, n, kind) not in UNBALANCED
        design_seed = int(rng.integers(0, 2**31))
        for flag, value, out in (
            ("--x", ",".join(scalar_text(v) for v in x), f"{tag}_design_x.json"),
            ("--seed", str(design_seed), f"{tag}_design_seed.json"),
        ):
            commands.append({
                "argv": ["design", g, "--target", ",".join(p_text), flag, value, "-o", out],
                "expect": 0, "check": "design", "output": out, **case,
            })
        if balanced:
            w = f"{tag}_design_x.json"  # read what design just wrote
        else:
            pairs = designed(edges, p, x)
            candidates = chords(n, edges)
            e = candidates[int(rng.integers(0, len(candidates)))]
            f = PERTURB[int(rng.integers(0, len(PERTURB)))]
            a, b = pairs[e]
            pairs[e] = (a * (f if kind == "exact" else float(f)), b)
            w = write_weights(out_dir, f"{tag}_weights.json", pairs)
        for cmd in ("check", "limit", "witness"):
            expect = 0 if balanced or cmd == "witness" else 1
            commands.append({
                "argv": [cmd, g, w], "expect": expect, "check": cmd,
                "balanced": balanced, "heavy": cmd == "limit" and balanced and n == HEAVY_N,
                **case,
            })
    return commands


def _sim_graph(out_dir: str, rng, tag: str, family: str, n: int) -> dict:
    """One graph with a float and an exact designed weights file."""
    edges = graph_edges(rng, family, n)
    g = write_graph(out_dir, f"{tag}_graph.json", n, edges)
    out = {"graph": g, "edges": edges, "n": n}
    for kind in ("float", "exact"):
        p = target(rng, n, kind)
        pairs = designed(edges, p, box(rng, len(edges), kind))
        out[kind] = (write_weights(out_dir, f"{tag}_{kind}.json", pairs),
                     [scalar_text(v) for v in p])
    return out


def _periodic(out_dir: str, rng, name: str, edges, steps: int) -> tuple:
    """A random order of all edges repeated to about ``steps`` steps."""
    period = [list(edges[int(k)]) for k in rng.permutation(len(edges))]
    reps = -(-steps // len(period))
    _write(out_dir, name, {"type": "periodic", "period": period, "repetitions": reps})
    return name, len(period) * reps


def _sim_small(seed: int, out_dir: str) -> list:
    families = ("cycle", "path", "tree")
    graphs = []
    for k in range(SIM_SMALL_GRAPHS):
        rng = _rng(seed, 2, k)
        # every family at every n = 3..8; graph 0 is the triangle
        family, n = families[k % 3], 3 + (k // 3) % 6
        graphs.append(_sim_graph(out_dir, rng, f"ss{k:02d}", family, n))
    commands = []
    rng = _rng(seed, 2, 1000)
    for c in range(SIM_SMALL_COMMANDS):
        gr = graphs[c % SIM_SMALL_GRAPHS]
        kind = ("float", "exact")[(c // SIM_SMALL_GRAPHS) % 2]
        w, p = gr[kind]
        argv = ["simulate", gr["graph"], w]
        if c % 4 == 3:
            name, scheduled = _periodic(out_dir, rng, f"ss_sched{c:03d}.json",
                                        gr["edges"], SIM_SMALL_PERIODIC_STEPS)
            argv += ["--schedule", name]
            periodic = True
        else:
            scheduled = SIM_SMALL_RANDOM_STEPS
            argv += ["--random-steps", str(scheduled), "--seed", str(int(rng.integers(0, 2**31)))]
            periodic = False
        commands.append({
            "argv": argv, "expect": 0, "check": "simulate", "converge": True,
            "periodic": periodic, "scheduled": scheduled, "target": p, "n": gr["n"],
        })
    return commands


def _sim_large(seed: int, out_dir: str) -> list:
    commands = []
    k = 0
    for n in (50, 200):
        for family in ("cycle", "tree"):
            rng = _rng(seed, 3, k)
            gr = _sim_graph(out_dir, rng, f"sl{k}", family, n)
            k += 1
            steps = SIM_LARGE_STEPS[n]
            for r in range(SIM_LARGE_PER_GRAPH):
                c = len(commands)
                kind = ("float", "exact")[r % 2]
                w, p = gr[kind]
                argv = ["simulate", gr["graph"], w]
                periodic = r >= SIM_LARGE_PER_GRAPH // 2
                if periodic:
                    name, scheduled = _periodic(out_dir, rng, f"sl_sched{c:02d}.json",
                                                gr["edges"], steps)
                    argv += ["--schedule", name]
                else:
                    scheduled = steps
                    argv += ["--random-steps", str(steps),
                             "--seed", str(int(rng.integers(0, 2**31)))]
                trace, report = f"sl_trace{c:02d}.tsv", f"sl_report{c:02d}.json"
                argv += ["--trace", trace, "--report", report]
                commands.append({
                    "argv": argv, "expect": 1, "check": "simulate", "converge": False,
                    "periodic": periodic, "scheduled": scheduled, "target": p, "n": n,
                    "trace": trace, "report": report,
                })
    return commands


def _references(seed: int, out_dir: str) -> list:
    """Inputs of the reference records: engine steps on the cycle at n=3 and
    n=200, and the float closed-form limit on the 2000-node cycle."""
    refs = []
    for k, (n, layer, steps) in enumerate(((3, "engine", 20_000), (200, "engine", 2_000),
                                           (2000, "limit", 0))):
        rng = _rng(seed, 4, k)
        edges = graph_edges(rng, "cycle", n)
        p = target(rng, n, "float")
        refs.append({
            "case": f"{layer}-cycle{n}", "layer": layer, "n": n, "m": len(edges),
            "steps": steps, "seed": int(rng.integers(0, 2**31)),
            "graph": write_graph(out_dir, f"ref{k}_graph.json", n, edges),
            "weights": write_weights(out_dir, f"ref{k}_weights.json",
                                     designed(edges, p, box(rng, len(edges), "float"))),
            "target": [scalar_text(v) for v in p],
        })
    return refs


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the inputs of one workload and return its manifest."""
    workloads = {"closed-form": _closed_form, "sim-small": _sim_small, "sim-large": _sim_large}
    os.makedirs(out_dir, exist_ok=True)
    commands = workloads[workload](seed, out_dir)
    for cid, cmd in enumerate(commands):
        cmd["id"] = cid
    rng = _rng(seed, 5)
    tri = [(1, 2), (1, 3), (2, 3)]
    warmup = {
        "graph": write_graph(out_dir, "warmup_graph.json", 3, tri),
        "weights": write_weights(out_dir, "warmup_weights.json",
                                 designed(tri, target(rng, 3, "exact"), box(rng, 3, "exact"))),
    }
    manifest = {
        "workload": workload, "seed": seed, "commands": commands, "heavy_every": HEAVY_EVERY,
        "warmup": warmup, "references": _references(seed, out_dir),
    }
    _write(out_dir, "manifest.json", manifest)
    return manifest
