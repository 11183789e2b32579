"""Per-command correctness oracle.

``check(cmd, code, out, err, workdir)`` returns None when the command's exit
code and outputs are right, or a one-line reason otherwise. It reads the
manifest entry written by ``gen.py`` and the files the command wrote, and it
never imports hologossip: expected values come from the generator's targets,
not from the closed-form code under test.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import gen

#: Float-mode tolerance on limit entries and design ratios.
VECTOR_TOL = 1e-12
#: Converged simulations must land this close to the designed target.
CONVERGED_TOL = 1e-8


def parse_scalar(text: str):
    return Fraction(text) if "/" in text else float(text)


def _vector(line: str, prefix: str) -> list:
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {line[:40]!r}")
    return [parse_scalar(t) for t in line[len(prefix):].split()]


def _probability(vec, n: int) -> str | None:
    if len(vec) != n:
        return f"{len(vec)} entries for {n} nodes"
    if any(v <= 0 for v in vec):
        return "non-positive entry"
    total = sum(vec)
    if all(isinstance(v, Fraction) for v in vec):
        return None if total == 1 else f"entries sum to {total}"
    return None if abs(float(total) - 1.0) <= 1e-9 else f"entries sum to {float(total)}"


def _spanning_tree(n: int, text: str, edges: set) -> str | None:
    pairs = sorted(tuple(int(v) for v in t.strip("()").split(",")) for t in text.split())
    if len(pairs) != n - 1 or any(p not in edges for p in pairs):
        return "tree is not n-1 graph edges"
    return "tree has a cycle" if gen.chords(n, pairs) else None


def _check_design(cmd, workdir) -> str | None:
    with open(os.path.join(workdir, cmd["output"]), encoding="utf-8") as fh:
        records = json.load(fh)
    p = [parse_scalar(t) for t in cmd["target"]]
    graph_edges = {tuple(e) for e in _graph(cmd, workdir)["edges"]}
    seen = set()
    for rec in records:
        i, j = rec["edge"]
        seen.add((min(i, j), max(i, j)))
        a, b = (parse_scalar(v) if isinstance(v, str) else float(v)
                for v in (rec["a_ij"], rec["a_ji"]))
        if not (0 < a < 1 and 0 < b < 1):
            return f"edge ({i},{j}): weight outside (0,1)"
        want = p[j - 1] / p[i - 1]
        if isinstance(a, Fraction) and isinstance(b, Fraction) and isinstance(want, Fraction):
            if a / b != want:
                return f"edge ({i},{j}): a_ij/a_ji = {a / b}, want {want}"
        elif abs(float(a) / float(b) - float(want)) > VECTOR_TOL * float(want):
            return f"edge ({i},{j}): a_ij/a_ji = {float(a) / float(b)!r}, want {float(want)!r}"
    if seen != graph_edges:
        return "weights do not cover exactly the graph's edges"
    return None


def _graph(cmd, workdir) -> dict:
    with open(os.path.join(workdir, cmd["argv"][1]), encoding="utf-8") as fh:
        return json.load(fh)


def _check_closed_form(cmd, out: str, workdir) -> str | None:
    kind, lines = cmd["check"], out.splitlines()
    balanced = cmd["balanced"]
    if kind == "check":
        want = "holonomic: true" if balanced else "holonomic: false"
        return None if lines[:1] == [want] else f"first line {lines[:1]}, want {want!r}"
    if kind == "limit":
        if not balanced:
            return None if not out else "unbalanced limit printed a vector"
        got = lines[0].split() if lines else []
        if cmd["kind"] == "exact":
            return None if got == cmd["target"] else "exact limit differs from target"
        if len(got) != len(cmd["target"]):
            return f"limit has {len(got)} entries, want {len(cmd['target'])}"
        worst = max(abs(float(a) - float(b)) for a, b in zip(got, cmd["target"]))
        return None if worst <= VECTOR_TOL else f"limit off target by {worst:.3e}"
    # witness
    if balanced:
        return None if lines == ["holonomic: no witness"] else "balanced set got a witness"
    if len(lines) != 4:
        return f"witness printed {len(lines)} lines, want 4"
    n = cmd["n"]
    edges = {tuple(e) for e in _graph(cmd, workdir)["edges"]}
    for line in (lines[0], lines[2]):
        bad = _spanning_tree(n, line.split(":", 1)[1], edges)
        if bad:
            return bad
    v1, v2 = _vector(lines[1], "vector 1: "), _vector(lines[3], "vector 2: ")
    bad = _probability(v1, n) or _probability(v2, n)
    if bad:
        return bad
    if max(abs(float(a) - float(b)) for a, b in zip(v1, v2)) <= VECTOR_TOL:
        return "witness vectors are not distinct"
    return None


def _check_simulate(cmd, out: str, workdir) -> str | None:
    lines = out.splitlines()
    p = [float(parse_scalar(t)) for t in cmd["target"]]
    if cmd["converge"]:
        p_hat = _vector(lines[0], "p_hat: ")
        if not lines[2].startswith("converged: true"):
            return "did not converge"
        worst = max(abs(a - b) for a, b in zip(p_hat, p))
        if worst > CONVERGED_TOL:
            return f"converged p_hat off target by {worst:.3e}"
        steps = int(lines[1].split()[1])
        if not 0 < steps <= cmd["scheduled"]:
            return f"steps {steps} outside 1..{cmd['scheduled']}"
        if cmd["periodic"]:
            viol = [ln for ln in lines if ln.startswith("max_bound_violation: ")]
            if not viol or float(viol[0].split()[1]) > 0:
                return f"periodic ledger not clean: {viol}"
        return None
    with open(os.path.join(workdir, cmd["report"]), encoding="utf-8") as fh:
        rep = json.load(fh)
    if rep["converged"] or rep["steps"] != cmd["scheduled"]:
        return f"budget run stopped at {rep['steps']} of {cmd['scheduled']}"
    worst = max(abs(a - b) for a, b in zip(rep["p_hat"], p))
    if not worst <= rep["final_seminorm"]:
        return f"|p_hat - target| {worst:.3e} > final seminorm {rep['final_seminorm']:.3e}"
    if cmd["periodic"]:
        if rep["max_bound_violation"] is None or rep["max_bound_violation"] > 0:
            return f"periodic ledger violation {rep['max_bound_violation']}"
    with open(os.path.join(workdir, cmd["trace"]), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if int(rows[-1].split("\t")[0]) != rep["steps"]:
        return "trace does not end at the last step"
    return None


def check(cmd: dict, code, out: str, err: str, workdir: str) -> str | None:
    """None when the command behaved as the manifest says, else why not."""
    if code != cmd["expect"]:
        first = err.strip().splitlines()[-1:] if err.strip() else []
        return f"exit {code}, want {cmd['expect']} {first}"
    if "Traceback" in err:
        return "traceback on stderr"
    try:
        if cmd["check"] == "design":
            return _check_design(cmd, workdir)
        if cmd["check"] == "simulate":
            return _check_simulate(cmd, out, workdir)
        return _check_closed_form(cmd, out, workdir)
    except (ValueError, IndexError, KeyError, OSError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
