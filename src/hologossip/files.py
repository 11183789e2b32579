"""On-disk formats: graph, weights and schedule files, traces, run reports.

All structured documents are JSON with 1-indexed nodes:

* graph:    {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}
* weights:  [{"edge": [1, 2], "a_ij": 0.2, "a_ji": 0.3}, ...] where a value
  may also be an exact rational string "p/q"; rational strings switch the
  whole set to exact mode and mixing the two kinds is an error.
* schedule: {"type": "explicit", "edges": [...]}
            {"type": "periodic", "period": [...], "repetitions": 100}
            {"type": "random", "steps": 10000, "seed": 7}   (integer seed >= 0 required)

Run reports are JSON; traces are tab-separated text with one row per
recorded step (t, edge, seminorm, bound, min_entry; bound left empty when
no decay certificate applies).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .engine import RunReport, Schedule
from .errors import FileFormatError, InvalidSchedule, MixedScalarKinds
from .graph import Graph, build_graph
from .weights import WeightSet

_RATIONAL_RE = re.compile(r"^\s*[+-]?\d+\s*/\s*[1-9]\d*\s*$")


def parse_scalar(value, where: str):
    """JSON number -> float; string 'p/q' -> Fraction, with any whitespace
    around its sign, digits and slash left out."""
    if isinstance(value, bool):
        raise FileFormatError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError as exc:
            raise FileFormatError(f"{where}: integer outside the float64 range") from exc
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise FileFormatError(f"{where}: {value!r} is not a rational 'p/q' string")
        try:
            return Fraction("".join(value.split()))
        except ValueError as exc:  # a part past Python's 4300-digit conversion limit
            raise FileFormatError(f"{where}: not readable as a rational: {exc}") from exc
    raise FileFormatError(f"{where}: expected a number or 'p/q' string")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an int past 4300 digits, deep nesting
        raise FileFormatError(f"{path}: not readable as JSON: {exc}") from exc


def _is_pair(raw) -> bool:
    """A JSON pair of integers; the ``type`` tests leave out booleans."""
    return type(raw) is list and len(raw) == 2 and type(raw[0]) is int and type(raw[1]) is int


def _edge_list(doc: dict, key: str, where) -> list:
    """The list of integer pairs under ``key``; absent reads as empty."""
    raw = doc.get(key, [])
    if type(raw) is not list:
        raise FileFormatError(f"{where}: '{key}' must be a list of pairs")
    for k, pair in enumerate(raw):
        if not _is_pair(pair):
            raise FileFormatError(f"{where}: {key}[{k}]: edge must be a pair of integers")
    return raw


def load_graph(path) -> Graph:
    doc = _load_json(path)
    if type(doc) is not dict:
        raise FileFormatError(f"{path}: graph file must be a JSON object")
    if type(doc.get("n")) is not int:
        raise FileFormatError(f"{path}: missing integer field 'n'")
    return build_graph(doc["n"], _edge_list(doc, "edges", path))


def load_weights(path, graph: Graph) -> WeightSet:
    """Grammar, duplicate and mixed-kind errors in any record come before WeightSet's."""
    doc = _load_json(path)
    if type(doc) is not list:
        raise FileFormatError(f"{path}: weights file must be a JSON list")
    pairs = {}
    exact = 0  # values given as 'p/q' strings
    for k, rec in enumerate(doc):
        if type(rec) is not dict or "edge" not in rec or "a_ij" not in rec or "a_ji" not in rec:
            raise FileFormatError(f"{path}: record {k}: needs fields edge, a_ij, a_ji")
        edge, a, b = rec["edge"], rec["a_ij"], rec["a_ji"]
        if not _is_pair(edge):
            raise FileFormatError(f"{path}: record {k}: edge must be a pair of integers")
        if type(a) is not float:
            a = parse_scalar(a, f"{path}: record {k}: a_ij")
            exact += type(a) is Fraction
        if type(b) is not float:
            b = parse_scalar(b, f"{path}: record {k}: a_ji")
            exact += type(b) is Fraction
        i, j = edge
        if (i, j) in pairs or (j, i) in pairs:
            raise FileFormatError(f"{path}: record {k}: duplicate edge {edge}")
        pairs[i, j] = (a, b)
    if 0 < exact < 2 * len(pairs):
        raise MixedScalarKinds(f"{path}: mixes rational 'p/q' strings and plain numbers")
    return WeightSet(graph, pairs)


def weights_to_json(ws: WeightSet) -> str:
    """The weights file of ``ws``: the bytes of ``json.dumps(records, indent=2)``
    and a newline. Floats in (0, 1) are finite, so ``json`` writes their repr."""
    record = '  {\n    "edge": [\n      %d,\n      %d\n    ],\n    "a_ij": %s,\n    "a_ji": %s\n  }'
    show = '"{}"'.format if ws.exact else (lambda v: repr(float(v)))  # str(Fraction) is 'p/q'
    body = ",\n".join([record % (i, j, show(a), show(b)) for (i, j), (a, b) in ws.items()])
    return f"[\n{body}\n]\n" if body else "[]\n"


def load_schedule(path, graph: Graph, seed_override=None) -> Schedule:
    doc = _load_json(path)
    where = str(path)
    if not isinstance(doc, dict) or "type" not in doc:
        raise FileFormatError(f"{where}: schedule needs a 'type' field")
    kind = doc["type"]
    try:
        if kind == "explicit":
            return Schedule.explicit(graph, _edge_list(doc, "edges", where))
        if kind == "periodic":
            period = _edge_list(doc, "period", where)
            reps = doc.get("repetitions")
            if type(reps) is not int or reps < 1:
                raise FileFormatError(f"{where}: 'repetitions' must be a positive integer")
            return Schedule.periodic(graph, period, reps)
        if kind == "random":
            steps = doc.get("steps")
            if type(steps) is not int or steps < 1:
                raise FileFormatError(f"{where}: 'steps' must be a positive integer")
            seed = seed_override if seed_override is not None else doc.get("seed")
            if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
                raise FileFormatError(f"{where}: 'seed' must be an integer")
            return Schedule.random(graph, seed, steps)
    except InvalidSchedule as exc:
        raise FileFormatError(f"{where}: {exc}") from exc
    raise FileFormatError(f"{where}: unknown schedule type {kind!r}")


def trace_to_text(report: RunReport) -> str:
    lines = ["t\tedge\tseminorm\tbound\tmin_entry"]
    for t, (i, j), s, bound, low in report.trace:  # TraceRow fields
        bound = "" if bound is None else f"{bound:.17g}"
        lines.append(f"{t}\t({i},{j})\t{s:.17g}\t{bound}\t{low:.17g}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: RunReport) -> dict:
    return {
        "p_hat": report.p_hat,
        "steps": report.steps,
        "converged": report.converged,
        "final_seminorm": report.final_seminorm,
        "max_bound_violation": report.max_bound_violation,
        "spanning": report.spanning,
        "m_spanning": report.m_spanning,
        "epsilon": report.epsilon,
        "tol": report.tol,
        "schedule": {"kind": report.schedule_kind, "seed": report.schedule_seed},
        "arithmetic": "float64",
    }


def save_report(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def save_trace(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_text(report))
