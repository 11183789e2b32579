"""Spans around the calls into each hologossip layer, from outside the package.

``Tracer.install()`` replaces selected functions at every module attribute
that binds them (``hologossip.cli.consensus_limit``,
``hologossip.limit.walk_ratio``, ...) and two methods on their classes; the
replacements record a span per call and the work counts of ``count``.
``uninstall()`` puts the originals back, so untraced passes run the
unmodified code. Nothing under ``src/`` changes.

Per-step and per-element calls (``ProductTracker.step``, ``weights.ratio``)
are never wrapped; their cost shows up as the self time of the caller.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

#: (layer, home module, attribute) of each traced function.
FUNCTIONS = (
    ("weights", "hologossip.weights", "walk_ratio"),
    ("weights", "hologossip.weights", "check_holonomy"),
    ("weights", "hologossip.weights", "entry_floor"),
    ("graph", "hologossip.graph", "spanning_tree"),
    ("graph", "hologossip.graph", "fundamental_cycles"),
    ("graph", "hologossip.graph", "spanning_tree_containing"),
    ("graph", "hologossip.graph", "build_graph"),
    ("limit", "hologossip.limit", "consensus_limit"),
    ("limit", "hologossip.limit", "tree_vector"),
    ("limit", "hologossip.limit", "nonholonomy_witness_trees"),
    ("engine", "hologossip.engine", "run"),
    ("engine", "hologossip.engine", "classify_schedule"),
    ("design", "hologossip.design", "design_for"),
    ("design", "hologossip.design", "sample_box_point"),
    ("files", "hologossip.files", "load_graph"),
    ("files", "hologossip.files", "load_weights"),
    ("files", "hologossip.files", "load_schedule"),
    ("files", "hologossip.files", "weights_to_json"),
    ("files", "hologossip.files", "save_trace"),
    ("files", "hologossip.files", "save_report"),
)

#: (span name, home module, class, method) of each traced method.
METHODS = (
    ("weights.WeightSet", "hologossip.weights", "WeightSet", "__init__"),
    ("engine.edge_list", "hologossip.engine", "Schedule", "edge_list"),
)


def count(name: str, args, result, counts) -> None:
    """Add the work counts measured at the boundary of span ``name``."""
    if name == "weights.walk_ratio":
        nodes = args[1].nodes if hasattr(args[1], "nodes") else args[1]
        counts["weights.walk_ratio.steps"] += max(0, len(nodes) - 1)
    elif name == "graph.fundamental_cycles":
        counts["graph.fundamental_cycles.count"] += len(result)
    elif name == "engine.run":
        counts["engine.runs"] += 1
        counts["engine.steps"] += result.steps
        counts["engine.steps_scheduled"] += len(args[1])
        counts["engine.trace_rows"] += len(result.trace)
        counts["engine.converged"] += bool(result.converged)
    elif name in ("files.load_graph", "files.load_weights", "files.load_schedule"):
        counts["files.bytes_read"] += os.path.getsize(args[0])
    elif name in ("files.save_trace", "files.save_report"):
        counts["files.bytes_written"] += os.path.getsize(args[1])
    elif name == "files.weights_to_json":
        counts["files.bytes_written"] += len(result.encode())


class Tracer:
    """Records spans (id, name, start, end, parent id, command id) in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, command]
        self.counts = defaultdict(int)
        self.command = None
        self._stack = []
        self._saved = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; return its result."""
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.command]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        self.counts[name + ".calls"] += 1
        count(name, args, result, self.counts)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "hologossip" or k.startswith("hologossip."))]
        for layer, home, attr in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for name, home, cls_name, attr in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict:
        """Total and self time (ms) per span name; self time is the span's
        duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)
        self_t = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += (end - start) * 1e3
            self_t[name] += (end - start - child[k]) * 1e3
        return {"ms": dict(total), "self_ms": dict(self_t)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, command) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "command": command}) + "\n")
