"""The measured process: runs one workload's commands through
``hologossip.cli.main(argv)`` in a closed loop and writes what it saw.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and BLAS pools pinned to one thread; the inputs already exist in
``--workdir``. Rounds over the command list, in manifest order, repeat while
another one is expected to end within ``--seconds``, and until every command
has run at least once. A command the manifest marks heavy runs in only one
round out of ``heavy_every``, the heavy commands in different rounds; the
others run in every round. When a whole round would no longer end within
``--seconds``, the last rounds run only the start of the list, without heavy
commands, that is expected to end in time. Host speed wanders by tens of
percent within seconds, so this spreads the samples of the short commands
over the whole run instead of a few short windows between the heavy ones.
With ``--trace 1`` every round is a full pass, untraced and traced passes
alternate, so the tracing overhead is measured in the same process, and the
reference records are measured after the passes. Outputs are checked by
``oracle.py`` after each round, outside the timed region.

    python3 worker.py --workdir DIR --seconds 30 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import oracle
from tracer import Tracer

LAYERS = ("cli", "files", "graph", "weights", "limit", "design", "engine")

#: Per-layer metrics and units, in the order they are reported.
PER_LAYER = (
    ("weights.walk_ratio.calls", "count"), ("weights.walk_ratio.steps", "count"),
    ("weights.walk_ratio.ms", "ms"), ("weights.check_holonomy.self_ms", "ms"),
    ("weights.WeightSet.ms", "ms"), ("weights.entry_floor.ms", "ms"),
    ("graph.spanning_tree.calls", "count"), ("graph.spanning_tree.ms", "ms"),
    ("graph.fundamental_cycles.ms", "ms"), ("graph.fundamental_cycles.count", "count"),
    ("graph.spanning_tree_containing.ms", "ms"), ("graph.build_graph.ms", "ms"),
    ("limit.consensus_limit.self_ms", "ms"), ("limit.tree_vector.ms", "ms"),
    ("limit.nonholonomy_witness_trees.self_ms", "ms"),
    ("engine.run.self_ms", "ms"), ("engine.steps", "count"), ("engine.us_per_step", "us"),
    ("engine.trace_rows", "count"), ("engine.converged_share", "ratio"),
    ("engine.edge_list.ms", "ms"), ("engine.steps_scheduled", "count"),
    ("engine.steps_used_ratio", "ratio"), ("engine.classify_schedule.ms", "ms"),
    ("design.design_for.ms", "ms"), ("design.sample_box_point.ms", "ms"),
    ("files.load_graph.ms", "ms"), ("files.load_weights.ms", "ms"),
    ("files.load_schedule.ms", "ms"), ("files.weights_to_json.ms", "ms"),
    ("files.save_trace.ms", "ms"), ("files.save_report.ms", "ms"),
    ("files.bytes_read", "B"), ("files.bytes_written", "B"),
    ("cli.main.self_ms", "ms"),
) + tuple((f"layer.{name}.self_ms", "ms") for name in LAYERS) + (
    ("share.weights_graph_limit", "ratio"), ("share.edge_list_and_run", "ratio"),
    ("share.run", "ratio"),
    ("trace.wall_s", "s"), ("trace.overhead_ms", "ms"),
    ("ref.engine_n3.us_per_step", "us"), ("ref.engine_n200.us_per_step", "us"),
    ("ref.limit_cycle2000.s", "s"),
)

#: ROADMAP reference figures, shown next to the measured records.
ROADMAP_FIGURES = {"engine-cycle3": "14.5 us/step", "engine-cycle200": "78.7 us/step",
                   "limit-cycle2000": "2.9 s"}


def round_plan(commands: list, every: int) -> list:
    """The commands of round r are ``round_plan(...)[r % every]``: the k-th of
    h heavy commands runs in the rounds with r % every == k * every // h, every
    other command in each round."""
    heavy = [c["id"] for c in commands if c.get("heavy")]
    slot = {cid: k * every // len(heavy) for k, cid in enumerate(heavy)}
    return [[c for c in commands if slot.get(c["id"], r) == r] for r in range(every)]


def run_command(main, argv, tracer=None):
    """Run one CLI command in-process; return (exit code, stdout, stderr, ms)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = tracer.span("cli.main", main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaped exception is a failed command, not a crash
            code = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
    return code, out.getvalue(), err.getvalue(), (t1 - t0) * 1e3


def per_layer(tracer: Tracer, traced_passes: int, traced_walls, untraced_walls) -> dict:
    agg, counts = tracer.aggregate(), tracer.counts
    k = traced_passes

    def ms(name):
        return agg["ms"].get(name, 0.0) / k

    def self_ms(name):
        return agg["self_ms"].get(name, 0.0) / k

    def cnt(name):
        return counts.get(name, 0) / k

    values = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_ms") and not name.startswith("layer."):
            values[name] = self_ms(name[: -len(".self_ms")])
        elif name.endswith(".ms"):
            values[name] = ms(name[: -len(".ms")])
    for name in ("weights.walk_ratio.calls", "weights.walk_ratio.steps",
                 "graph.spanning_tree.calls", "graph.fundamental_cycles.count",
                 "files.bytes_read", "files.bytes_written",
                 "engine.steps", "engine.trace_rows", "engine.steps_scheduled"):
        values[name] = cnt(name)
    steps, scheduled, runs = cnt("engine.steps"), cnt("engine.steps_scheduled"), cnt("engine.runs")
    values["engine.us_per_step"] = values["engine.run.self_ms"] * 1e3 / steps if steps else 0.0
    values["engine.converged_share"] = cnt("engine.converged") / runs if runs else 0.0
    values["engine.steps_used_ratio"] = steps / scheduled if scheduled else 0.0
    for layer in LAYERS:
        values[f"layer.{layer}.self_ms"] = sum(
            v for n, v in agg["self_ms"].items() if n.startswith(layer + ".")) / k
    wall_ms = statistics.median(traced_walls) * 1e3
    values["share.weights_graph_limit"] = sum(
        values[f"layer.{x}.self_ms"] for x in ("weights", "graph", "limit")) / wall_ms
    values["share.edge_list_and_run"] = (
        values["engine.edge_list.ms"] + values["engine.run.self_ms"]) / wall_ms
    values["share.run"] = values["engine.run.self_ms"] / wall_ms
    values["trace.wall_s"] = wall_ms / 1e3
    values["trace.overhead_ms"] = wall_ms - statistics.median(untraced_walls) * 1e3
    return values


def references(manifest: dict) -> list:
    """Time the reference cases directly through the library, untraced."""
    from hologossip import files
    from hologossip.engine import RunOptions, Schedule, run
    from hologossip.limit import consensus_limit

    records = []
    for ref in manifest["references"]:
        g = files.load_graph(ref["graph"])
        ws = files.load_weights(ref["weights"], g)
        if ref["layer"] == "engine":
            schedule = Schedule.random(g, ref["seed"], ref["steps"])
            t0 = time.perf_counter()
            rep = run(ws, schedule, RunOptions(tol=0.0))
            seconds = time.perf_counter() - t0
            ok = rep.steps == ref["steps"]
            steps = rep.steps
        else:
            t0 = time.perf_counter()
            _, p = consensus_limit(ws)
            seconds = time.perf_counter() - t0
            worst = max(abs(float(a) - float(b)) for a, b in zip(p.entries, ref["target"]))
            ok = worst <= oracle.VECTOR_TOL
            steps = 0
        records.append({
            "case": ref["case"], "layer": ref["layer"], "n": ref["n"], "m": ref["m"],
            "steps": steps, "seconds": seconds,
            "us_per_step": seconds * 1e6 / steps if steps else None,
            "roadmap": ROADMAP_FIGURES.get(ref["case"]), "correct": ok,
        })
    return records


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {k: os.environ.get(k) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        blas["library"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out_path = os.path.abspath(args.out)
    os.chdir(args.workdir)
    with open("manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)

    from hologossip import cli

    warm = manifest["warmup"]
    if run_command(cli.main, ["check", warm["graph"], warm["weights"]])[0] != 0:
        raise SystemExit("warm-up command failed")

    commands = manifest["commands"]
    tracer = Tracer() if args.trace else None
    plan = round_plan(commands, 1 if tracer else manifest["heavy_every"])
    latencies = [[] for _ in commands]
    walls = {False: [], True: []}
    failures, attempted = [], 0
    sim_steps, sim_ms = 0, 0.0
    start = time.perf_counter()
    rnd, todo = 0, plan[0]
    while True:
        traced = bool(tracer) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        results = []
        t_round = time.perf_counter()
        for cmd in todo:
            if traced:
                tracer.command = attempted + len(results)
            results.append(run_command(cli.main, cmd["argv"], tracer if traced else None))
        wall = time.perf_counter() - t_round
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        for cmd, (code, out, err, ms) in zip(todo, results):
            reason = oracle.check(cmd, code, out, err, ".")
            if reason:
                failures.append({"round": rnd, "command": cmd["id"],
                                 "argv": " ".join(cmd["argv"])[:160], "reason": reason})
            if traced:
                continue
            latencies[cmd["id"]].append(ms)
            if cmd["check"] == "simulate" and not reason:
                sim_steps += int(out.splitlines()[1].split()[1])
                sim_ms += ms
        attempted += len(todo)
        rnd += 1
        todo = plan[rnd % len(plan)]
        if not all(latencies) or (bool(tracer) and not walls[True]):
            continue
        left = args.seconds - (time.perf_counter() - start)
        if tracer:
            if statistics.median(walls[False] + walls[True]) > left:
                break
            continue
        expected = [statistics.median(latencies[c["id"]]) / 1e3 for c in todo]
        if sum(expected) > left:
            # the last rounds: no heavy commands, and only the start of the
            # command list that is expected to end in time
            fit = []
            for c, sec in zip(todo, expected):
                if not c.get("heavy"):
                    left -= sec
                    if left < 0:
                        break
                    fit.append(c)
            if not fit:
                break
            todo = fit

    result = {
        "untraced_walls": walls[False], "traced_walls": walls[True],
        "latency_ms": latencies, "attempted": attempted, "failures": failures,
        "sim_steps": sim_steps, "sim_ms": sim_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if tracer:
        result["per_layer"] = per_layer(tracer, len(walls[True]), walls[True], walls[False])
        result["references"] = references(manifest)
        refs = {r["case"]: r for r in result["references"]}
        result["per_layer"]["ref.engine_n3.us_per_step"] = refs["engine-cycle3"]["us_per_step"]
        result["per_layer"]["ref.engine_n200.us_per_step"] = refs["engine-cycle200"]["us_per_step"]
        result["per_layer"]["ref.limit_cycle2000.s"] = refs["limit-cycle2000"]["seconds"]
        tracer.write(os.path.join(os.path.dirname(out_path), "spans.jsonl"))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
