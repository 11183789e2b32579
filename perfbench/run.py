"""Seeded end-to-end benchmark of the hologossip CLI.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The inputs of the workload are generated
from ``--seed`` (``gen.py``); then ``setup_s`` is measured over several fresh
interpreters that import hologossip and run one warm-up command; then one
worker process (``worker.py``) runs the workload's commands one at a time
through ``hologossip.cli.main(argv)`` for about ``--seconds`` and checks each
output with ``oracle.py``. BLAS thread pools are pinned to one thread.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics of a traced run with ``--trace 1``.
The lines above it give every metric with its unit, the failing commands,
and with ``--trace 1`` the environment and reference records. Spans, records
and the worker's raw result are kept under ``.perfbench_runs/`` in the
checkout; generated inputs are deleted at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
from worker import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters timed for setup_s (after one untimed one that may
#: compile bytecode); the median is reported.
SETUP_REPEATS = 9
#: A run must end within this many seconds.
RUN_LIMIT_S = 170
#: Commands that must lie beyond the tail percentile.
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

WARMUP_CODE = "import sys, hologossip.cli as c; sys.exit(c.main(sys.argv[1:]))"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("HOLOGOSSIP_LOG", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(workdir: str, warmup: dict, env: dict) -> list:
    argv = [sys.executable, "-c", WARMUP_CODE, "check", warmup["graph"], warmup["weights"]]
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up command exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-300:]}")
        if k:
            times.append(dt)
    return times


def tail(values: list) -> tuple:
    """(percentile, value): the highest whole percentile that leaves at least
    TAIL_BEYOND values beyond it, by the nearest-rank rule."""
    xs = sorted(values)
    n = len(xs)
    q = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    while q > 0 and n - math.ceil(q * n / 100) < TAIL_BEYOND:
        q -= 1
    return q, xs[max(0, math.ceil(q * n / 100) - 1)]


def end_to_end(res: dict, setup: list) -> tuple:
    """Metrics from the untraced rounds, plus lines describing them."""
    # each command's median over its samples, so that percentiles are taken
    # over a fixed population whatever the number of rounds; commands run back
    # to back, so one pass takes the sum of its commands' latencies
    per_command = [statistics.median(v) for v in res["latency_ms"]]
    q, tail_ms = tail(per_command)
    counts = [len(v) for v in res["latency_ms"]]
    samples = sum(counts)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_command) / 1e3,
        "op_p50_ms": statistics.median(per_command),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    failed = len(res["failures"])
    notes = [
        f"rounds: {len(res['untraced_walls'])} untraced, {len(res['traced_walls'])} traced;"
        f" {len(per_command)} commands per pass, {min(counts)} to {max(counts)}"
        f" untraced samples per command",
        f"op_tail_ms is p{q} of the {len(per_command)} per-command medians"
        f" ({samples} latency samples)",
        f"fail_rate: {failed / res['attempted']:.6g} ({failed} of {res['attempted']} commands)",
    ]
    if res["sim_ms"]:
        notes.append(f"steps_per_s: {res['sim_steps'] / (res['sim_ms'] / 1e3):.6g} 1/s"
                     f" ({res['sim_steps']} steps over {res['sim_ms'] / 1e3:.4g} s of simulate)")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "hologossip", "cli.py")):
        print(f"error: no hologossip sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(ROOT, ".perfbench_runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    workdir = os.path.join(run_dir, "inputs")
    manifest = gen.generate(args.workload, args.seed, workdir)
    env = child_env()
    try:
        setup = measure_setup(workdir, manifest["warmup"], env)
        result_path = os.path.join(run_dir, "worker.json")
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", workdir,
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", result_path],
            env=env, timeout=budget)
        if proc.returncode != 0:
            print(f"error: worker exited {proc.returncode}", file=sys.stderr)
            return 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    e2e, notes = end_to_end(res, setup)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s,"
          f" one closed-loop client, BLAS pinned to one thread")
    for name, unit in END_TO_END:
        print(f"  {name}: {e2e[name]:.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    for f in res["failures"]:
        print(f"  FAILED round {f['round']} command {f['command']}: {f['reason']} [{f['argv']}]")
    correct = not res["failures"]
    if args.trace:
        layers = res["per_layer"]
        print(f"  environment: {json.dumps(res['environment'])}")
        for rec in res["references"]:
            per_step = f"{rec['us_per_step']:.4g} us/step" if rec["us_per_step"] else ""
            print(f"  reference {rec['case']} (n={rec['n']}, m={rec['m']}, steps={rec['steps']}):"
                  f" {rec['seconds']:.4g} s {per_step} [ROADMAP: {rec['roadmap']}]")
            correct = correct and rec["correct"]
        for name, unit in PER_LAYER:
            print(f"  {name}: {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        with open(os.path.join(run_dir, "records.json"), "w", encoding="utf-8") as fh:
            json.dump({"environment": res["environment"], "references": res["references"],
                       "per_layer": layers, "end_to_end": e2e}, fh, indent=1)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": len(res["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
