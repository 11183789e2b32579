"""Command-line front end.

Subcommands: check, limit, design, simulate, witness, verify. Exit codes
are a stable contract: 0 success, 1 domain-level negative result (not
balanced, not converged, non-interior target), 2 malformed input or
configuration. With the environment variable HOLOGOSSIP_LOG set to info
or debug, ``design -o`` reports the file it wrote on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import files
from .design import box_point, design_for, sample_box_point
from .engine import RunOptions, Schedule, run
from .errors import (
    FileFormatError,
    HologossipError,
    NonInteriorVector,
    NotHolonomic,
    ParameterOutOfRange,
)
from .limit import consensus_limit, nonholonomy_witness_trees
from .weights import check_holonomy

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _render_scalar(v) -> str:
    return files.rational_text(v) if isinstance(v, Fraction) else f"{float(v):.15g}"


def _render_vector(entries) -> str:
    return " ".join(_render_scalar(v) for v in entries)


def _parse_values(text: str, where: str):
    """Comma/space separated numbers; any 'p/q' token switches to exact mode."""
    tokens = [t for t in text.replace(",", " ").split() if t]
    if not tokens:
        raise FileFormatError(f"{where}: no values given")
    exact = any("/" in t for t in tokens)
    out = []
    for t in tokens:
        try:
            out.append(Fraction(t) if exact else float(t))
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(f"{where}: cannot parse {t!r}") from exc
    return out


def cmd_check(args) -> int:
    g = files.load_graph(args.graph)
    ws = files.load_weights(args.weights, g)
    report = check_holonomy(ws)
    print(f"holonomic: {str(report.holonomic).lower()}")
    print(f"holonomy margin: {report.margin:.3e}")
    if report.holonomic:
        return EXIT_OK
    w = report.witness
    print(f"witness cycle: {w.cycle}")
    print(f"cycle ratio: {_render_scalar(w.ratio)}")
    return EXIT_NEGATIVE


def cmd_limit(args) -> int:
    g = files.load_graph(args.graph)
    ws = files.load_weights(args.weights, g)
    try:
        _, p = consensus_limit(ws, base=args.base)
    except NotHolonomic as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: run the 'witness' subcommand for two trees with distinct limits",
              file=sys.stderr)
        return EXIT_NEGATIVE
    print(_render_vector(p.entries))
    return EXIT_OK


def cmd_design(args) -> int:
    g = files.load_graph(args.graph)
    target = _parse_values(args.target, "--target")
    if len(target) != g.n:
        raise FileFormatError(f"--target: {len(target)} entries for {g.n} nodes")
    if any(v <= 0 for v in target):
        print("error: target must lie strictly inside the simplex", file=sys.stderr)
        return EXIT_NEGATIVE
    total = sum(target)
    if not abs(total - 1) <= 1e-9:  # also NaN; no float() of an exact sum past float range
        raise FileFormatError(f"--target: entries sum to {_render_scalar(total)}, not 1")
    target = [v / total for v in target]  # exact renormalization in rational mode

    if args.x is not None:
        xs = _parse_values(args.x, "--x")
        x = box_point(g, xs)
    elif args.seed is not None:
        x = sample_box_point(g, args.seed)
    else:
        raise FileFormatError("design needs --x or --seed (no silent entropy)")

    try:
        ws = design_for(target, g, x)
    except (NonInteriorVector, ParameterOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    text = files.weights_to_json(ws)
    if args.output is not None:
        files.write_text(args.output, text)
        if os.environ.get("HOLOGOSSIP_LOG", "").strip().lower() in ("info", "debug"):
            print(f"INFO wrote weights for {len(g.sorted_edges)} edges to {args.output}",
                  file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = files.load_graph(args.graph)
    ws = files.load_weights(args.weights, g)
    if not 0 < args.tol <= 1:  # the identity's seminorm is 1: a larger tol stops at once
        raise FileFormatError(f"--tol must be in (0, 1], got {args.tol}")
    if args.schedule is not None and args.random_steps is not None:
        raise FileFormatError("give either --schedule or --random-steps, not both")
    if args.schedule is not None:
        schedule = files.load_schedule(args.schedule, g, seed_override=args.seed)
        if args.seed is not None and schedule.kind != "random":
            raise FileFormatError("--seed applies only to random schedules")
    elif args.random_steps is not None:
        if args.seed is None:
            raise FileFormatError("--random-steps needs --seed (no silent entropy)")
        schedule = Schedule.random(g, args.seed, args.random_steps)
    else:
        raise FileFormatError("simulate needs --schedule or --random-steps")
    for path in (args.trace, args.report):  # an unwritable path exits 2 before the run
        if path is not None:
            files.write_text(path, "")

    report = run(ws, schedule, RunOptions(tol=args.tol, trace=args.trace is not None))
    if args.trace is not None:
        files.save_trace(report, args.trace)
    if args.report is not None:
        files.save_report(report, args.report)

    print(f"p_hat: {_render_vector(report.p_hat)}")
    print(f"steps: {report.steps}")
    print(f"converged: {str(report.converged).lower()} (seminorm {report.final_seminorm:.3e},"
          f" tol {report.tol:.3e})")
    if report.max_bound_violation is not None:
        print(f"max_bound_violation: {report.max_bound_violation:.3e}")
    ledger_clean = report.max_bound_violation is None or report.max_bound_violation <= 0
    return EXIT_OK if report.converged and ledger_clean else EXIT_NEGATIVE


def cmd_witness(args) -> int:
    g = files.load_graph(args.graph)
    ws = files.load_weights(args.weights, g)
    wt = nonholonomy_witness_trees(ws)
    if wt is None:
        print("holonomic: no witness")
        return EXIT_OK
    def fmt_edges(tree):
        return " ".join(f"({i},{j})" for i, j in sorted(tree.edges))
    print(f"tree 1 (cycle path edges): {fmt_edges(wt.path_tree)}")
    print(f"vector 1: {_render_vector(wt.path_vector.entries)}")
    print(f"tree 2 (cycle chord edge): {fmt_edges(wt.chord_tree)}")
    print(f"vector 2: {_render_vector(wt.chord_vector.entries)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import acceptance

    wanted = None
    if args.criteria is not None:
        wanted = set(args.criteria.replace(",", " ").split())
        if not wanted or not wanted <= {str(crit.number) for crit in acceptance.CRITERIA}:
            raise FileFormatError(f"--criteria: {args.criteria!r} must name criteria "
                                  f"in 1..{len(acceptance.CRITERIA)}")
    failures = 0
    for crit in acceptance.CRITERIA:
        if wanted is not None and str(crit.number) not in wanted:
            continue
        result = crit.fn()
        status = "PASS" if result.passed else "FAIL"
        print(f"criterion {crit.number} ({crit.name}): {status} [{result.detail}]")
        failures += 0 if result.passed else 1
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


@functools.cache  # built once per process: a worker that runs many commands reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hologossip",
        description="Weighted gossip on connected graphs: cycle-balance checks, "
        "consensus limits, inverse design, and schedule simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide cycle balance of a weight set")
    p.add_argument("graph")
    p.add_argument("weights")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("limit", help="print the consensus limit vector")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--base", type=int, default=1, help="base node (default 1)")
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("design", help="emit weights whose limit is a target vector")
    p.add_argument("graph")
    p.add_argument("--target", required=True,
                   help="target entries, e.g. '1/2,1/3,1/6' or '0.5 0.3 0.2'")
    p.add_argument("--x", help="per-edge parameters in (0,1), ascending edge order")
    p.add_argument("--seed", type=int, help="seed for sampling the per-edge parameters")
    p.add_argument("--output", "-o", help="weights file to write (default stdout)")
    p.set_defaults(fn=cmd_design)

    p = sub.add_parser("simulate", help="run a gossip schedule and report the limit")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--schedule", help="schedule file (JSON)")
    p.add_argument("--random-steps", type=int,
                   help="draw this many uniformly random edges instead of a file")
    p.add_argument("--seed", type=int, help="seed for random schedules")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="stop when the product seminorm drops below this (default 1e-10)")
    p.add_argument("--trace", help="write the step trace (TSV) here")
    p.add_argument("--report", help="write the run report (JSON) here")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("witness", help="two spanning trees with distinct limits, if any")
    p.add_argument("graph")
    p.add_argument("weights")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="run the built-in acceptance checks")
    p.add_argument("--criteria", help="subset to run, e.g. '1,4,10' (default all)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HologossipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
