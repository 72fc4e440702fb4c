"""Command-line front end.

Subcommands: solve, simulate, bench, export-graph, gen. Exit codes:
0 success, 1 internal failure, 2 invalid input, 3 the split loop of
``export-graph --augmented`` did not terminate, 4 file I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .augment import FEAS_TOL
from .bench import DESK_GRID, FULL_GRID, bench_to_csv, design_instances, run_benchmark, summarize
from .cycles import build_connection_matrix
from .errors import InputError, LotpathError, NonTerminationError
from .instances import PATTERNS, generate_instances, load_instance, save_instance
from .simulate import Policy, expected_trace, simulate_policy
from .solver import solve_instance


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotpath",
        description="Review/order-up-to policies for non-stationary stochastic lot sizing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the best feasible review schedule")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("-o", "--output", help="write the solution JSON here instead of stdout")

    p = sub.add_parser("simulate", help="Monte Carlo estimate of a policy's cost")
    p.add_argument("instance", help="instance JSON file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--policy", help="policy JSON file (horizon/reviews/levels)")
    g.add_argument("--solve", action="store_true", help="simulate the solver's policy (default)")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--allow-negative-orders",
        action="store_true",
        help="set-point orders (matches the analytic cycle costs)",
    )
    p.add_argument("--trace", help="write the analytic per-period trace CSV here")
    p.add_argument("-o", "--output", help="write the report JSON here instead of stdout")

    p = sub.add_parser("bench", help="run the factorial benchmark")
    for key, default in DESK_GRID.items():  # one flag per design keyword, typed as its levels
        many = isinstance(default, tuple)
        p.add_argument(f"--{key.replace('_', '-')}", nargs="+" if many else None,
                       type=type(default[0] if many else default))
    p.add_argument("--full", action="store_true", help="larger default grid")
    p.add_argument("--summary", action="store_true", help="print factor-cell means")
    p.add_argument("-o", "--output", help="write the per-instance CSV here")

    p = sub.add_parser("export-graph", help="dump the cycle graph as CSV arcs")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument(
        "--augmented",
        action="store_true",
        help="dump the graph after the paper's split-and-re-solve loop instead of the initial one",
    )
    p.add_argument("-o", "--output", help="write the CSV here instead of stdout")

    p = sub.add_parser("gen", help="generate benchmark instances")
    p.add_argument("--pattern", choices=PATTERNS, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--fixed-cost", type=float, required=True)
    p.add_argument("--penalty", type=float, required=True)
    p.add_argument("--holding", type=float, default=1.0)
    p.add_argument("--unit-cost", type=float, default=0.0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output-dir", help="write one JSON per instance here")
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_policy(path: str) -> Policy:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    try:
        horizon, reviews, levels = data["horizon"], data["reviews"], data["levels"]
    except KeyError as e:
        raise InputError(f"{path}: missing policy field {e.args[0]!r}") from e
    if not (isinstance(reviews, list) and isinstance(levels, list)):
        raise InputError(f"{path}: policy fields 'reviews' and 'levels' must be arrays")
    try:
        return Policy(horizon=horizon, reviews=reviews, levels=levels)
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    sol = solve_instance(inst)
    _emit(json.dumps(sol.to_dict(), indent=2), args.output)
    return 0


def _cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    if args.policy:
        policy = _load_policy(args.policy)
    else:
        policy = solve_instance(inst).policy
    trace = expected_trace(inst, policy)
    carried = [inst.initial_inventory] + [row.expected_closing for row in trace.rows]
    clipped_at = [
        row.period
        for stock, row in zip(carried, trace.rows)
        if row.review and stock > row.order_up_to + FEAS_TOL
    ]
    if clipped_at and not args.allow_negative_orders:
        sys.stderr.write(
            f"warning: expected negative orders at period(s) {clipped_at} were "
            "clipped; the mean will sit above the analytic cost "
            f"{trace.total_cost:.4f} (use --allow-negative-orders to match it)\n"
        )
    report = simulate_policy(
        inst,
        policy,
        n_reps=args.reps,
        seed=args.seed,
        allow_negative_orders=args.allow_negative_orders,
    )
    if args.trace:
        Path(args.trace).write_text(trace.to_csv())
    payload = {"policy": policy.to_dict(), "report": report.to_dict()}
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _cmd_bench(args) -> int:
    grid = dict(FULL_GRID if args.full else DESK_GRID)
    grid.update((k, v) for k, v in vars(args).items() if k in grid and v is not None)
    records = run_benchmark(design_instances(**grid))
    if not records:
        raise InputError("benchmark grid is empty (check factor lists and --replicates)")
    csv_text = bench_to_csv(records)
    if args.output:
        Path(args.output).write_text(csv_text)
    if args.summary or not args.output:
        for row in summarize(records):
            sys.stdout.write(
                "{pattern} rho={rho:g} b={b:g} K={K:g}: n={n} augmented={n_augmented} "
                "violations={mean_negative_orders:.2f} pct={mean_pct_increase:.2f} "
                "spans={mean_spans_priced:.0f}\n".format(**row)
            )
    return 0


def _cmd_export_graph(args) -> int:
    from .graph import build_graph, graph_dump, repetitive_augment

    inst = load_instance(args.instance)
    graph = build_graph(build_connection_matrix(inst))
    if args.augmented:
        repetitive_augment(graph)
    _emit(graph_dump(graph), args.output)
    return 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise InputError(f"--count must be >= 1, got {args.count}")
    instances = generate_instances(
        pattern=args.pattern,
        horizon=args.horizon,
        rho=args.rho,
        K=args.fixed_cost,
        b=args.penalty,
        count=args.count,
        h=args.holding,
        z=args.unit_cost,
        seed=args.seed,
    )
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for inst in instances:
            save_instance(inst, out / f"{inst.name}.json")
        sys.stdout.write(f"wrote {len(instances)} instance(s) to {out}\n")
    else:
        payload = [inst.to_dict() for inst in instances]
        sys.stdout.write(json.dumps(payload if len(payload) > 1 else payload[0], indent=2) + "\n")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
    "export-graph": _cmd_export_graph,
    "gen": _cmd_gen,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the package logs only warnings (high cv, a capped level grid); show them
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    handler.setLevel(logging.WARNING)
    logger = logging.getLogger("lotpath")
    logger.addHandler(handler)
    try:
        return _COMMANDS[args.command](args)
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except NonTerminationError as e:
        sys.stderr.write(f"error: {e}\n")
        if e.diagnostics:
            sys.stderr.write(json.dumps(e.diagnostics, indent=2) + "\n")
        return 3
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 4
    except LotpathError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
