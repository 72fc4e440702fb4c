#!/usr/bin/env python3
"""lotpath benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload lumpy-long --seed 1 --seconds 20 --trace 0

Every workload is closed loop: one caller makes one call at a time into the
public lotpath API, with no threads.  A pass runs every operation of the
workload's fixed pool once, in an order (or with Monte Carlo seeds) drawn
from ``--seed``; the timed run repeats whole passes until ``--seconds`` have
elapsed, so every run measures the same mix of work (a run may end up to half a
pass early or late).  Every output is checked
(see ``check_solution`` and ``MonteCarloWorkload``); a failed check counts in
``failed`` and makes the command exit 1 after printing its result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
pass and one traced pass over the same operations, checks that they return
identical results, and prints the per-layer metrics (see ``tracing.py``).
The last line of standard output is the JSON result; the lines before it
name each metric with its unit and stamp the environment.

The program is imported from ``src/`` next to this directory; without it the
command exits 1 and prints no result.  Reference data come from
``perfbench/data/reference.json`` (regenerate with ``make_reference.py``).
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is first imported: the load is one
# single-threaded process.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "data" / "reference.json"
OUT = HERE / "out"

WORKLOADS = ("lumpy-long", "desk-grid", "mc-validate", "mc-clipped")
FAULTS = ("level", "cost")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p90": "s",
    "inflation_pct": "%",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cycles.matrix_s": "s",
    "cycles.spans": "count",
    "cycles.spans_per_s": "1/s",
    "graph.build_s": "s",
    "graph.builds": "count",
    "graph.filter_s": "s",
    "graph.arcs_built": "count",
    "graph.arcs_kept": "count",
    "graph.filter_discarded": "count",
    "graph.search_s": "s",
    "graph.searches": "count",
    "augment.repair_s": "s",
    "augment.repair_self_s": "s",
    "augment.split_s": "s",
    "augment.splits": "count",
    "augment.check_s": "s",
    "augment.repaired": "count",
    "augment.nodes_final": "count",
    "augment.arcs_final": "count",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "simulate.setpoint_s": "s",
    "simulate.clipped_s": "s",
    "simulate.reps": "count",
    "instances.generate_s": "s",
    "trace.overhead_frac": "frac",
}

# Workload inputs.  The pools are fixed so that relaxed costs can be checked
# against values recorded once; --seed orders the pool and seeds the
# Monte Carlo streams.  Changing any of these requires make_reference.py.
LUMPY_LONG = dict(pattern="lumpy", horizon=100, rho=0.3, K=225.0, b=10.0, count=3, seed=7)
DESK_GRID = dict(
    patterns=("erratic", "lumpy"),
    horizons=(10, 20),
    rhos=(0.1, 0.2, 0.3),
    fixed_costs=(225.0, 900.0, 2500.0),
    penalties=(2.0, 5.0, 10.0),
    replicates=3,
    seed=7,
)
MC_REPS = 25_000          # replications per simulate_policy call
MC_CALLS_PER_PASS = 16
SETUP_PROBES = 3          # setup_s is the median over this many fresh processes

REL_TOL_TRACE = 1e-9      # analytic trace vs the solver's expected cost
REL_TOL_RELAXED = 1e-6    # relaxed cost vs the recorded reference
MC_SIGMAS = 4.0           # pooled Monte Carlo mean vs its reference


def import_lotpath():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import lotpath
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lotpath from {SRC}: {exc}")
    if Path(lotpath.__file__).resolve().parent != (SRC / "lotpath").resolve():
        raise SystemExit(f"perfbench: lotpath resolved to {lotpath.__file__}, not {SRC}")
    return lotpath


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except OSError as exc:
        raise SystemExit(f"perfbench: cannot read {REFERENCE}: {exc}")


def spec_digest(inst) -> str:
    return hashlib.sha256(json.dumps(inst.to_dict(), sort_keys=True).encode()).hexdigest()


def lumpy_long_pool(lp) -> list:
    return lp.generate_instances(**LUMPY_LONG)


def desk_grid_pool(lp) -> list:
    g = DESK_GRID
    out = []
    for pattern in g["patterns"]:
        for T in g["horizons"]:
            for rho in g["rhos"]:
                for K in g["fixed_costs"]:
                    for b in g["penalties"]:
                        out += lp.generate_instances(
                            pattern, T, rho, K, b, count=g["replicates"], seed=g["seed"]
                        )
    return out


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_solution(lp, inst, sol, ref: Optional[dict]) -> List[str]:
    """Correctness gate for one solve; returns what failed."""
    errors = []
    if ref is None:
        errors.append(f"{inst.name}: no recorded reference")
    elif spec_digest(inst) != ref["spec_sha256"]:
        errors.append(f"{inst.name}: instance differs from the recorded one")
    violations = lp.check_feasibility(sol.path)
    if violations:
        errors.append(f"{inst.name}: {len(violations)} violations left on the final path")
    trace = lp.expected_trace(inst, sol.policy)
    if not rel_close(trace.total_cost, sol.expected_cost, REL_TOL_TRACE):
        errors.append(
            f"{inst.name}: analytic policy cost {trace.total_cost!r} != expected_cost {sol.expected_cost!r}"
        )
    carried = float(inst.initial_inventory)
    for row in trace.rows:
        level = row.order_up_to
        if row.review and not math.isnan(level) and carried > level + REL_TOL_TRACE * max(1.0, abs(level)):
            errors.append(f"{inst.name}: expected negative order at period {row.period}")
            break
        carried = row.expected_closing
    if sol.expected_cost < sol.relaxed_cost - REL_TOL_TRACE * max(1.0, abs(sol.relaxed_cost)):
        errors.append(f"{inst.name}: expected cost below the relaxed bound")
    if ref is not None and not rel_close(sol.relaxed_cost, ref["relaxed_cost"], REL_TOL_RELAXED):
        errors.append(
            f"{inst.name}: relaxed cost {sol.relaxed_cost!r} != reference {ref['relaxed_cost']!r}"
        )
    return errors


class SolveSummary(NamedTuple):
    reviews: tuple
    levels: tuple
    expected_cost: float
    relaxed_cost: float
    relaxed_violations: int


class SolveWorkload:
    """``solve_instance`` on every instance of a fixed pool."""

    span = "solver.solve"

    def __init__(self, lp, pool: list, references: Dict[str, dict], fault: Optional[str]):
        self.lp = lp
        self.pool = pool
        self.references = references
        self.fault = fault

    def pass_ops(self, rng: random.Random, limit: Optional[int]) -> list:
        ops = list(self.pool[:limit])
        rng.shuffle(ops)
        return ops

    def run(self, inst):
        return self.lp.solve_instance(inst)

    def summary(self, sol) -> SolveSummary:
        p = sol.policy
        return SolveSummary(
            p.reviews, p.levels, sol.expected_cost, sol.relaxed_cost, sol.relaxed_violations
        )

    def check(self, inst, sol) -> List[str]:
        if self.fault == "level":
            p = sol.policy
            levels = list(p.levels)
            levels[0] += 1.0
            sol.policy = self.lp.Policy(p.horizon, p.reviews, tuple(levels))
        elif self.fault == "cost":
            sol.expected_cost *= 1.0 + 1e-6
        return check_solution(self.lp, inst, sol, self.references.get(inst.name))

    def finish(self, kept: list) -> List[str]:
        return []

    def inflation_pct(self, kept: list) -> float:
        """Mean cost inflation over the relaxed bound, instances needing repair."""
        seen = {}
        for inst, sol in kept:
            if sol.relaxed_violations:
                seen[inst.name] = 100.0 * (sol.expected_cost - sol.relaxed_cost) / sol.relaxed_cost
        return statistics.fmean(seen.values()) if seen else 0.0


class MonteCarloWorkload:
    """``simulate_policy`` of the recorded plan in one order mode.

    Each operation is one call of ``MC_REPS`` replications with its own seed.
    The pooled mean of a run must lie within ``MC_SIGMAS`` standard errors of
    its reference: the analytic plan cost for set-point orders, a recorded
    high-replication estimate for clipped orders.
    """

    def __init__(self, lp, inst, reference: dict, setpoint: bool, fault: Optional[str]):
        self.lp = lp
        self.inst = inst
        self.setpoint = setpoint
        self.span = "simulate.setpoint" if setpoint else "simulate.clipped"
        self.fault = fault
        self.setup_errors: List[str] = []
        if spec_digest(inst) != reference["spec_sha256"]:
            self.setup_errors.append(f"{inst.name}: instance differs from the recorded one")
        p = reference["policy"]
        self.policy = lp.Policy(p["horizon"], tuple(p["reviews"]), tuple(p["levels"]))
        self.analytic = lp.expected_trace(inst, self.policy).total_cost
        if not rel_close(self.analytic, reference["expected_cost"], REL_TOL_TRACE):
            self.setup_errors.append(
                f"analytic plan cost {self.analytic!r} != recorded {reference['expected_cost']!r}"
            )
        self.relaxed = reference["relaxed_cost"]
        if setpoint:
            self.target, self.target_se = self.analytic, 0.0
        else:
            self.target, self.target_se = reference["clipped_mean"], reference["clipped_se"]
        self.sim_policy = self.policy
        if fault == "level":
            levels = list(self.policy.levels)
            levels[0] += 100.0
            self.sim_policy = lp.Policy(self.policy.horizon, self.policy.reviews, tuple(levels))

    def pass_ops(self, rng: random.Random, limit: Optional[int]) -> list:
        return [rng.getrandbits(32) for _ in range(limit or MC_CALLS_PER_PASS)]

    def run(self, seed: int):
        return self.lp.simulate_policy(
            self.inst, self.sim_policy, n_reps=MC_REPS, seed=seed,
            allow_negative_orders=self.setpoint,
        )

    def summary(self, rep):
        return dataclasses.replace(rep, elapsed=0.0)

    def check(self, seed: int, rep) -> List[str]:
        if self.fault == "cost":
            rep = dataclasses.replace(rep, mean_cost=rep.mean_cost * 1.01)
        errors = []
        if rep.n_reps != MC_REPS:
            errors.append(f"seed {seed}: {rep.n_reps} replications, asked for {MC_REPS}")
        if not (math.isfinite(rep.mean_cost) and math.isfinite(rep.std_error) and rep.std_error > 0):
            errors.append(f"seed {seed}: mean {rep.mean_cost!r} or standard error {rep.std_error!r} invalid")
        elif not rel_close(sum(rep.components.values()), rep.mean_cost, REL_TOL_TRACE):
            errors.append(f"seed {seed}: cost components do not add up to the mean")
        return errors

    def finish(self, kept: list) -> List[str]:
        results = [rep for _, rep in kept]
        if not results:
            return list(self.setup_errors)
        n = sum(r.n_reps for r in results)
        mean = sum(r.n_reps * r.mean_cost for r in results) / n
        se = math.sqrt(sum((r.n_reps * r.std_error) ** 2 for r in results)) / n
        limit = MC_SIGMAS * math.hypot(se, self.target_se)
        errors = list(self.setup_errors)
        if abs(mean - self.target) > limit:
            errors.append(
                f"pooled Monte Carlo mean {mean:.4f} is {abs(mean - self.target):.4f} from "
                f"reference {self.target:.4f}; allowed {limit:.4f} ({MC_SIGMAS:g} standard errors)"
            )
        return errors

    def inflation_pct(self, kept: list) -> float:
        return 100.0 * (self.analytic - self.relaxed) / self.relaxed


def make_workload(lp, reference: dict, name: str, fault: Optional[str]):
    """Generate the workload's inputs and load its references."""
    t0 = time.perf_counter()
    pool = desk_grid_pool(lp) if name == "desk-grid" else lumpy_long_pool(lp)
    generate_s = time.perf_counter() - t0
    if name in ("lumpy-long", "desk-grid"):
        return SolveWorkload(lp, pool, reference[name], fault), generate_s
    return MonteCarloWorkload(lp, pool[0], reference["mc"], name == "mc-validate", fault), generate_s


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process to the point it is ready to time."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode} after {line!r}")
    return elapsed


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(wl, ops: list, call) -> Tuple[List[float], list, int]:
    """Time ``call`` on each operation and check each result between calls.

    Returns the latencies, ``(op, summary)`` pairs and the number of failed
    operations; an exception from the program counts as a failure.  Only
    summaries are kept, so memory does not grow with the number of passes.
    """
    latencies: List[float] = []
    kept: list = []
    failed = 0
    for op in ops:
        # collect the previous operation's garbage now, so that no operation
        # pays for another's at a random point
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = call(op)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        latencies.append(time.perf_counter() - t0)
        errors = wl.check(op, result)
        for e in errors:
            print(f"FAIL {e}", file=sys.stderr)
        failed += bool(errors)
        kept.append((op, wl.summary(result)))
    return latencies, kept, failed


def run_checks(wl, kept: list, attempted: int, failed: int, extra: Sequence[str] = ()) -> int:
    """Run-level checks; any failure there fails every operation of the run."""
    errors = wl.finish(kept) + list(extra)
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return attempted if errors else failed


def timed_run(wl, args, generate_s: float):
    rng = random.Random(args.seed)
    setup_s = statistics.median(probe_setup(args) for _ in range(SETUP_PROBES))
    latencies: List[float] = []
    pass_times: List[float] = []
    kept: list = []
    attempted = failed = 0
    pass_walls: List[float] = []
    start = time.perf_counter()
    while True:
        ops = wl.pass_ops(rng, args.limit)
        t0 = time.perf_counter()
        lat, k, f = run_pass(wl, ops, wl.run)
        pass_walls.append(time.perf_counter() - t0)
        latencies += lat
        kept += k
        failed += f
        attempted += len(ops)
        pass_times.append(sum(lat))
        # whole passes only; start another one unless it would end more than
        # half a pass after the run's time is up
        if time.perf_counter() - start + statistics.median(pass_walls) / 2 >= args.seconds:
            break
    failed = run_checks(wl, kept, attempted, failed)
    # The median latency goes to the notes only: desk-grid latencies split
    # into T=10 and T=20 halves, so its median sits on the gap between them.
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / statistics.median(pass_times) if latencies else 0.0,
        "op_s_p90": percentile(latencies, 0.9) if latencies else 0.0,
        "inflation_pct": wl.inflation_pct(kept),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "passes": len(pass_times),
        "ops_per_pass": len(ops),
        "latency_samples": len(latencies),
        "op_s_p50": statistics.median(latencies) if latencies else 0.0,
        "setup_probes": SETUP_PROBES,
        "instances_generate_s": generate_s,
    }
    return metrics, END_TO_END_UNITS, attempted, failed, notes, None


def traced_run(wl, args, generate_s: float):
    from tracing import Tracer

    ops = wl.pass_ops(random.Random(args.seed), args.limit)
    wl.run(ops[0])  # warm-up, so that the first timed pass does not carry it
    lat_plain, plain, failed_plain = run_pass(wl, ops, wl.run)
    tracer = Tracer()
    with tracer:
        lat_traced, traced, failed_traced = run_pass(
            wl, ops, lambda op: tracer.call(wl.span, wl.run, op)
        )
    attempted = 2 * len(ops)
    failed = failed_plain + failed_traced
    extra = []
    if [s for _, s in plain] != [s for _, s in traced]:
        extra.append("the traced pass returned other results than the untraced pass")
    gap = tracer.accounting_gap()
    if gap > 1e-6:
        extra.append(f"span self times miss {gap:.3g} of their root span's time")
    failed = run_checks(wl, plain, attempted, failed, extra)
    untraced_s, traced_s = sum(lat_plain), sum(lat_traced)
    metrics = tracer.layer_metrics()
    metrics["instances.generate_s"] = generate_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    notes = {"ops": len(ops), "untraced_s": untraced_s, "traced_s": traced_s,
             "accounting_gap": gap, "wrapped": tracer.patched}
    return metrics, PER_LAYER_UNITS, attempted, failed, notes, tracer


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lotpath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--limit", type=int, default=None,
                    help="operations per pass (smaller than the workload; for self-tests)")
    ap.add_argument("--inject-fault", choices=FAULTS, default=None,
                    help="corrupt every result to exercise the correctness gate")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.limit is not None and args.limit < 1:
        ap.error("--limit must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    lp = import_lotpath()
    wl, generate_s = make_workload(lp, load_reference(), args.workload, args.inject_fault)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    run = traced_run if args.trace else timed_run
    metrics, units, attempted, failed, notes, tracer = run(wl, args, generate_s)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(
            {"env": env, "notes": notes, "metrics": metrics, "spans": tracer.to_json()}
        ))
        print(f"spans written to {out.relative_to(ROOT)}")
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} frac ({failed} of {attempted})")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
