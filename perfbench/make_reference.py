#!/usr/bin/env python3
"""Regenerate ``perfbench/data/reference.json`` from the program in ``src/``.

    python3 perfbench/make_reference.py

Records, for every instance of the solve workloads, a digest of its spec and
its relaxed cost (the relaxed optimum belongs to the instance, so every
correct solver keeps it), and, for the Monte Carlo workloads, the plan the
solver returns for the first lumpy-long instance together with its analytic
cost and a high-replication clipped-order estimate.  Run it only when the
workload definitions in ``run.py`` change: the file is the benchmark's record
of the answers the program gave when the benchmark was defined.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import run

CLIPPED_REPS = 4_000_000
CLIPPED_SEED = 20_241_030


def solve_pool(lp, pool) -> dict:
    out = {}
    for inst in pool:
        sol = lp.solve_instance(inst)
        out[inst.name] = {
            "spec_sha256": run.spec_digest(inst),
            "relaxed_cost": sol.relaxed_cost,
            "expected_cost": sol.expected_cost,
            "relaxed_violations": sol.relaxed_violations,
        }
    return out


def main() -> int:
    lp = run.import_lotpath()
    t0 = time.perf_counter()
    lumpy = run.lumpy_long_pool(lp)
    inst = lumpy[0]
    sol = lp.solve_instance(inst)
    clipped = lp.simulate_policy(
        inst, sol.policy, n_reps=CLIPPED_REPS, seed=CLIPPED_SEED, allow_negative_orders=False
    )
    try:
        commit = subprocess.run(
            ["git", "-C", str(run.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    reference = {
        "command": "python3 perfbench/make_reference.py",
        "commit": commit,
        "lumpy-long": solve_pool(lp, lumpy),
        "desk-grid": solve_pool(lp, run.desk_grid_pool(lp)),
        "mc": {
            "instance": inst.name,
            "spec_sha256": run.spec_digest(inst),
            "policy": sol.policy.to_dict(),
            "expected_cost": lp.expected_trace(inst, sol.policy).total_cost,
            "relaxed_cost": sol.relaxed_cost,
            "clipped_mean": clipped.mean_cost,
            "clipped_se": clipped.std_error,
            "clipped_reps": CLIPPED_REPS,
            "clipped_seed": CLIPPED_SEED,
        },
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE} in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
