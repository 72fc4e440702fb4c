"""Factorial study of how often relaxed plans need repair and what it costs.

Crosses two demand patterns (erratic: means uniform on [0, 100]; lumpy: one
period in five spikes to [0, 420], the rest stay in [0, 20]) with horizons,
demand variability rho, fixed order cost K and penalty cost b. For every
instance the script records how many negative-order pairings the relaxed
shortest path contained and how much the repaired plan costs on top of the
relaxed lower bound.

The instances come from lotpath.bench.design_instances: DESK_GRID (default)
solves 324 instances, 3.3-4.1 s on a shared 2-vCPU Intel Xeon VM. Pass
--full for FULL_GRID, the 1,620-instance design with horizons 20/30/40 and
ten replicates; it took 24-26 s on the same machine.

Run with:
  $ python3 demos/factorial_study.py [--full]
"""

import argparse

from lotpath.bench import DESK_GRID, FULL_GRID, design_instances, run_benchmark, summarize


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="run the large grid")
    args = parser.parse_args()

    grid = FULL_GRID if args.full else DESK_GRID
    instances = design_instances(**grid)
    total = len(instances)
    print(f"solving {total} instances (horizons {grid['horizons']}, "
          f"{grid['replicates']} replicates, seed {grid['seed']}) ...")

    done = [0]

    def tick(record):
        done[0] += 1
        if done[0] % 50 == 0:
            print(f"  {done[0]}/{total}", flush=True)

    records = run_benchmark(instances, progress=tick)

    print("\nper-cell means (pattern x K), lumpy rows are where repairs live:")
    for row in summarize(records, by=("pattern", "K")):
        print(
            "  {pattern:8s} K={K:6g}: {n:3d} instances, {n_augmented:3d} repaired, "
            "mean violations {mean_negative_orders:5.2f}, "
            "mean cost increase when repaired {mean_pct_increase:5.2f}%".format(**row)
        )

    print("\nnegative-order instance counts by factor level:")
    for field in ("rho", "b", "K"):
        rows = summarize(records, by=(field,))
        label = f"{field:3s} " + "/".join(f"{row[field]:g}" for row in rows)
        print(f"  {label:16s}: {[row['n_augmented'] for row in rows]}")

    lumpy_aug = [r for r in records if r.pattern == "lumpy" and r.negative_order_count > 0]
    if lumpy_aug:
        mean_pct = sum(r.pct_increase for r in lumpy_aug) / len(lumpy_aug)
        print(
            f"\nrepaired lumpy instances: {len(lumpy_aug)} "
            f"(mean cost increase {mean_pct:.2f}%, "
            f"max {max(r.pct_increase for r in lumpy_aug):.2f}%)"
        )
    erratic_aug = sum(1 for r in records if r.pattern == "erratic" and r.negative_order_count > 0)
    print(f"erratic instances needing repair: {erratic_aug}")

    slowest = max(records, key=lambda r: r.t_matrix + r.t_relaxed + r.t_reoptimise)
    print(
        f"slowest instance {slowest.instance_id}: matrix {slowest.t_matrix:.2f}s, "
        f"relaxed path {slowest.t_relaxed:.4f}s, re-optimising {slowest.t_reoptimise:.2f}s"
    )


if __name__ == "__main__":
    main()
