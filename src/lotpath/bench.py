"""Factorial benchmark over generated demand patterns.

Crosses demand pattern and horizon with the cost/variability factors
(fixed cost K, penalty b, coefficient of variation rho) and records, per
instance, how infeasible the relaxed solution was and what the repair cost.
An instance "required augmentation" when its relaxed path expects a
negative order (``negative_order_count > 0``); the paper's split loop splits
exactly those.
Replicates share demand draws across cost cells on purpose: cell (K, b, rho)
differences are then purely cost-driven.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputError
from .instances import PATTERNS, InstanceSpec, generate_instances
from .solver import solve_instance

__all__ = [
    "BenchRecord",
    "DESK_GRID",
    "FULL_GRID",
    "design_instances",
    "run_benchmark",
    "bench_to_csv",
    "summarize",
]

# the factorial design: every design_instances keyword. The desk grid
# solves 324 instances, the full grid the paper's count of 1,620.
DESK_GRID = dict(
    patterns=PATTERNS,
    horizons=(10, 20),
    rhos=(0.1, 0.2, 0.3),
    fixed_costs=(225.0, 900.0, 2500.0),
    penalties=(2.0, 5.0, 10.0),
    replicates=3,
    seed=7,
)
FULL_GRID = dict(DESK_GRID, horizons=(20, 30, 40), replicates=10)


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    pattern: str
    T: int
    rho: float
    b: float
    K: float
    negative_order_count: int
    relaxed_cost: float
    augmented_cost: float
    pct_increase: float
    t_matrix: float
    t_relaxed: float
    t_reoptimise: float
    spans_priced: int


def design_instances(
    patterns: Sequence[str], horizons: Sequence[int], rhos: Sequence[float],
    fixed_costs: Sequence[float], penalties: Sequence[float], replicates: int, seed: int,
) -> List[InstanceSpec]:
    """The factorial design's instances, in run order: cells pattern-major,
    penalty innermost, and each cell's replicates in order.

    Every instance has holding cost 1 and no unit cost, the generator's
    defaults. A factor that is not a list or tuple of levels, or that lists
    a level twice, raises :class:`InputError` before anything is drawn: a
    repeated level's cells would be the same draws, solved and counted
    twice."""
    factors = dict(patterns=patterns, horizons=horizons, rhos=rhos,
                   fixed_costs=fixed_costs, penalties=penalties)
    for name, levels in factors.items():
        if not isinstance(levels, (list, tuple)):
            raise InputError(f"factor {name!r} must be a list or tuple of levels, got {levels!r}")
        for k, level in enumerate(levels):
            if level in levels[:k]:
                raise InputError(f"factor {name!r} repeats level {level!r}")
    # a cell is generate_instances' leading (pattern, horizon, rho, K, b)
    return [inst for cell in product(*factors.values())
            for inst in generate_instances(*cell, count=replicates, seed=seed)]


def run_benchmark(
    patterns: Sequence[str] = DESK_GRID["patterns"],
    horizons: Sequence[int] = DESK_GRID["horizons"],
    rhos: Sequence[float] = DESK_GRID["rhos"],
    fixed_costs: Sequence[float] = DESK_GRID["fixed_costs"],
    penalties: Sequence[float] = DESK_GRID["penalties"],
    replicates: int = DESK_GRID["replicates"],
    seed: int = DESK_GRID["seed"],
    progress: Optional[Callable[[BenchRecord], None]] = None,
) -> List[BenchRecord]:
    """Solve :func:`design_instances` (``DESK_GRID`` by default) in order and
    return one record per instance, its factors read off the instance."""
    design = (patterns, horizons, rhos, fixed_costs, penalties, replicates, seed)
    records: List[BenchRecord] = []
    for inst in design_instances(*design):
        sol = solve_instance(inst)
        rel = sol.relaxed_cost
        aug = sol.expected_cost
        rec = BenchRecord(
            instance_id=inst.name,
            pattern=inst.pattern,
            T=inst.horizon,
            rho=inst.cv,
            b=inst.b,
            K=inst.K,
            negative_order_count=sol.relaxed_violations,
            relaxed_cost=rel,
            augmented_cost=aug,
            pct_increase=100.0 * (aug - rel) / rel if rel else 0.0,
            **sol.timings,
            spans_priced=sol.spans_priced,
        )
        records.append(rec)
        if progress is not None:
            progress(rec)
    return records


def bench_to_csv(records: Iterable[BenchRecord]) -> str:
    cols = [f.name for f in fields(BenchRecord)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for r in records:
        writer.writerow(
            [
                getattr(r, c) if not isinstance(getattr(r, c), float)
                else f"{getattr(r, c):.6f}"
                for c in cols
            ]
        )
    return buf.getvalue()


def summarize(
    records: Sequence[BenchRecord],
    by: Tuple[str, ...] = ("pattern", "rho", "b", "K"),
) -> List[Dict[str, object]]:
    """Group means of the repair statistics, one dict row per factor cell."""
    groups: Dict[Tuple, List[BenchRecord]] = {}
    for r in records:
        key = tuple(getattr(r, f) for f in by)
        groups.setdefault(key, []).append(r)
    rows: List[Dict[str, object]] = []
    for key in sorted(groups):
        cell = groups[key]
        n = len(cell)
        augmented = [r for r in cell if r.negative_order_count > 0]
        row: Dict[str, object] = dict(zip(by, key))
        row.update(
            n=n,
            n_augmented=len(augmented),
            mean_negative_orders=sum(r.negative_order_count for r in cell) / n,
            mean_pct_increase=(
                sum(r.pct_increase for r in augmented) / len(augmented)
                if augmented
                else 0.0
            ),
            mean_relaxed_cost=sum(r.relaxed_cost for r in cell) / n,
            mean_augmented_cost=sum(r.augmented_cost for r in cell) / n,
            mean_spans_priced=sum(r.spans_priced for r in cell) / n,
        )
        rows.append(row)
    return rows
