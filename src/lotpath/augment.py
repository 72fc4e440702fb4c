"""Relaxed plan, feasibility check and the re-optimising stage.

:func:`relaxed_path` is the relaxed optimum: the cheapest schedule over the
connection matrix when order quantities are unrestricted in sign, read from
the matrix's relaxed distances (the Wagner-Whitin recursion over its
arrays) as a :class:`~lotpath.cycles.Plan` at the matrix levels. It may
pair two consecutive cycles so that the expected inventory entering a
review exceeds that review's order-up-to level, which would require a
negative order quantity; :func:`check_feasibility` lists those pairings.

The paper repairs such a plan with its stage 2, the split-and-re-solve loop
on the cycle graph (:mod:`lotpath.graph`). The loop has only two moves:
keep a cycle at its matrix level, or merge it into a longer cycle that
still pays K. It never raises a level to absorb carried stock or lowers an
upstream one, so its plan can cost more than the cheapest feasible plan.
The solve does not run it. :func:`reoptimise` is stage 3 and gives the
solve's answer whenever the relaxed plan violates: an exact dynamic program
over all review schedules and levels,

    V(i, L) = min over j >= i, y >= L of  c(i, j; y) + V(j + 1, y - mu(i..j)),

with V(T + 1, .) = 0 and L the lowest admissible level (the stock carried
into period i). It runs on a level grid, keeps only the spans that a relaxed
bound admits below a feasible plan's cost, recovers a schedule forward with
the exact carried stock, and then sets that schedule's levels to their exact
constrained optimum off the grid. The stage prices every span from the
matrix's moment table (``ConnectionMatrix.mus``/``sds``) and finds pooled
levels with the matrix's own fractile kernel, so the two share one Normal
CDF sum. The relaxed distances and the constrained-level solve live in
:mod:`lotpath.cycles`, because the pruned matrix build uses them to bound the
spans it prices; the stage's feasible plan is the one that set that bound.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Tuple

import numpy as np

from .cycles import (
    ConnectionMatrix,
    Plan,
    _constrained_plan,
    _loss_pair,
    _relaxed_spans,
    _within_bound,
)

__all__ = ["relaxed_path", "check_feasibility", "reoptimise"]

_log = logging.getLogger(__name__)

FEAS_TOL = 1e-9
#: the re-optimising stage's level grid: spacing mean period demand / 25,
#: widened where needed to keep it at most MAX_GRID points (long horizons)
GRID_PER_MEAN = 25.0
MAX_GRID = 8192


def relaxed_path(matrix: ConnectionMatrix) -> Plan:
    """The relaxed optimum at the matrix levels: the same schedule, levels
    and cost as ``shortest_path(build_graph(matrix))``, without building the
    graph."""
    spans = _relaxed_spans(matrix.pred)
    s, e = np.array(spans).T
    return Plan(
        tuple(spans),
        tuple(matrix.level[s, e].tolist()),
        tuple(matrix.closing[s, e].tolist()),
        tuple(matrix.cost[s, e].tolist()),
    )


def check_feasibility(plan: Plan) -> List[int]:
    """Indices k of the cycles whose level lies below the stock cycle k - 1
    is expected to carry in, i.e. that expect a negative order; empty when
    the plan is feasible."""
    closings = np.array(plan.closings[:-1])
    levels = np.array(plan.levels[1:])
    return (np.flatnonzero(closings > levels + FEAS_TOL) + 1).tolist()


# ---------------------------------------------------------------------------
# stage 3: exact re-optimisation over all review schedules and levels
#
# Periods are 0-based below: span (s, e) covers periods s + 1 .. e + 1 and
# leads from node s to node e + 1 (node T is the sink).


def _admissible_spans(matrix: ConnectionMatrix, bound: float) -> np.ndarray:
    """Spans that can lie on a feasible plan costing at most ``bound``.

    Every feasible plan is also a relaxed plan, so a plan through span
    (s, e) has the relaxed through-cost prefix[s] + cost[s, e] +
    suffix[e + 1] over the matrix's relaxed distances. The span is kept by
    the pruned build's own rule (:func:`lotpath.cycles._within_bound`): a
    level within ``Y_TOL`` / 2 of its optimum prices a span at most
    (b n + z) ``Y_TOL`` / 2 above its exact minimum, so every span of a
    feasible plan costing at most ``bound`` has a through-cost of at most
    bound + e / 2, e = (b T + z) ``Y_TOL``, which the rule admits. The bound
    plan's own spans therefore pass it.
    """
    with np.errstate(invalid="ignore"):  # NaN below the diagonal compares False
        through = matrix.prefix[:-1, None] + matrix.cost + matrix.suffix[None, 1:]
        return _within_bound(through, bound, matrix.instance)


def _grid_schedule(
    matrix: ConnectionMatrix, keep: np.ndarray, ys: np.ndarray
) -> List[Tuple[int, int]]:
    """Cheapest feasible schedule with every level on the grid ``ys``.

    Backward pass: ``value[s][g]`` is V(s, ys[g]), the cheapest plan of
    periods s.. whose first level is at least ys[g]; the carried stock
    y - mu falls between grid points and is interpolated. Each start's cost
    columns are one running sum over its ends, priced from the matrix's
    moment rows. The schedule is recovered forward with the exact carried
    stock, so its grid levels are feasible.
    """
    inst = matrix.instance
    T = matrix.horizon
    value: List[Optional[np.ndarray]] = [None] * T + [np.zeros_like(ys)]
    best: List[Optional[np.ndarray]] = [None] * T
    best_end: List[Optional[np.ndarray]] = [None] * T
    for s in range(T - 1, -1, -1):
        ends = [e for e in np.flatnonzero(keep[s]).tolist() if value[e + 1] is not None]
        if not ends:
            continue
        n = ends[-1] - s + 1
        short, on_hand = _loss_pair(ys[None, :], matrix.mus[s, :n, None], matrix.sds[s, :n, None])
        running = np.cumsum(inst.h * on_hand + inst.b * short, axis=0)
        total = np.full_like(ys, np.inf)
        arg = np.zeros(ys.shape, dtype=int)
        for e in ends:
            mu = matrix.mus[s, e - s]
            if e == T - 1:
                w = running[e - s] + (inst.K + inst.z * ys)
            else:
                w = running[e - s] + (inst.K + inst.z * mu) + np.interp(ys - mu, ys, value[e + 1])
            better = w < total
            total[better] = w[better]
            arg[better] = e
        best[s], best_end[s] = total, arg
        value[s] = np.minimum.accumulate(total[::-1])[::-1]

    schedule: List[Tuple[int, int]] = []
    s, g0 = 0, 0
    while s < T:
        g = g0 + int(np.argmin(best[s][g0:]))
        e = int(best_end[s][g])
        schedule.append((s, e))
        g0 = int(np.searchsorted(ys, ys[g] - matrix.mus[s, e - s], side="left"))
        s = e + 1
    return schedule


def reoptimise(matrix: ConnectionMatrix) -> Plan:
    """Stage 3 of the repair: the cheapest feasible plan over all schedules.

    The relaxed schedule (:func:`relaxed_path`) at its exact constrained
    levels is a feasible plan, and that plan's cost bounds the spans the
    grid dynamic program visits (see :func:`_admissible_spans`), whose rule
    the plan's own spans pass. A pruned matrix carries that plan as
    ``matrix.bound_plan``; a matrix that priced every span has none, and the
    plan is made here. The level grid (see ``GRID_PER_MEAN``) covers 0 and
    the matrix optima of those spans: an optimal constrained level lies
    between the lowest and highest stand-alone optimum of its plan. The
    recovered schedule then gets its exact constrained levels. Returns the
    cheaper of the two plans. Both price their spans from the matrix's
    moment table (``matrix.mus``/``matrix.sds``); the span bound reads the
    matrix's relaxed distances (``matrix.prefix``/``matrix.suffix``).
    """
    T = matrix.horizon
    bound = matrix.bound_plan or _constrained_plan(matrix, _relaxed_spans(matrix.pred))
    keep = _admissible_spans(matrix, bound.cost)

    levels = matrix.level[keep]
    lo = min(0.0, float(levels.min()))
    hi = float(levels.max())
    mean_step = float(np.asarray(matrix.instance.means, dtype=float).sum()) / T / GRID_PER_MEAN
    step = max(mean_step, (hi - lo) / MAX_GRID, 1e-12)
    if (hi - lo) / MAX_GRID > mean_step:
        _log.warning(
            "re-optimising level grid capped at %d points: step %.6g is wider than "
            "mean period demand / %g = %.6g, so the schedule search may miss the "
            "cheapest plan",
            MAX_GRID, step, GRID_PER_MEAN, mean_step,
        )
    ys = lo + step * np.arange(int(np.ceil((hi - lo) / step)) + 1)
    schedule = _grid_schedule(matrix, keep, ys)
    plans = [bound]
    if tuple(schedule) != bound.spans:
        plans.append(_constrained_plan(matrix, schedule))
    return min(plans, key=lambda plan: plan.cost)
