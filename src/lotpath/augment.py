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
over all review schedules and levels. A cycle that starts in period i at
level y has the position x = y + M(i), M(i) the mean demand before period i,
and a hand-off is feasible exactly when positions do not decrease:

    V(i, x) = min over j >= i, x' >= x of  c(i, j; x' - M(i)) + V(j + 1, x'),

with V(T + 1, .) = 0 and x the position of the previous cycle (the stock
carried into period i, plus M(i)). It runs on one grid of positions, keeps
only the spans that a relaxed bound admits below a feasible plan's cost,
recovers a schedule forward with non-decreasing positions, and then sets
that schedule's levels to their exact constrained optimum off the grid. The
stage prices every span from the matrix's moment table
(``ConnectionMatrix.mus``/``sds``) and finds pooled levels with the matrix's
own fractile kernel, so the two share one Normal CDF sum. The relaxed
distances and the constrained-level solve live in :mod:`lotpath.cycles`,
because the pruned matrix build uses them to bound the spans it prices; the
stage's feasible plan is the one that set that bound.
"""

from __future__ import annotations

import logging
from typing import List, Tuple

import numpy as np

from .cycles import (
    ConnectionMatrix,
    Plan,
    _constrained_plan,
    _loss_pair,
    _plan,
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
    s, e = np.array(_relaxed_spans(matrix.pred)).T
    return _plan(matrix, s, e, matrix.level[s, e], matrix.cost[s, e])


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
    through = matrix.prefix[:-1, None] + matrix.cost + matrix.suffix[None, 1:]
    return _within_bound(through, bound, matrix.instance)


def _grid_schedule(
    matrix: ConnectionMatrix, keep: np.ndarray, lo: float, step: float, n: int
) -> List[Tuple[int, int]]:
    """Cheapest feasible schedule with every position on one grid.

    Start s prices the n positions lo + step (shift[s] + i), i < n, with
    shift[s] = rint(M(s) / step): its levels run from lo on the grid step,
    and a hand-off to start e + 1 is the index shift shift[e + 1] - shift[s].
    Backward pass: ``value[s, i]`` is V(s, x) at start s's i-th position x.
    One block per start prices all its admissible ends from the matrix's
    moment rows; the first (smallest) end wins a tie. The schedule is
    recovered forward with non-decreasing positions, so it is feasible.
    """
    inst = matrix.instance
    T = matrix.horizon
    M = np.concatenate(([0.0], matrix.mus[0]))
    shift = np.rint(M / step).astype(int)
    i = np.arange(n)
    value = np.vstack([np.full((T, n), np.inf), np.zeros(n)])
    best, best_end = np.full((T, n), np.inf), np.zeros((T, n), dtype=int)
    for s in range(T - 1, -1, -1):
        ends = np.flatnonzero(keep[s] & np.isfinite(value[1:, 0]))
        if ends.size == 0:
            continue
        ys = lo + step * (shift[s] + i) - M[s]
        m = ends[-1] - s + 1  # the rows of the start's window
        short, on_hand = _loss_pair(ys, matrix.mus[s, :m, None], matrix.sds[s, :m, None])
        running = np.cumsum(inst.h * on_hand + inst.b * short, axis=0)[ends - s]
        unit = inst.z * np.where(ends[:, None] == T - 1, ys, matrix.mus[s, ends - s, None])
        after = np.maximum(i - (shift[ends + 1] - shift[s])[:, None], 0)
        w = running + (inst.K + unit) + value[ends[:, None] + 1, after]
        k = np.argmin(w, axis=0)
        best[s], best_end[s] = w[k, i], ends[k]
        value[s] = np.minimum.accumulate(best[s, ::-1])[::-1]

    schedule: List[Tuple[int, int]] = []
    s = g = 0
    while s < T:
        first = max(g - shift[s], 0)
        j = first + int(np.argmin(best[s, first:]))
        schedule.append((s, int(best_end[s, j])))
        s, g = schedule[-1][1] + 1, shift[s] + j
    return schedule


def reoptimise(matrix: ConnectionMatrix) -> Plan:
    """Stage 3 of the repair: the cheapest feasible plan over all schedules.

    The relaxed schedule (:func:`relaxed_path`) at its exact constrained
    levels is a feasible plan, and that plan's cost bounds the spans the
    grid dynamic program visits (see :func:`_admissible_spans`), whose rule
    the plan's own spans pass. A pruned matrix carries that plan as
    ``matrix.bound_plan``; a matrix that priced every span has none, and the
    plan is made here. Each start's grid positions (see ``GRID_PER_MEAN``)
    give levels from lo = min(0, the lowest matrix optimum of those spans)
    to the highest, hi, which hold every exact constrained level of a
    schedule over them: in a pooled block of :func:`~lotpath.cycles._schedule_levels`
    every prefix's root is at or above the block's position and every
    suffix's at or below it, so each member's level lies between the last
    and the first member's stand-alone optima. The recovered schedule then
    gets its exact constrained levels. Returns the cheaper of the two plans.
    Both price their spans from the matrix's moment table
    (``matrix.mus``/``matrix.sds``); the span bound reads the matrix's
    relaxed distances (``matrix.prefix``/``matrix.suffix``).
    """
    T = matrix.horizon
    bound = matrix.bound_plan or _constrained_plan(matrix, _relaxed_spans(matrix.pred))
    keep = _admissible_spans(matrix, bound.cost)

    levels = matrix.level[keep]
    lo, hi = min(0.0, float(levels.min())), float(levels.max())
    mean_step = float(np.asarray(matrix.instance.means, dtype=float).sum()) / T / GRID_PER_MEAN
    step = max(mean_step, (hi - lo) / MAX_GRID, 1e-12)
    if (hi - lo) / MAX_GRID > mean_step:
        _log.warning(
            "re-optimising level grid capped at %d points: step %.6g is wider than "
            "mean period demand / %g = %.6g, so the schedule search may miss the "
            "cheapest plan",
            MAX_GRID, step, GRID_PER_MEAN, mean_step,
        )
    schedule = _grid_schedule(matrix, keep, lo, step, int(np.ceil((hi - lo) / step)) + 1)
    if tuple(schedule) == bound.spans:
        return bound
    return min(bound, _constrained_plan(matrix, schedule), key=lambda plan: plan.cost)
