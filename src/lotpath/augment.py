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
prices each start only at the positions its cycle can take at exact
constrained levels, recovers a schedule forward with non-decreasing
positions, and then sets
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
from typing import Dict, List, Tuple

import numpy as np

from .cycles import (
    ConnectionMatrix,
    Plan,
    _constrained_plan,
    _loss_pair,
    _plan,
    _priced_plan,
    _relaxed_spans,
    _schedule_levels,
    _within_bound,
)

__all__ = ["relaxed_path", "check_feasibility", "reoptimise"]

_log = logging.getLogger(__name__)

FEAS_TOL = 1e-9
#: the re-optimising stage's level grid: spacing mean period demand / 25,
#: widened where needed to keep it at most MAX_GRID points (long horizons)
GRID_PER_MEAN = 25.0
#: the cap on the grid's n points. Each start prices only its window of them
#: (:func:`_windows`), but the cap bounds n: lumpy seed 7 r0 has n = 779 at
#: T=1000 and 1,140 at T=2000, far below it. T=5000 was not measured (its
#: matrix alone takes 1 GB). A capped grid logs a warning.
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


def _windows(
    matrix: ConnectionMatrix, keep: np.ndarray, lo: float, step: float, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The grid positions each node prices: arrays ``low`` and ``width`` over
    the nodes 0..T, where node t's window is the ``width[t]`` global grid
    indices from ``low[t]`` (position lo + step g at index g).

    Start s has the n indices shift[s] .. shift[s] + n - 1, shift[s] =
    rint(M(s) / step) (see :func:`_grid_schedule`). At the exact constrained
    levels of a schedule over the spans ``keep`` admits, its cycle has its
    position between the lowest stand-alone position (matrix level plus
    M(s)) of an admissible span starting at or after s and the highest of
    one starting at or before s (see :func:`reoptimise`). Its window holds
    the grid points between the two, widened by one point on each side and
    cut to its n indices; a start without admissible spans has none. The
    sink, node T, holds all n of its indices.
    """
    T = matrix.horizon
    M = np.concatenate(([0.0], matrix.mus[0]))
    shift = np.rint(M / step).astype(int)
    low = np.min(matrix.level, axis=1, initial=np.inf, where=keep) + M[:T]
    high = np.max(matrix.level, axis=1, initial=-np.inf, where=keep) + M[:T]
    low = np.minimum.accumulate(low[::-1])[::-1]
    high = np.maximum.accumulate(high)
    first = np.clip(np.floor((low - lo) / step) - shift[:T] - 1, 0, n - 1).astype(int)
    last = np.clip(np.ceil((high - lo) / step) - shift[:T] + 1, 0, n - 1).astype(int)
    width = np.where(keep.any(axis=1), last - first + 1, 0)
    return shift + np.append(first, 0), np.append(width, n)


def _price_windows(
    matrix: ConnectionMatrix,
    starts: List[int],
    depth: np.ndarray,
    low: np.ndarray,
    width: np.ndarray,
    lo: float,
    step: float,
) -> Dict[int, np.ndarray]:
    """The costs of the cycles from ``starts`` at each position of their
    start's window (see :func:`_windows`), all but the hand-off's value: per
    start s, a (window x ``depth[s]``) array whose column k holds the cycle
    of k + 1 periods' running holding and backorder cost plus (K + unit
    cost), as :func:`_grid_schedule` adds them. The arrays are views of one
    store.

    The (start, position) pairs run by decreasing depth, so the pairs that
    reach k + 1 periods are a prefix, and one pass per length adds that
    period's expected loss to each pair's running sum, in the order a
    cumulative sum over the lengths adds it.
    """
    inst, T = matrix.instance, matrix.horizon
    order = np.array(sorted(starts, key=lambda s: -depth[s]))
    w, d = width[order], depth[order]
    pairs = np.cumsum(w)  # the pairs of the first j + 1 starts
    head, block = pairs - w, np.cumsum(w * d) - w * d  # each start's first pair and number
    index = np.arange(pairs[-1])
    before = np.concatenate(([0.0], matrix.mus[0]))  # M(s), the mean demand before s
    levels = lo + step * (np.repeat(low[order] - head, w) + index) - np.repeat(before[order], w)
    slot = np.repeat(block - head * d, w) + index * np.repeat(d, w)  # each pair's first number
    store = np.empty(int(block[-1] + w[-1] * d[-1]))
    for k, count in enumerate(np.searchsorted(-d, -np.arange(d[0])).tolist()):
        # the first count starts reach k + 1 periods, over their first p pairs
        p = int(pairs[count - 1])
        y = levels[:p]
        mus = np.repeat(matrix.mus[order[:count], k], w[:count])
        short, on_hand = _loss_pair(y, mus, np.repeat(matrix.sds[order[:count], k], w[:count]))
        cost = inst.h * on_hand + inst.b * short
        del short, on_hand  # free before the next length's pass
        if k == 0:
            running = cost
        else:
            running[:p] += cost
        terminal = np.repeat(order[:count] + k == T - 1, w[:count])
        store[slot[:p] + k] = running[:p] + (inst.K + inst.z * np.where(terminal, y, mus))
    return {
        s: store[b : b + n * m].reshape(n, m)
        for s, b, n, m in zip(order.tolist(), block.tolist(), w.tolist(), d.tolist())
    }


def _grid_schedule(
    matrix: ConnectionMatrix, keep: np.ndarray, lo: float, step: float, n: int
) -> List[Tuple[int, int]]:
    """Cheapest feasible schedule with every position on one grid.

    Start s has the n positions lo + step (shift[s] + i), i < n, with
    shift[s] = rint(M(s) / step): its levels run from lo on the grid step,
    and a hand-off to start e + 1 is the index shift shift[e + 1] - shift[s].
    It prices only the positions of its window (:func:`_windows`).
    Backward pass: ``value`` holds each node's V(t, x) at its window
    positions x, then +inf, so a position below the window reads the
    window's least value and one above it +inf; the sink holds 0. ``best``
    holds, at each window position of a start, the cheapest cost with that
    position, and ``best_end`` its end; the first (smallest) end wins a tie.
    The schedule is recovered forward with non-decreasing positions, so it
    is feasible.

    A cycle's cost at a position does not depend on ``value``, so the
    backward pass takes the starts in chunks, the latest first, and prices
    each chunk before it visits its starts (:func:`_price_windows`). A chunk
    stores at most as many costs as all the starts' windows hold positions,
    or one start's if that start alone stores more. The backward pass adds
    ``value`` to the stored costs and takes the cheapest end at each
    position and the suffix minimum.
    """
    T = matrix.horizon
    low, width = _windows(matrix, keep, lo, step, n)
    # depth: the cycle length of each start's last admissible end (0: none)
    depth = np.where(keep.any(axis=1), T - np.argmax(keep[:, ::-1], axis=1) - np.arange(T), 0)
    # node t's values from value[at[t]], then +inf; best and best_end alike
    at = np.cumsum(width + 1) - width - 1
    nodes = np.stack([low, width, at])
    value = np.full(at[T] + n + 1, np.inf)
    value[at[T] : at[T] + n] = 0.0
    reached = np.append(np.zeros(T, dtype=bool), True)  # nodes with a finite value
    best, best_end = np.full(value.size, np.inf), np.zeros(value.size, dtype=int)
    grid = np.arange(low.max() + n)

    chunks, size, budget = [[]], 0, int(width[:T].sum())  # starts with spans, latest first
    for s in np.flatnonzero(depth)[::-1].tolist():
        if chunks[-1] and size + depth[s] * width[s] > budget:
            chunks.append([])
            size = 0
        chunks[-1].append(s)
        size += depth[s] * width[s]
    windows = list(zip(depth.tolist(), width.tolist(), low.tolist(), at.tolist()))
    for chunk in chunks:
        prices = _price_windows(matrix, chunk, depth, low, width, lo, step)
        for s in chunk:
            m, wd, g, a = windows[s]
            rel = (keep[s, s : s + m] & reached[s + 1 : s + m + 1]).nonzero()[0]
            if rel.size == 0:
                continue
            ends = s + rel
            to_low, to_width, to_at = nodes[:, ends + 1, None]
            ahead = np.maximum(grid[g : g + wd] - to_low, 0)
            total = prices[s][:, rel].T + value[to_at + np.minimum(ahead, to_width)]
            k = total.argmin(axis=0)
            best[a : a + wd], best_end[a : a + wd] = total[k, grid[:wd]], ends[k]
            np.minimum.accumulate(best[a : a + wd][::-1], out=value[a : a + wd][::-1])
            reached[s] = value[a] < np.inf

    schedule: List[Tuple[int, int]] = []
    s = g = 0
    while s < T:
        _, wd, first, a = windows[s]
        j = a + max(g - first, 0)  # the first window position at or above g
        j += int(best[j : a + wd].argmin())
        schedule.append((s, int(best_end[j])))
        s, g = schedule[-1][1] + 1, first + j - a
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
    suffix's at or below it. So a cycle starting at s has its position at
    or above the root of the block's suffix from s, hence at or above the
    lowest stand-alone position of an admissible span starting at or after
    s, and at or below the highest of one starting at or before s; the
    dynamic program prices only the grid points between the two, and one
    more on each side (:func:`_windows`). The recovered schedule then gets
    its exact constrained levels. Returns the cheaper of the two plans.
    Both price their spans from the matrix's moment table
    (``matrix.mus``/``matrix.sds``); the span bound reads the matrix's
    relaxed distances (``matrix.prefix``/``matrix.suffix``).

    One debug line on this module's logger gives the grid's n, the
    positions priced against n times the starts with admissible spans, the
    admissible spans, and the recovered schedule's pooling rounds and
    merges, or that it is the bound plan's schedule.
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
    n = int(np.ceil((hi - lo) / step)) + 1
    schedule = _grid_schedule(matrix, keep, lo, step, n)
    if tuple(schedule) == bound.spans:
        plan, pooling = bound, "the bound plan's schedule"
    else:
        ys, rounds, merges = _schedule_levels(matrix, schedule)
        plan = min(bound, _priced_plan(matrix, schedule, ys), key=lambda plan: plan.cost)
        pooling = f"schedule pooled in {rounds} rounds with {merges} merges"
    if _log.isEnabledFor(logging.DEBUG):
        _, width = _windows(matrix, keep, lo, step, n)
        starts = int(np.count_nonzero(width[:T]))
        _log.debug(
            "re-optimising: grid n=%d, %d positions priced of n x %d starts = %d, "
            "%d admissible spans, %s",
            n, int(width[:T].sum()), starts, n * starts, int(np.count_nonzero(keep)), pooling,
        )
    return plan
