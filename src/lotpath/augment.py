"""Relaxed optimum, feasibility check and the two repair stages.

:func:`relaxed_path` is the relaxed optimum: the cheapest schedule over the
connection matrix when order quantities are unrestricted in sign, found by
one pass over the matrix arrays in period order (the Wagner-Whitin
recursion). It may pair two consecutive cycles so that the expected
inventory entering a review exceeds that review's order-up-to level, which
would require a negative order quantity; :func:`check_feasibility` lists
those pairings.

Stage 2 of the paper, the split-and-re-solve loop (:func:`repetitive_augment`
on a :class:`~lotpath.graph.ReplenishmentGraph`), repairs such a path by
splitting the offending node i into a virtual copy i':

* redirect: the violating inbound arc (m, i) is re-targeted to (m, i'),
  payload unchanged; node i is cascade-deleted once nothing points at it;
* recompute: arcs [i', k] for k = i+1 .. j+1 carry the merged cycle that
  starts where the inbound cycle started and keeps a zero-quantity review
  (one extra K) at period i, levels taken from the connection matrix;
* duplicate: arcs (i', x) for x = j+2 .. T+1 copy the matrix cycles starting
  at period i, so every longer outbound option survives unchanged,

where j+1 is the furthest endpoint among outbound arcs of i that violate
against the inbound closing inventory. The shortest path is then re-solved;
the loop ends when the cheapest path is violation-free.

The loop has only two moves: keep a cycle at its matrix level, or merge it
into a longer cycle that still pays K. It never raises a level to absorb
carried stock or lowers an upstream one, so its plan can cost more than the
cheapest feasible plan. The loop stays callable as the paper's algorithm
(the worked example, ``lotpath export-graph --augmented``), but the solve
does not run it. :func:`reoptimise` is stage 3 and gives the solve's answer
whenever the relaxed path violates: an exact dynamic program over all review
schedules and levels,

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
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .cycles import (
    BOUND_TOL,
    ConnectionMatrix,
    ConstrainedPlan,
    _constrained_plan,
    _loss_pair,
    _relaxed_spans,
)
from .errors import LotpathError, NonTerminationError
from .graph import Arc, CycleInfo, NodeId, PathSolution, ReplenishmentGraph, shortest_path

__all__ = [
    "EffectiveCycle",
    "FeasibilityViolation",
    "relaxed_path",
    "AugmentationStep",
    "AugmentationTrace",
    "effective_cycles",
    "check_feasibility",
    "augment_once",
    "repetitive_augment",
    "reoptimise",
]

_log = logging.getLogger(__name__)

FEAS_TOL = 1e-9
#: the re-optimising stage's level grid: spacing mean period demand / 25,
#: widened where needed to keep it at most MAX_GRID points (long horizons)
GRID_PER_MEAN = 25.0
MAX_GRID = 8192


@dataclass(frozen=True)
class EffectiveCycle:
    """One replenishment cycle as realised by a path.

    A recomputed arc supersedes the redirect arc feeding its origin node, so
    a cycle may span several consecutive path arcs; ``cycle`` is always the
    payload that actually prices the covered periods.
    """

    cycle: CycleInfo
    arcs: Tuple[Arc, ...]

    @property
    def review_node(self) -> NodeId:
        return self.arcs[0].u


def effective_cycles(path: PathSolution) -> List[EffectiveCycle]:
    """Collapse a path's arc list into its realised cycle sequence."""
    out: List[EffectiveCycle] = []
    for arc in path.arcs:
        if arc.kind == "recomputed":
            if not out or out[-1].arcs[-1].v != arc.u:
                raise LotpathError(f"recomputed arc {arc} has no inbound cycle on the path")
            prev = out[-1]
            out[-1] = EffectiveCycle(cycle=arc.cycle, arcs=prev.arcs + (arc,))
        else:
            out.append(EffectiveCycle(cycle=arc.cycle, arcs=(arc,)))
    return out


def relaxed_path(matrix: ConnectionMatrix) -> PathSolution:
    """The relaxed optimum as a path of ``"normal"`` arcs carrying the
    matrix cycles; the same path, arcs and cost as
    ``shortest_path(build_graph(matrix))``, without building the graph."""
    prefix, _, pred = matrix.relaxed_distances()
    arcs = []
    for s, e in _relaxed_spans(pred):
        info = CycleInfo(
            start=s + 1,
            end=e + 1,
            order_up_to=float(matrix.level[s, e]),
            closing=float(matrix.closing[s, e]),
            cost=float(matrix.cost[s, e]),
        )
        arcs.append(Arc(NodeId(s + 1), NodeId(e + 2), "normal", info))
    return PathSolution(
        nodes=[NodeId(1)] + [a.v for a in arcs], arcs=arcs, total_cost=float(prefix[-1])
    )


@dataclass(frozen=True)
class FeasibilityViolation:
    """Expected inventory entering a review exceeds its order-up-to level."""

    node: NodeId            # node whose review cannot absorb the carried stock
    inbound: Arc            # last arc of the preceding cycle (carries closing)
    outbound: Arc           # first arc of the violated cycle
    closing: float
    order_up_to: float
    gap: float
    effective_end: int      # last period of the violated cycle as realised
    pair_index: int         # position in the effective-cycle sequence

    def __str__(self):
        return (
            f"node {self.node}: carried {self.closing:.4f} exceeds "
            f"order-up-to {self.order_up_to:.4f} (gap {self.gap:.4f})"
        )


def check_feasibility(path: PathSolution) -> List[FeasibilityViolation]:
    """All negative-expected-order pairings along the path, in path order."""
    cycles = effective_cycles(path)
    violations = []
    for idx in range(1, len(cycles)):
        prev, cur = cycles[idx - 1], cycles[idx]
        gap = prev.cycle.closing - cur.cycle.order_up_to
        if gap > FEAS_TOL:
            violations.append(
                FeasibilityViolation(
                    node=cur.review_node,
                    inbound=prev.arcs[-1],
                    outbound=cur.arcs[0],
                    closing=prev.cycle.closing,
                    order_up_to=cur.cycle.order_up_to,
                    gap=gap,
                    effective_end=cur.cycle.end,
                    pair_index=idx,
                )
            )
    return violations


@dataclass
class AugmentationStep:
    """Record of one node split."""

    node: NodeId
    new_node: NodeId
    gap: float
    redirected_from: NodeId
    recomputed_targets: List[int] = field(default_factory=list)
    duplicated_targets: List[int] = field(default_factory=list)


@dataclass
class AugmentationTrace:
    steps: List[AugmentationStep]

    @property
    def introduced_nodes(self) -> int:
        return len(self.steps)


def augment_once(graph: ReplenishmentGraph, violation: FeasibilityViolation) -> AugmentationStep:
    """Split ``violation.node`` and rewire its options as described above.

    Raises ``LotpathError`` if the violation no longer matches the graph
    (both its arcs must still be present).
    """
    v = violation.node
    inbound = violation.inbound
    if graph.get_arc(inbound.u, inbound.v) is not inbound:
        raise LotpathError(f"stale violation: inbound arc {inbound} is gone")
    if graph.get_arc(violation.outbound.u, violation.outbound.v) is not violation.outbound:
        raise LotpathError(f"stale violation: outbound arc {violation.outbound} is gone")
    matrix = graph.matrix
    if matrix is None:
        raise LotpathError("graph carries no connection matrix; cannot augment")

    start = inbound.cycle.start
    absorbed = inbound.cycle.absorbed + (v.period,)
    closing = inbound.cycle.closing
    K = matrix.params.K

    # furthest span starting here whose level the carried stock still exceeds;
    # every such span becomes a merged cycle, never a duplicate that would
    # violate the same pairing. The matrix row holds every span, including
    # those whose arcs earlier splits removed from node v.
    row = v.period - 1
    ends = v.period + np.flatnonzero(matrix.level[row, row:] < closing - FEAS_TOL)
    j = max(violation.effective_end, *ends.tolist())

    w = graph.new_virtual(v.period)
    step = AugmentationStep(node=v, new_node=w, gap=violation.gap, redirected_from=inbound.u)

    graph.remove_arc(inbound)
    graph.add_arc(Arc(inbound.u, w, inbound.kind, inbound.cycle, inbound.anchor))

    # any other inbound carrying the same cycle span from the same start pairs
    # with this node's options identically but at equal or higher cost; the
    # fresh copy's arcs supersede it, so drop it rather than split it later
    for other in graph.in_arcs(v):
        oc = other.cycle
        if (
            oc.start == inbound.cycle.start
            and oc.end == inbound.cycle.end
            and oc.cost >= inbound.cycle.cost - 1e-12
        ):
            graph.remove_arc(other)

    for k in range(v.period + 1, j + 2):
        if not graph.has_node(NodeId(k)):
            continue
        info = CycleInfo(
            start=start,
            end=k - 1,
            order_up_to=float(matrix.level[start - 1, k - 2]),
            closing=float(matrix.closing[start - 1, k - 2]),
            cost=float(matrix.cost[start - 1, k - 2]) + K * len(absorbed),
            absorbed=absorbed,
        )
        graph.add_arc(Arc(w, NodeId(k), "recomputed", info, anchor=inbound.u))
        step.recomputed_targets.append(k)

    for x in range(j + 2, graph.horizon + 2):
        if not graph.has_node(NodeId(x)):
            continue
        info = CycleInfo(
            start=v.period,
            end=x - 1,
            order_up_to=float(matrix.level[row, x - 2]),
            closing=float(matrix.closing[row, x - 2]),
            cost=float(matrix.cost[row, x - 2]),
        )
        graph.add_arc(Arc(w, NodeId(x), "duplicated", info))
        step.duplicated_targets.append(x)

    graph.cleanup_isolated()
    return step


def repetitive_augment(
    graph: ReplenishmentGraph, max_iterations: Optional[int] = None
) -> Tuple[PathSolution, AugmentationTrace]:
    """Re-solve and repair until the shortest path carries no violations.

    Processes the earliest violation of each path and re-runs the shortest
    path search after every split, so an upstream pairing broken by a merge
    surfaces on the next round. Raises :class:`NonTerminationError` after
    ``max_iterations`` splits (default 10 * horizon).

    This is stage 2 of the repair, the paper's algorithm. Its plan is
    feasible but not always the cheapest feasible one; the solve takes its
    answer from :func:`reoptimise` (stage 3) instead.
    """
    cap = max_iterations if max_iterations is not None else 10 * graph.horizon
    steps: List[AugmentationStep] = []
    while True:
        path = shortest_path(graph)
        violations = check_feasibility(path)
        if not violations:
            return path, AugmentationTrace(steps=steps)
        if len(steps) >= cap:
            raise NonTerminationError(
                f"feasibility repair did not terminate within {cap} splits",
                diagnostics={
                    "iterations": len(steps),
                    "cap": cap,
                    "introduced_nodes": len(steps),
                    "node_count": len(graph.nodes),
                    "arc_count": graph.arc_count,
                    "outstanding_violations": [str(v) for v in violations],
                },
            )
        steps.append(augment_once(graph, violations[0]))


# ---------------------------------------------------------------------------
# stage 3: exact re-optimisation over all review schedules and levels
#
# Periods are 0-based below: span (s, e) covers periods s + 1 .. e + 1 and
# leads from node s to node e + 1 (node T is the sink).


def _admissible_spans(
    cost: np.ndarray, bound: float, prefix: np.ndarray, suffix: np.ndarray
) -> np.ndarray:
    """Spans that can lie on a feasible plan costing at most ``bound``.

    Every feasible plan is also a relaxed plan and no level prices a span
    below its matrix optimum, so a plan through span (s, e) costs at least
    prefix[s] + cost[s, e] + suffix[e + 1], with ``prefix`` and ``suffix``
    the relaxed distances over ``cost``.
    """
    with np.errstate(invalid="ignore"):  # NaN below the diagonal compares False
        return prefix[:-1, None] + cost + suffix[None, 1:] <= bound + BOUND_TOL * abs(bound)


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
    p = matrix.params
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
        running = np.cumsum(p.h * on_hand + p.b * short, axis=0)
        total = np.full_like(ys, np.inf)
        arg = np.zeros(ys.shape, dtype=int)
        for e in ends:
            mu = matrix.mus[s, e - s]
            if e == T - 1:
                w = running[e - s] + (p.K + p.z * ys)
            else:
                w = running[e - s] + (p.K + p.z * mu) + np.interp(ys - mu, ys, value[e + 1])
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


def _plan(matrix: ConnectionMatrix, plan: ConstrainedPlan) -> PathSolution:
    """``plan`` as a path of ``"reoptimised"`` arcs."""
    arcs = []
    for (s, e), y, cost in zip(plan.spans, plan.levels, plan.costs):
        info = CycleInfo(
            start=s + 1,
            end=e + 1,
            order_up_to=y,
            closing=y - float(matrix.mus[s, e - s]),
            cost=cost,
        )
        arcs.append(Arc(NodeId(s + 1), NodeId(e + 2), "reoptimised", info))
    return PathSolution(
        nodes=[NodeId(1)] + [a.v for a in arcs], arcs=arcs, total_cost=plan.cost
    )


def reoptimise(matrix: ConnectionMatrix, relaxed: PathSolution) -> PathSolution:
    """Stage 3 of the repair: the cheapest feasible plan over all schedules.

    ``relaxed`` is the relaxed optimum (:func:`relaxed_path`). Its schedule
    at its exact constrained levels is a feasible plan, and that plan's cost
    bounds the spans the grid dynamic program visits (see
    :func:`_admissible_spans`); a pruned matrix carries that plan as
    ``matrix.bound_plan`` and its relaxed distances, so neither is computed
    again. The level grid (see ``GRID_PER_MEAN``) covers 0 and the matrix
    optima of those spans: an optimal constrained level lies between the
    lowest and highest stand-alone optimum of its plan. The recovered
    schedule then gets its exact constrained levels. Returns the cheaper of
    the two plans. Both price their spans from the matrix's moment table
    (``matrix.mus``/``matrix.sds``).
    """
    T = matrix.horizon
    relaxed_schedule = tuple(
        (c.cycle.start - 1, c.cycle.end - 1) for c in effective_cycles(relaxed)
    )
    bound = matrix.bound_plan
    if bound is None or bound.spans != relaxed_schedule:
        bound = _constrained_plan(matrix, relaxed_schedule)
    prefix, suffix, _ = matrix.relaxed_distances()
    keep = _admissible_spans(matrix.cost, bound.cost, prefix, suffix)

    levels = matrix.level[keep]
    lo = min(0.0, float(levels.min()))
    hi = float(levels.max())
    mean_step = matrix.total_mean / T / GRID_PER_MEAN
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
    plans = [_plan(matrix, bound)]
    if tuple(schedule) != relaxed_schedule:
        plans.append(_plan(matrix, _constrained_plan(matrix, schedule)))

    return min(plans, key=lambda plan: plan.total_cost)
