"""Feasibility repair of a relaxed shortest-path schedule.

The relaxed solution may pair two consecutive cycles so that the expected
inventory entering a review exceeds that review's order-up-to level, which
would require a negative order quantity. Repair splits the offending node i
into a virtual copy i':

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import LotpathError, NonTerminationError
from .graph import Arc, CycleInfo, NodeId, PathSolution, ReplenishmentGraph, shortest_path

__all__ = [
    "EffectiveCycle",
    "FeasibilityViolation",
    "AugmentationStep",
    "AugmentationTrace",
    "effective_cycles",
    "check_feasibility",
    "augment_once",
    "repetitive_augment",
]

FEAS_TOL = 1e-9


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


def check_feasibility(path: PathSolution, tol: float = FEAS_TOL) -> List[FeasibilityViolation]:
    """All negative-expected-order pairings along the path, in path order."""
    cycles = effective_cycles(path)
    violations = []
    for idx in range(1, len(cycles)):
        prev, cur = cycles[idx - 1], cycles[idx]
        gap = prev.cycle.closing - cur.cycle.order_up_to
        if gap > tol:
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
    skipped_targets: List[int] = field(default_factory=list)
    removed_nodes: List[NodeId] = field(default_factory=list)
    pruned_inbound: int = 0
    upstream_flag: bool = False


@dataclass
class AugmentationTrace:
    steps: List[AugmentationStep]
    dijkstra_runs: int

    @property
    def introduced_nodes(self) -> int:
        return len(self.steps)


def augment_once(
    graph: ReplenishmentGraph,
    violation: FeasibilityViolation,
    tol: float = FEAS_TOL,
) -> AugmentationStep:
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
    # scanning the matrix (not surviving arcs) keeps filtered spans from being
    # re-issued as duplicates that violate the same pairing
    row = v.period - 1
    ends = v.period + np.flatnonzero(matrix.level[row, row:] < closing - tol)
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
            step.pruned_inbound += 1

    for k in range(v.period + 1, j + 2):
        if not graph.has_node(NodeId(k)):
            step.skipped_targets.append(k)
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
            step.skipped_targets.append(x)
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

    step.removed_nodes = graph.cleanup_isolated()
    return step


def repetitive_augment(
    graph: ReplenishmentGraph,
    max_iterations: Optional[int] = None,
    tol: float = FEAS_TOL,
) -> Tuple[PathSolution, AugmentationTrace]:
    """Re-solve and repair until the shortest path carries no violations.

    Processes the earliest violation of each path, re-runs Dijkstra after
    every split (an upstream pairing broken by a merge then surfaces on the
    next round; the classical upstream recheck is recorded as a diagnostic
    flag on the step). Raises :class:`NonTerminationError` after
    ``max_iterations`` splits (default 10 * horizon).
    """
    cap = max_iterations if max_iterations is not None else 10 * graph.horizon
    steps: List[AugmentationStep] = []
    runs = 0
    while True:
        path = shortest_path(graph)
        runs += 1
        violations = check_feasibility(path, tol)
        if not violations:
            return path, AugmentationTrace(steps=steps, dijkstra_runs=runs)
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
        worst = violations[0]
        cycles = effective_cycles(path)
        step = augment_once(graph, worst, tol)
        # upstream recheck: would the pairing before the merged cycle now break?
        upstream_closing = (
            cycles[worst.pair_index - 2].cycle.closing if worst.pair_index >= 2 else 0.0
        )
        new_levels = [
            graph.get_arc(step.new_node, NodeId(k)).cycle.order_up_to
            for k in step.recomputed_targets
        ]
        step.upstream_flag = bool(new_levels) and upstream_closing > min(new_levels) + tol
        steps.append(step)
