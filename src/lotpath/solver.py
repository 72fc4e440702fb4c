"""End-to-end solve: connection matrix, shortest path, feasibility repair.

The repair has the split-and-re-solve loop of :mod:`lotpath.augment` and,
after it, the exact re-optimising stage :func:`lotpath.augment.reoptimise`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .augment import (
    AugmentationTrace,
    check_feasibility,
    effective_cycles,
    reoptimise,
    repetitive_augment,
)
from .cycles import ConnectionMatrix, build_connection_matrix
from .graph import PathSolution, ReplenishmentGraph, build_graph, shortest_path
from .instances import InstanceSpec
from .simulate import Policy

__all__ = ["Solution", "solve_instance", "policy_from_path"]


def policy_from_path(path: PathSolution, horizon: int) -> Policy:
    """Translate a feasible path into the review schedule it encodes.

    Each realised cycle contributes a review at its start period with the
    cycle's order-up-to level; periods absorbed into a merged cycle keep
    their review slot (it still costs K) but never order.
    """
    entries: List[Tuple[int, Optional[float]]] = []
    for ec in effective_cycles(path):
        entries.append((ec.cycle.start, ec.cycle.order_up_to))
        for a in ec.cycle.absorbed:
            entries.append((a, None))
    entries.sort()
    return Policy(
        horizon=horizon,
        reviews=tuple(p for p, _ in entries),
        levels=tuple(s for _, s in entries),
    )


@dataclass
class Solution:
    """Everything the solve produced, including the intermediate relaxation."""

    instance: InstanceSpec
    policy: Policy
    expected_cost: float
    relaxed_cost: float
    path: PathSolution
    relaxed_path: PathSolution
    trace: AugmentationTrace
    graph: ReplenishmentGraph
    matrix: ConnectionMatrix
    relaxed_violations: int
    timings: Dict[str, float]

    @property
    def introduced_nodes(self) -> int:
        return self.trace.introduced_nodes

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.to_dict(),
            "policy": self.policy.to_dict(),
            "expected_cost": self.expected_cost,
            "relaxed_cost": self.relaxed_cost,
            "relaxed_violations": self.relaxed_violations,
            "introduced_nodes": self.introduced_nodes,
            "path": list(self.path.node_labels),
            "relaxed_path": list(self.relaxed_path.node_labels),
            "reoptimised": self.trace.reoptimised,
            "splits": len(self.trace.steps),
            "searches": self.trace.searches,
            "arcs_relaxed": self.graph.arcs_relaxed,
            "timings": dict(self.timings),
        }


def solve_instance(
    instance: InstanceSpec,
    method: str = "bisection",
    y_tol: float = 1e-6,
    grid_step: float = 1.0,
    max_iterations: Optional[int] = None,
) -> Solution:
    """Compute the best feasible review schedule for ``instance``.

    ``method`` selects how each cycle level is optimised: ``"bisection"`` on
    the stationarity condition or ``"grid"`` sweep with ``grid_step``. The
    graph is built once and holds every span; the relaxed search and the
    repair both run on it, and the repair's first search reuses the relaxed
    search's labels (see :func:`lotpath.graph.shortest_path`). Path costs
    below include the unit-cost credit for initial inventory, so they are
    true expected policy costs.

    When the relaxed path needs a repair, the split loop runs first and the
    re-optimising stage then replaces its plan if it finds a cheaper
    feasible one; ``path``, ``policy`` and ``expected_cost`` describe the
    plan kept. Both stages count towards ``t_augment``.
    """
    t0 = time.perf_counter()
    matrix = build_connection_matrix(instance, method=method, y_tol=y_tol, grid_step=grid_step)
    graph = build_graph(matrix)
    t1 = time.perf_counter()
    relaxed = shortest_path(graph)
    t2 = time.perf_counter()
    relaxed_violations = len(check_feasibility(relaxed))
    path, trace = repetitive_augment(graph, max_iterations=max_iterations)
    if relaxed_violations:
        better = reoptimise(matrix, instance.demands, path, relaxed)
        if better is not None:
            path = better
            trace.reoptimised = True
    t3 = time.perf_counter()

    offset = instance.params.z * instance.initial_inventory
    return Solution(
        instance=instance,
        policy=policy_from_path(path, instance.horizon),
        expected_cost=path.total_cost - offset,
        relaxed_cost=relaxed.total_cost - offset,
        path=path,
        relaxed_path=relaxed,
        trace=trace,
        graph=graph,
        matrix=matrix,
        relaxed_violations=relaxed_violations,
        timings={
            "t_prep": t1 - t0,
            "t_shortest_path": t2 - t1,
            "t_augment": t3 - t2,
        },
    )
