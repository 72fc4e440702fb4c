"""End-to-end solve: connection matrix, relaxed plan, re-optimising repair.

The matrix prices each cycle at the bisected root of its newsvendor
fractile condition; there is no other level method. The solve prices only
the spans that can matter: span lengths grow in order, and a start
period stops growing once a lower bound shows that none of its longer spans
lies on a plan within the re-optimising stage's bound
(:func:`lotpath.cycles.build_connection_matrix` with ``prune=True``). The
relaxed plan comes straight from the matrix arrays
(:func:`lotpath.augment.relaxed_path`). When it expects a negative order,
the exact re-optimising stage :func:`lotpath.augment.reoptimise` gives the
answer; it reads the relaxed distances and the bound plan the pruned
matrix carries. Both are those of the complete matrix, bit for bit. Every
plan is a :class:`~lotpath.cycles.Plan`; the solve builds no cycle graph and
imports nothing from :mod:`lotpath.graph`, where the paper's
split-and-re-solve loop lives.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict

from .augment import check_feasibility, relaxed_path, reoptimise
from .cycles import Plan, build_connection_matrix
from .instances import InstanceSpec
from .simulate import Policy

__all__ = ["Solution", "solve_instance", "policy_from_path"]

#: above this cv the Normal demand's mass below zero, which the cycle costs
#: do not truncate, is no longer negligible
CV_LIMIT = 0.3

_log = logging.getLogger(__name__)


def policy_from_path(plan: Plan) -> Policy:
    """The review schedule ``plan`` encodes: a review at the first period of
    each cycle, ordering up to the cycle's level, over the periods up to the
    plan's last."""
    return Policy(
        horizon=plan.spans[-1][1] + 1,
        reviews=tuple(s + 1 for s, _ in plan.spans),
        levels=plan.levels,
    )


@dataclass
class Solution:
    """Everything the solve produced, including the intermediate relaxation.

    ``spans_priced`` counts the spans the pruned matrix priced; the matrix
    itself is not kept, so a held answer is O(horizon).
    """

    instance: InstanceSpec
    policy: Policy
    expected_cost: float
    relaxed_cost: float
    path: Plan
    relaxed_path: Plan
    spans_priced: int
    relaxed_violations: int
    timings: Dict[str, float]

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.to_dict(),
            "policy": self.policy.to_dict(),
            "expected_cost": self.expected_cost,
            "relaxed_cost": self.relaxed_cost,
            "relaxed_violations": self.relaxed_violations,
            "spans_priced": self.spans_priced,
            "path": list(self.path.node_labels),
            "relaxed_path": list(self.relaxed_path.node_labels),
            "timings": dict(self.timings),
        }


def solve_instance(instance: InstanceSpec) -> Solution:
    """Compute the best feasible review schedule for ``instance``.

    Every cycle level is the root of its newsvendor fractile condition,
    bisected to ``lotpath.cycles.Y_TOL``. The matrix prices only the spans
    that a plan within the re-optimising bound can use (``spans_priced``
    counts them); build the complete matrix with
    :func:`build_connection_matrix` for the cycle graph.
    The relaxed optimum is the cheapest plan over the matrix; when it
    expects a negative order, the re-optimising stage's plan is the answer,
    else the relaxed plan itself. ``path``, ``policy`` and ``expected_cost``
    describe that plan. The costs below include the unit-cost credit for
    initial inventory, so they are true expected policy costs. A cv above
    ``CV_LIMIT`` is solved, with a warning on the ``lotpath`` logger.
    """
    if instance.cv > CV_LIMIT:
        _log.warning(
            "%s: cv %g exceeds %g; demand is Normal and its mass below zero is not "
            "truncated, so the costs and levels are those of a model that allows "
            "negative demand",
            instance.name or "instance", instance.cv, CV_LIMIT,
        )
    t0 = time.perf_counter()
    matrix = build_connection_matrix(instance, prune=True)
    t1 = time.perf_counter()
    relaxed = relaxed_path(matrix)
    relaxed_violations = len(check_feasibility(relaxed))
    t2 = time.perf_counter()
    path = reoptimise(matrix) if relaxed_violations else relaxed
    t3 = time.perf_counter()

    offset = instance.z * instance.initial_inventory
    return Solution(
        instance=instance,
        policy=policy_from_path(path),
        expected_cost=path.cost - offset,
        relaxed_cost=relaxed.cost - offset,
        path=path,
        relaxed_path=relaxed,
        spans_priced=len(matrix),
        relaxed_violations=relaxed_violations,
        timings={
            "t_matrix": t1 - t0,
            "t_relaxed": t2 - t1,
            "t_reoptimise": t3 - t2,
        },
    )
