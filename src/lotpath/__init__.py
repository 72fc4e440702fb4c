"""Review/order-up-to policies for non-stationary stochastic lot sizing.

Pipeline: price every replenishment cycle (connection matrix), take the
cheapest path over the matrix (relaxed optimum), and when that path would
need a negative order, re-optimise over all review schedules and levels
under the no-negative-order constraint. The paper's split-and-re-solve loop
on the cycle graph (``build_graph``, ``repetitive_augment``) stays available
as its stage-2 algorithm, off the solve path.

The schedule-enumeration oracle (``lotpath.oracle``, built on
``scipy.optimize``) is an independent reference, not part of a solve: its
names load it on first access, so a process that never uses it never
imports ``scipy.optimize``. Warnings go to the ``lotpath`` logger, which has
a :class:`logging.NullHandler` until the application configures logging.
"""

import logging

from .augment import (
    AugmentationStep,
    AugmentationTrace,
    FeasibilityViolation,
    check_feasibility,
    effective_cycles,
    relaxed_path,
    reoptimise,
    repetitive_augment,
)
from .cycles import (
    ConnectionMatrix,
    CostParams,
    CycleOptimum,
    build_connection_matrix,
    cycle_cost_at,
    optimize_order_up_to,
)
from .demand import PeriodDemand, complementary_loss, cumulative, loss
from .errors import InputError, LotpathError, NonTerminationError, NumericalError
from .graph import (
    Arc,
    CycleInfo,
    NodeId,
    PathSolution,
    ReplenishmentGraph,
    build_graph,
    graph_dump,
    shortest_path,
)
from .instances import InstanceSpec, generate_instances, load_instance, save_instance
from .simulate import Policy, SimulationReport, expected_trace, simulate_policy
from .solver import Solution, policy_from_path, solve_instance

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

_ORACLE_NAMES = ("OracleResult", "schedule_enumeration_oracle")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ORACLE_NAMES))

__all__ = [
    "__version__",
    "Arc",
    "AugmentationStep",
    "AugmentationTrace",
    "ConnectionMatrix",
    "CostParams",
    "CycleInfo",
    "CycleOptimum",
    "FeasibilityViolation",
    "InputError",
    "InstanceSpec",
    "LotpathError",
    "NodeId",
    "NonTerminationError",
    "NumericalError",
    "OracleResult",
    "PathSolution",
    "PeriodDemand",
    "Policy",
    "ReplenishmentGraph",
    "SimulationReport",
    "Solution",
    "build_connection_matrix",
    "build_graph",
    "check_feasibility",
    "complementary_loss",
    "cumulative",
    "cycle_cost_at",
    "effective_cycles",
    "expected_trace",
    "generate_instances",
    "graph_dump",
    "load_instance",
    "loss",
    "optimize_order_up_to",
    "policy_from_path",
    "relaxed_path",
    "reoptimise",
    "repetitive_augment",
    "save_instance",
    "schedule_enumeration_oracle",
    "shortest_path",
    "simulate_policy",
    "solve_instance",
]
