"""Review/order-up-to policies for non-stationary stochastic lot sizing.

Pipeline: price every replenishment cycle (connection matrix), take the
cheapest plan over the matrix (relaxed optimum), and when that plan would
need a negative order, re-optimise over all review schedules and levels
under the no-negative-order constraint. Every plan the solve produces is a
:class:`Plan`: spans, levels, closing stocks and costs.

Importing the package, generating and reading instances, the analytic trace
and Monte Carlo simulation load numpy alone. Three parts load on first use,
so a process that never uses one never imports it:

* ``scipy.special`` (its Normal CDF ``ndtr``), on the first span pricing: a
  solve, a matrix build or the re-optimising stage;
* the paper's stage 2 (``lotpath.graph``), which is not on the solve path:
  the cycle graph (``build_graph``, ``shortest_path``) and its
  split-and-re-solve loop (``repetitive_augment``);
* the schedule-enumeration oracle (``lotpath.oracle``, built on
  ``scipy.optimize``), an independent reference.

The last two load their module on first access to one of their names.

Warnings go to the ``lotpath`` logger, which has a
:class:`logging.NullHandler` until the application configures logging.
"""

import importlib
import logging

from .augment import check_feasibility, relaxed_path, reoptimise
from .cycles import (
    ConnectionMatrix,
    Plan,
    build_connection_matrix,
    cycle_cost_at,
)
from .demand import complementary_loss, loss
from .errors import InputError, LotpathError, NonTerminationError, NumericalError
from .instances import InstanceSpec, generate_instances, load_instance, save_instance
from .simulate import Policy, SimulationReport, expected_trace, simulate_policy
from .solver import Solution, policy_from_path, solve_instance

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

#: names loaded from their module on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(("OracleResult", "schedule_enumeration_oracle"), "oracle"),
    **dict.fromkeys(
        (
            "Arc", "AugmentationStep", "NodeId", "PathSolution", "ReplenishmentGraph",
            "build_graph", "graph_dump", "repetitive_augment", "shortest_path",
        ),
        "graph",
    ),
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "__version__",
    "Arc",
    "AugmentationStep",
    "ConnectionMatrix",
    "InputError",
    "InstanceSpec",
    "LotpathError",
    "NodeId",
    "NonTerminationError",
    "NumericalError",
    "OracleResult",
    "PathSolution",
    "Plan",
    "Policy",
    "ReplenishmentGraph",
    "SimulationReport",
    "Solution",
    "build_connection_matrix",
    "build_graph",
    "check_feasibility",
    "complementary_loss",
    "cycle_cost_at",
    "expected_trace",
    "generate_instances",
    "graph_dump",
    "load_instance",
    "loss",
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
