"""Brute-force reference solver over all review schedules.

Enumerates every schedule with a review in period 1 (2^(T-1) of them, for
horizons up to ``MAX_ORACLE_HORIZON``) and optimises the order-up-to levels
per schedule, independently of the solve, so it can vouch for the solve's
relaxed and repaired plans on small horizons.

Two modes:

* unconstrained: each cycle level minimised on its own; the best schedule
  cost must equal the relaxed shortest-path objective.
* constrained: levels must additionally absorb the stock carried between
  cycles (expected closing of a cycle never exceeds the next level), i.e. no
  expected negative orders. SLSQP solves the levels exactly, with every
  hand-off as a linear constraint, starting from each cycle's stand-alone
  optimum raised where it would need a negative order.

The oracle keeps its own Normal loss and CDF kernels and its own level
solve, on purpose: it shares no code with the solver it checks.

Costs are priced the same way as cycle costs elsewhere: fixed K per review,
unit cost on the cycle mean (on the level itself for the terminal cycle),
holding and penalty from the two Normal loss integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Tuple

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ndtr

from .errors import InputError
from .instances import InstanceSpec

__all__ = ["OracleResult", "schedule_enumeration_oracle"]

MAX_ORACLE_HORIZON = 8


@dataclass(frozen=True)
class OracleResult:
    best_cost: float
    best_schedule: Tuple[int, ...]
    best_levels: Tuple[float, ...]
    constrained: bool
    n_schedules: int
    schedule_costs: Dict[Tuple[int, ...], float]


def _normal_losses(y, mu, sigma):
    """(E[(d - y)^+], E[(y - d)^+]) for d ~ Normal(mu, sigma); y may be an array."""
    y = np.asarray(y, dtype=float)
    if sigma == 0.0:
        short = np.maximum(mu - y, 0.0)
        exces = np.maximum(y - mu, 0.0)
    else:
        u = (y - mu) / sigma
        # u * u may overflow to inf; exp(-inf) = 0 is the exact limit
        with np.errstate(over="ignore"):
            pdf = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        # ndtr(-u), not 1 - ndtr(u): the upper tail keeps its digits
        short = sigma * (pdf - ndtr(-u) * u)
        exces = short + (y - mu)
    return np.maximum(short, 0.0), np.maximum(exces, 0.0)


class _CycleTable:
    """Per-(first, last) cycle cost callables; levels lie in [0, ymax]."""

    def __init__(self, instance: InstanceSpec, ymax: float):
        self.instance = instance
        self.T = instance.horizon
        self.means = instance.means
        self.vars_ = [(instance.cv * m) ** 2 for m in instance.means]
        self.ymax = ymax
        self._free_cache: Dict[Tuple[int, int], Tuple[float, float]] = {}

    def cost(self, first: int, last: int, y):
        inst = self.instance
        mu_acc = 0.0
        var_acc = 0.0
        total = np.zeros_like(np.asarray(y, dtype=float))
        for k in range(first, last + 1):
            mu_acc += self.means[k - 1]
            var_acc += self.vars_[k - 1]
            short, exces = _normal_losses(y, mu_acc, math.sqrt(var_acc))
            total = total + inst.h * exces + inst.b * short
        unit = inst.z * (np.asarray(y, dtype=float) if last == self.T else mu_acc)
        return inst.K + unit + total

    def slope(self, first: int, last: int, y: float) -> float:
        """Derivative of ``cost`` in y: (h + b) Phi - b summed over the
        covered periods, plus z for the horizon-final cycle."""
        inst = self.instance
        mu_acc = 0.0
        var_acc = 0.0
        total = inst.z if last == self.T else 0.0
        for k in range(first, last + 1):
            mu_acc += self.means[k - 1]
            var_acc += self.vars_[k - 1]
            sigma = math.sqrt(var_acc)
            cdf = float(y >= mu_acc) if sigma == 0.0 else float(ndtr((y - mu_acc) / sigma))
            total += (inst.h + inst.b) * cdf - inst.b
        return total

    def free_minimum(self, first: int, last: int) -> Tuple[float, float]:
        """(level, cost) of the cycle optimised with no coupling."""
        key = (first, last)
        if key not in self._free_cache:
            res = minimize_scalar(
                lambda y: float(self.cost(first, last, y)),
                bounds=(0.0, self.ymax),
                method="bounded",
                options={"xatol": 1e-8},
            )
            self._free_cache[key] = (float(res.x), float(res.fun))
        return self._free_cache[key]


def _all_schedules(T: int):
    for n_extra in range(0, T):
        for extra in combinations(range(2, T + 1), n_extra):
            yield (1,) + extra


def _cycles_of(schedule: Tuple[int, ...], T: int) -> List[Tuple[int, int]]:
    ends = list(schedule[1:]) + [T + 1]
    return [(schedule[i], ends[i] - 1) for i in range(len(schedule))]


def _constrained_schedule(
    table: _CycleTable, cycles: List[Tuple[int, int]]
) -> Tuple[float, List[float]]:
    """Best levels for one schedule with carried stock absorbed at each review.

    SLSQP solves the convex problem: minimise the summed cycle costs subject
    to y[k+1] - y[k] + mu[k] >= 0 and 0 <= y <= ymax. It starts from each
    cycle's stand-alone optimum, raised forward where it would need a
    negative order, which is feasible. Its answer is projected onto the
    hand-offs before it is priced; the cheaper of start and answer is
    returned.
    """
    n = len(cycles)
    mus = [sum(table.means[a - 1: b]) for a, b in cycles]
    levels = [table.free_minimum(a, b)[0] for a, b in cycles]
    for k in range(1, n):
        levels[k] = max(levels[k], levels[k - 1] - mus[k - 1])

    def total(y) -> float:
        return sum(float(table.cost(a, b, y[i])) for i, (a, b) in enumerate(cycles))

    def gradient(y) -> np.ndarray:
        return np.array([table.slope(a, b, y[i]) for i, (a, b) in enumerate(cycles)])

    # hand-off k: y[k+1] - y[k] + mu[k] >= 0
    handoffs = np.eye(n, k=1)[: n - 1] - np.eye(n)[: n - 1]
    carried = np.array(mus[: n - 1])
    res = minimize(
        total,
        np.array(levels),
        jac=gradient,
        method="SLSQP",
        bounds=[(0.0, table.ymax)] * n,
        constraints=[{
            "type": "ineq",
            "fun": lambda y: handoffs @ y + carried,
            "jac": lambda y: handoffs,
        }] if n > 1 else [],
        options={"ftol": 1e-12, "maxiter": 200},
    )
    exact = [float(y) for y in res.x]
    for k in range(1, n):
        exact[k] = max(exact[k], exact[k - 1] - mus[k - 1])
    return min((total(exact), exact), (total(levels), levels), key=lambda c: c[0])


def schedule_enumeration_oracle(instance: InstanceSpec, constrained: bool = True) -> OracleResult:
    """Exact-by-enumeration benchmark for small instances.

    Raises :class:`InputError` beyond ``MAX_ORACLE_HORIZON`` periods; the
    schedule count doubles per period. Levels lie in [0, max(1, D + 12 sd)],
    D the demand over the whole horizon.
    """
    T = instance.horizon
    if T > MAX_ORACLE_HORIZON:
        raise InputError(
            f"oracle enumerates 2^(T-1) schedules; horizon {T} exceeds cap {MAX_ORACLE_HORIZON}"
        )
    demand = sum(instance.means)
    demand_sd = math.sqrt(sum((instance.cv * m) ** 2 for m in instance.means))
    table = _CycleTable(instance, max(1.0, demand + 12.0 * demand_sd))
    offset = instance.z * instance.initial_inventory

    best_cost = math.inf
    best_schedule: Tuple[int, ...] = (1,)
    best_levels: Tuple[float, ...] = ()
    costs: Dict[Tuple[int, ...], float] = {}
    n = 0
    for schedule in _all_schedules(T):
        n += 1
        cycles = _cycles_of(schedule, T)
        if constrained:
            cost, levels = _constrained_schedule(table, cycles)
        else:
            levels, cost = [], 0.0
            for a, b in cycles:
                lv, c = table.free_minimum(a, b)
                levels.append(lv)
                cost += c
        cost -= offset
        costs[schedule] = cost
        if cost < best_cost:
            best_cost = cost
            best_schedule = schedule
            best_levels = tuple(levels)
    return OracleResult(
        best_cost=best_cost,
        best_schedule=best_schedule,
        best_levels=best_levels,
        constrained=constrained,
        n_schedules=n,
        schedule_costs=costs,
    )
