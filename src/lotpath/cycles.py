"""Expected cost of a replenishment cycle and its optimal order-up-to level.

A cycle covering periods ``i..j`` places one order at the start of period i
that raises the inventory position to a level y and receives nothing more
until period j+1. Expected cost of the cycle:

    c(i, j; y) = K + unit_term + sum over k = i..j of
                 h * complementary_loss(y, D[i..k]) + b * loss(y, D[i..k])

where D[i..k] is the cumulative demand of periods i..k. Each period inside
the cycle is charged against the demand accumulated since the order, so the
summand k prices the end-of-period-k inventory.

The cost is convex in y and its minimiser solves the multi-period
newsvendor condition

    sum over k = i..j of Phi[i..k](y) = (j - i + 1) * b / (b + h)

(with a -z correction on the numerator for the horizon-final cycle). For a
single period this is the classical critical fractile mu + sigma *
Phi^-1(b / (b + h)). The fixed cost K shifts the whole curve and never moves
the minimiser.

Unit purchasing cost z is handled by telescoping: summed over any complete
review schedule, z * order quantities equals z * (total mean demand +
closing inventory - initial inventory). Interior cycles therefore carry the
constant share z * (cycle mean demand) and the final cycle carries z * y,
which is the only part that depends on a decision variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from .demand import PeriodDemand, complementary_loss, cumulative, loss
from .errors import NumericalError

__all__ = [
    "CostParams",
    "CycleOptimum",
    "ConnectionMatrix",
    "cycle_cost_at",
    "optimize_order_up_to",
    "build_connection_matrix",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: absolute tolerance of the bisection that sets each matrix level
Y_TOL = 1e-6


@dataclass(frozen=True)
class CostParams:
    """Cost structure: fixed order cost K, unit cost z, holding h, penalty b."""

    K: float
    z: float
    h: float
    b: float

    def __post_init__(self):
        if self.K < 0:
            raise ValueError(f"fixed order cost K must be >= 0, got {self.K}")
        if self.h <= 0:
            raise ValueError(f"holding cost h must be > 0, got {self.h}")
        if self.b <= self.h:
            # keeps the newsvendor fractile above one half
            raise ValueError(f"penalty cost b must exceed holding cost h, got b={self.b} h={self.h}")
        if not 0 <= self.z < self.b:
            raise ValueError(f"unit cost z must satisfy 0 <= z < b, got z={self.z} b={self.b}")


@dataclass(frozen=True)
class CycleOptimum:
    """Optimal order-up-to level and expected cost of one cycle.

    ``expected_closing`` is the expected inventory at the end of the cycle
    and equals ``order_up_to - cumulative mean`` exactly.
    """

    first_period: int
    last_period: int
    order_up_to: float
    expected_cost: float
    expected_closing: float
    terminal: bool = False


# ---------------------------------------------------------------------------
# batched kernels over (span x period) blocks of cumulative demand
#
# Row r of a block describes one cycle: column k holds the mean and standard
# deviation of the demand accumulated over its first k + 1 periods. Every
# row of a block covers the same number of periods, so numpy sums each row
# in exactly the order it sums the arrays of a single cycle, and the batched
# levels equal those of a per-cycle scalar bisection bit for bit (the tests
# keep one as the reference). Blocks are therefore cut by cycle length, not
# by start period: zero-padded rows of mixed length sum in another order,
# which moves a few levels in the last bit.
# ---------------------------------------------------------------------------


def _moments(demands: Sequence[PeriodDemand]) -> Tuple[np.ndarray, np.ndarray]:
    means = np.array([d.mean for d in demands], dtype=float)
    var = np.array([d.std_dev**2 for d in demands], dtype=float)
    return means, var


def _loss_pair(y, mus, sds):
    """Elementwise (loss, complementary_loss) of level ``y`` against Normal
    cumulative demands ``(mus, sds)``, with numpy broadcasting.

    The closed form is evaluated only where sd > 0 (a unit divisor stands in
    elsewhere, so no 0 * inf arises); a zero sd is a point mass at its mean.
    """
    pos = sds > 0.0
    u = (y - mus) / np.where(pos, sds, 1.0)
    phi = np.exp(-0.5 * u * u) / _SQRT_2PI
    lo = sds * (phi - (1.0 - ndtr(u)) * u)
    # exact identity: complementary - loss = y - mu
    hi = lo + (y - mus)
    if not pos.all():
        lo = np.where(pos, lo, np.maximum(mus - y, 0.0))
        hi = np.where(pos, hi, np.maximum(y - mus, 0.0))
    return lo, hi


def _block_costs(
    y: np.ndarray, mus: np.ndarray, sds: np.ndarray, params: CostParams, terminal: np.ndarray
) -> np.ndarray:
    """Expected cost of each row's cycle at its level ``y``.

    ``terminal`` flags the rows whose cycle ends at the horizon; they carry
    the unit cost on the level instead of on the cycle mean.
    """
    lo, hi = _loss_pair(y[:, None], mus, sds)
    base = params.K + np.where(terminal, params.z * y, params.z * mus[:, -1])
    return base + (params.h * hi + params.b * lo).sum(axis=1)


def _bisect_roots(
    g, lo: np.ndarray, hi: np.ndarray, y_tol: float, max_expand: int = 64
) -> np.ndarray:
    """Roots of non-decreasing functions, one per row, by plain bisection.

    ``g(y, rows)`` evaluates the functions of ``rows`` at the points ``y``.
    Each bracket expands geometrically until its signs differ; a row that
    cannot be bracketed raises :class:`NumericalError` describing its
    interval and function signs. Only rows wider than ``y_tol`` are
    evaluated, so each row follows exactly the midpoints a scalar bisection
    of its own function would.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    rows = np.arange(len(lo))
    g_lo, g_hi = g(lo, rows), g(hi, rows)
    width = hi - lo
    expansions = 0
    bad = rows[(g_lo > 0.0) | (g_hi < 0.0)]
    while bad.size:
        if expansions >= max_expand:
            r = bad[0]
            raise NumericalError(
                f"could not bracket the optimum: g({lo[r]:.6g})={g_lo[r]:.6g}, "
                f"g({hi[r]:.6g})={g_hi[r]:.6g} after {expansions} expansions"
            )
        width[bad] *= 2.0
        low = bad[g_lo[bad] > 0.0]
        if low.size:
            lo[low] -= width[low]
            g_lo[low] = g(lo[low], low)
        high = bad[g_hi[bad] < 0.0]
        if high.size:
            hi[high] += width[high]
            g_hi[high] = g(hi[high], high)
        expansions += 1
        bad = bad[(g_lo[bad] > 0.0) | (g_hi[bad] < 0.0)]
    active = rows[hi - lo > y_tol]
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        below = g(mid, active) < 0.0
        lo[active[below]] = mid[below]
        hi[active[~below]] = mid[~below]
        active = active[hi[active] - lo[active] > y_tol]
    return 0.5 * (lo + hi)


def _bisect_levels(
    mus: np.ndarray,
    sds: np.ndarray,
    params: CostParams,
    terminal: np.ndarray,
    lo,
    hi,
    tol: float,
) -> np.ndarray:
    """Levels solving the summed-fractile condition, one per row of a block.

    Row r's level y makes the Normal CDFs of its cumulative demands
    ``(mus[r], sds[r])`` sum to the newsvendor target n * b / (b + h), less
    z / (b + h) where ``terminal[r]`` marks a horizon-final cycle; a CDF with
    zero sd steps at its mean. This is the only solver of that condition: the
    matrix passes one row per cycle, the re-optimising stage one row per
    pooled block of cycles. The caller's bracket ``lo``..``hi`` is expanded
    until it holds the root, which is then bisected to ``tol``.
    """
    n = mus.shape[1]
    target = (n * params.b - np.where(terminal, params.z, 0.0)) / (params.b + params.h)
    pos = sds > 0.0
    scale = np.where(pos, sds, 1.0)
    steps = not pos.all()

    def g(y, rows):
        yy = y[:, None]
        m = mus[rows]
        vals = ndtr((yy - m) / scale[rows])
        if steps:
            vals = np.where(pos[rows], vals, yy >= m)
        return vals.sum(axis=1) - target[rows]

    return _bisect_roots(g, lo, hi, tol)


def _cycle_levels(
    mus: np.ndarray, sds: np.ndarray, params: CostParams, terminal: np.ndarray
) -> np.ndarray:
    """Optimal level of each row's cycle, bisected to ``Y_TOL`` from the cold
    bracket mu_min - 12 sd_max - 1 .. mu_max + 12 sd_max + 1, which holds
    the root of every row."""
    smax = sds.max(axis=1)
    lo = mus.min(axis=1) - 12.0 * smax - 1.0
    hi = mus.max(axis=1) + 12.0 * smax + 1.0
    return _bisect_levels(mus, sds, params, terminal, lo, hi, Y_TOL)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def cycle_cost_at(
    y: float,
    first: int,
    last: int,
    demands: Sequence[PeriodDemand],
    params: CostParams,
    terminal: bool = False,
) -> float:
    """Expected cycle cost at an arbitrary order-up-to level ``y``.

    Scalar reference implementation assembled period by period from the loss
    functions; the optimiser uses a vectorised equivalent.
    """
    total = params.K
    for k in range(first, last + 1):
        d = cumulative(demands, first, k)
        total += params.h * complementary_loss(y, d) + params.b * loss(y, d)
    if params.z:
        total += params.z * (y if terminal else cumulative(demands, first, last).mean)
    return total


def optimize_order_up_to(
    first: int,
    last: int,
    demands: Sequence[PeriodDemand],
    params: CostParams,
    terminal: bool = False,
) -> CycleOptimum:
    """Minimise the expected cost of cycle ``first..last`` over y.

    Solves the newsvendor fractile condition on the (monotone) cost
    derivative by bisection to ``Y_TOL``: the kernels of
    :func:`build_connection_matrix`, run on this one cycle.
    """
    means, var = _moments(demands)
    mus = np.cumsum(means[first - 1 : last])[None, :]
    sds = np.sqrt(np.cumsum(var[first - 1 : last]))[None, :]
    flags = np.array([terminal])
    y = _cycle_levels(mus, sds, params, flags)
    cost = _block_costs(y, mus, sds, params, flags)
    return CycleOptimum(
        first_period=first,
        last_period=last,
        order_up_to=float(y[0]),
        expected_cost=float(cost[0]),
        expected_closing=float(y[0] - mus[0, -1]),
        terminal=terminal,
    )


class ConnectionMatrix:
    """Optimised cycles of one instance as (horizon x horizon) arrays.

    ``level[i - 1, j - 1]``, ``cost[i - 1, j - 1]`` and ``closing[i - 1, j - 1]``
    hold the order-up-to level, expected cost and expected closing inventory
    of the cycle covering periods i..j (1 <= i <= j <= horizon); entries
    below the diagonal are NaN. ``entry(i, j)`` wraps one cycle as a
    :class:`CycleOptimum`. Cycles ending at the horizon are terminal and
    include the unit-cost term that depends on the level.

    ``mus`` and ``sds`` are the moment table the cycles were priced from:
    ``mus[i - 1, n - 1]`` and ``sds[i - 1, n - 1]`` are the mean and standard
    deviation of the demand over periods i..i+n-1, accumulated from period i
    (NaN past the horizon). The re-optimising stage prices from the same rows.
    """

    def __init__(
        self,
        horizon: int,
        params: CostParams,
        level: np.ndarray,
        cost: np.ndarray,
        closing: np.ndarray,
        mus: np.ndarray,
        sds: np.ndarray,
        total_mean: float,
    ):
        self.horizon = horizon
        self.params = params
        self.level = level
        self.cost = cost
        self.closing = closing
        self.mus = mus
        self.sds = sds
        self.total_mean = total_mean

    def entry(self, first: int, last: int) -> CycleOptimum:
        if not 1 <= first <= last <= self.horizon:
            raise KeyError((first, last))
        i, j = first - 1, last - 1
        return CycleOptimum(
            first_period=first,
            last_period=last,
            order_up_to=float(self.level[i, j]),
            expected_cost=float(self.cost[i, j]),
            expected_closing=float(self.closing[i, j]),
            terminal=last == self.horizon,
        )

    def __len__(self):
        return self.horizon * (self.horizon + 1) // 2

    def items(self) -> List[Tuple[Tuple[int, int], CycleOptimum]]:
        """All cycles as ``((i, j), entry)`` pairs, by start then end period."""
        T = self.horizon
        return [((i, j), self.entry(i, j)) for i in range(1, T + 1) for j in range(i, T + 1)]


def build_connection_matrix(instance) -> ConnectionMatrix:
    """Optimise every feasible cycle of ``instance``.

    ``instance`` needs ``horizon``, ``demands`` and ``params`` attributes.
    Produces horizon * (horizon + 1) / 2 entries, priced in one batch per
    cycle length: one bisection for the levels, one pass for the costs.
    """
    params = instance.params
    T = instance.horizon
    means, var = _moments(instance.demands)

    # row i: cumulative demand from period i + 1, accumulated the way a
    # single cycle starting there accumulates it
    mus = np.full((T, T), np.nan)
    sds = np.full((T, T), np.nan)
    for i in range(T):
        mus[i, : T - i] = np.cumsum(means[i:])
        sds[i, : T - i] = np.sqrt(np.cumsum(var[i:]))

    level = np.full((T, T), np.nan)
    cost = np.full((T, T), np.nan)
    closing = np.full((T, T), np.nan)
    for n in range(1, T + 1):
        starts = np.arange(T - n + 1)
        ends = starts + n - 1
        block_mus, block_sds = mus[: T - n + 1, :n], sds[: T - n + 1, :n]
        terminal = ends == T - 1
        y = _cycle_levels(block_mus, block_sds, params, terminal)
        level[starts, ends] = y
        cost[starts, ends] = _block_costs(y, block_mus, block_sds, params, terminal)
        closing[starts, ends] = y - block_mus[:, -1]
    return ConnectionMatrix(T, params, level, cost, closing, mus, sds, float(means.sum()))
