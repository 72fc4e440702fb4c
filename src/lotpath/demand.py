"""Period demand models and first-order loss functions.

Demand in period t is an independent Normal random variable. The expected
shortage and expected surplus of an inventory position x against a demand D
are the first-order loss function and its complement:

    loss(x, D)               = E[(D - x)^+]
    complementary_loss(x, D) = E[(x - D)^+]

For Normal D with mean mu and standard deviation sigma both have closed
forms in terms of the standard Normal pdf/cdf (u = (x - mu) / sigma):

    loss            = sigma * (phi(u) - (1 - Phi(u)) * u)
    complementary   = sigma * (phi(u) + Phi(u) * u)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "PeriodDemand",
    "HorizonDemand",
    "cumulative",
    "loss",
    "complementary_loss",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(u: float) -> float:
    return math.exp(-0.5 * u * u) / _SQRT_2PI


def _Phi(u: float) -> float:
    return 0.5 * math.erfc(-u / _SQRT2)


@dataclass(frozen=True)
class PeriodDemand:
    """Normal demand of a single period.

    Parameters
    ----------
    mean, std_dev:
        First two moments. ``std_dev`` may be zero (deterministic demand).
    """

    mean: float
    std_dev: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError("demand mean must be finite")
        if not (math.isfinite(self.std_dev) and self.std_dev >= 0.0):
            raise ValueError(f"std_dev must be a finite non-negative number, got {self.std_dev}")


@dataclass(frozen=True)
class HorizonDemand:
    """Total demand accumulated over consecutive periods ``first..last``.

    Sums of independent Normals stay Normal: the mean is the sum of the
    period means and the variance is the sum of the period variances.
    """

    first_period: int
    last_period: int
    mean: float
    std_dev: float


def cumulative(demands: Sequence[PeriodDemand], first: int, last: int) -> HorizonDemand:
    """Aggregate demand of periods ``first..last`` (1-indexed, inclusive).

    Raises ``ValueError`` for an empty or out-of-range window.
    """
    if not 1 <= first <= last <= len(demands):
        raise ValueError(
            f"period window {first}..{last} outside horizon 1..{len(demands)}"
        )
    mean = 0.0
    var = 0.0
    for d in demands[first - 1 : last]:
        mean += d.mean
        var += d.std_dev * d.std_dev
    return HorizonDemand(first, last, mean, math.sqrt(var))


def loss(x: float, demand) -> float:
    """Expected shortage E[(D - x)^+] of position ``x`` against ``demand``.

    ``demand`` is a :class:`PeriodDemand` or :class:`HorizonDemand`. Normal
    demand with zero variance degenerates to ``max(mean - x, 0)``.
    """
    mu, sigma = demand.mean, demand.std_dev
    if sigma == 0.0:
        return max(mu - x, 0.0)
    u = (x - mu) / sigma
    return sigma * (_phi(u) - (1.0 - _Phi(u)) * u)


def complementary_loss(x: float, demand) -> float:
    """Expected surplus E[(x - D)^+].

    Satisfies the identity ``complementary_loss - loss == x - mean`` exactly.
    """
    mu, sigma = demand.mean, demand.std_dev
    if sigma == 0.0:
        return max(x - mu, 0.0)
    u = (x - mu) / sigma
    return sigma * (_phi(u) + _Phi(u) * u)

