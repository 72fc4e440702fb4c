"""Scalar first-order loss functions of a Normal demand.

The expected shortage and expected surplus of an inventory position x
against a Normal demand D with mean mu and standard deviation sigma are the
first-order loss function and its complement:

    loss(x, mu, sigma)               = E[(D - x)^+]
    complementary_loss(x, mu, sigma) = E[(x - D)^+]

Both have closed forms in terms of the standard Normal pdf/cdf
(u = (x - mu) / sigma):

    loss            = sigma * (phi(u) - (1 - Phi(u)) * u)
    complementary   = sigma * (phi(u) + Phi(u) * u)

These are the scalar references: the solver prices cycles with its own
vectorised kernel (``lotpath.cycles._loss_pair``), and the tests compare the
two.
"""

from __future__ import annotations

import math

__all__ = ["loss", "complementary_loss"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(u: float) -> float:
    return math.exp(-0.5 * u * u) / _SQRT_2PI


def _Phi(u: float) -> float:
    return 0.5 * math.erfc(-u / _SQRT2)


def loss(x: float, mu: float, sigma: float) -> float:
    """Expected shortage E[(D - x)^+] of position ``x`` against D ~ Normal(mu, sigma).

    Zero variance degenerates to ``max(mu - x, 0)``.
    """
    if sigma == 0.0:
        return max(mu - x, 0.0)
    u = (x - mu) / sigma
    return sigma * (_phi(u) - (1.0 - _Phi(u)) * u)


def complementary_loss(x: float, mu: float, sigma: float) -> float:
    """Expected surplus E[(x - D)^+].

    Satisfies the identity ``complementary_loss - loss == x - mu`` exactly.
    """
    if sigma == 0.0:
        return max(x - mu, 0.0)
    u = (x - mu) / sigma
    return sigma * (_phi(u) + _Phi(u) * u)
