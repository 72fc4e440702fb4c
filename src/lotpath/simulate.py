"""Monte Carlo evaluation of a review/order-up-to policy.

A policy fixes in advance which periods hold a review and the level each
review raises the inventory position to. Every review is charged the fixed
cost K even when the resulting order quantity is zero.

Two order semantics are supported:

* clipped (default): Q = max(0, S - I). The realisable policy; carried
  stock above S is kept.
* set point (``allow_negative_orders=True``): Q = S - I even when negative.
  This matches the analytic cycle costs, which price each cycle from its
  level S regardless of the stock carried into the review.

A simulation streams its replications through blocks of ``ROWS``, so it
holds O(ROWS * T + CHUNK) numbers at a time, never the whole demand matrix.
The block size changes neither the random stream nor the mean cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .demand import complementary_loss, loss
from .errors import InputError
from .instances import check_seed

__all__ = [
    "Policy",
    "SimulationReport",
    "TraceRow",
    "ExpectedTrace",
    "simulate_policy",
    "expected_trace",
]

#: replications per chunk; chunk k draws from substream k of the seed
CHUNK = 65536
#: replications per block: a chunk is drawn and simulated one block at a time
ROWS = 2048


@dataclass(frozen=True)
class Policy:
    """Static review schedule with one finite order-up-to level per review."""

    horizon: int
    reviews: Tuple[int, ...]
    levels: Tuple[float, ...]

    def __post_init__(self):
        """The one validation of a policy; stores ``reviews`` as a tuple and
        ``levels`` as a tuple of floats."""
        try:
            reviews, levels = tuple(self.reviews), tuple(self.levels)
        except TypeError:
            raise InputError("policy reviews and levels must be sequences") from None
        object.__setattr__(self, "reviews", reviews)
        bad = [v for v in [self.horizon, *reviews] if isinstance(v, bool) or not isinstance(v, int)]
        if bad:
            raise InputError(f"policy horizon and reviews must be integers, got {bad[0]!r}")
        bad = [s for s in levels if isinstance(s, bool) or not isinstance(s, (int, float))]
        if bad:
            raise InputError(f"policy levels must be finite numbers, got {bad[0]!r}")
        try:
            levels = tuple(float(s) for s in levels)
        except OverflowError as e:  # an integer beyond the float range
            raise InputError(f"policy level out of range: {e}") from None
        object.__setattr__(self, "levels", levels)
        if self.horizon < 1:
            raise InputError(f"horizon must be >= 1, got {self.horizon}")
        if not self.reviews:
            raise InputError("policy needs at least one review")
        if len(self.reviews) != len(self.levels):
            raise InputError(
                f"{len(self.reviews)} reviews but {len(self.levels)} levels"
            )
        if self.reviews[0] != 1:
            raise InputError("first review must fall in period 1")
        prev = 0
        for r in self.reviews:
            if r <= prev:
                raise InputError(f"review periods must be strictly increasing: {self.reviews}")
            prev = r
        if prev > self.horizon:
            raise InputError(f"review period {prev} beyond horizon {self.horizon}")
        for s in levels:
            if not math.isfinite(s):
                raise InputError(f"policy levels must be finite numbers, got {s}")

    def level_by_period(self) -> Dict[int, float]:
        return dict(zip(self.reviews, self.levels))

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "reviews": list(self.reviews),
            "levels": list(self.levels),
        }


@dataclass(frozen=True)
class SimulationReport:
    n_reps: int
    mean_cost: float
    std_error: float
    components: Dict[str, float]
    closing_means: Tuple[float, ...]
    allow_negative_orders: bool
    seed: int
    elapsed: float

    @property
    def ci95(self) -> Tuple[float, float]:
        half = 1.96 * self.std_error
        return (self.mean_cost - half, self.mean_cost + half)

    def to_dict(self) -> dict:
        return {
            "n_reps": self.n_reps,
            "mean_cost": self.mean_cost,
            "std_error": self.std_error,
            "ci95": list(self.ci95),
            "components": dict(self.components),
            "closing_means": list(self.closing_means),
            "allow_negative_orders": self.allow_negative_orders,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed,
        }


def _check_horizon(instance, policy: Policy) -> None:
    """:class:`InputError` unless ``policy`` covers ``instance``'s horizon."""
    if policy.horizon != instance.horizon:
        raise InputError(f"policy horizon {policy.horizon} != instance horizon {instance.horizon}")


def simulate_policy(
    instance,
    policy: Policy,
    n_reps: int = 100_000,
    seed: int = 0,
    allow_negative_orders: bool = False,
) -> SimulationReport:
    """Estimate the expected total cost of ``policy`` on ``instance``.

    Period t's demand is drawn from Normal(means[t - 1], cv * means[t - 1]),
    independently across periods and replications. Work is done in chunks of
    ``CHUNK`` replications; chunk k draws from its own spawned RNG substream
    k, so a report is reproducible for a given seed and replication count.
    Each chunk is drawn and simulated in blocks of ``ROWS`` replications
    that continue the chunk's stream, so memory is O(ROWS * T + CHUNK) and
    the block size changes neither the draws nor any cost.
    """
    if isinstance(n_reps, bool) or not isinstance(n_reps, int):
        raise InputError(f"n_reps must be an integer, got {n_reps!r}")
    if n_reps < 1:
        raise InputError(f"n_reps must be >= 1, got {n_reps}")
    check_seed(seed)
    _check_horizon(instance, policy)
    T = instance.horizon
    means = np.array(instance.means, dtype=float)[:, None]
    stds = instance.cv * means
    level_at = policy.level_by_period()

    t0 = time.perf_counter()
    total = 0.0
    # squared deviations about the running mean of the chunks so far, merged
    # chunk by chunk (Chan, Golub & LeVeque): a sum of squared costs less
    # n * mean^2 cancels once the costs dwarf their spread
    run_mean = 0.0
    sq_dev = 0.0
    comp = {"setup": 0.0, "order": 0.0, "holding": 0.0, "penalty": 0.0}
    closing_sum = np.zeros(T)
    setup = 0.0
    for _ in policy.reviews:  # a running total, not K * reviews: the same rounding
        setup += instance.K
    rows = min(ROWS, n_reps)
    # One allocation for the two block buffers: the allocator keeps a single
    # large block in its heap between calls, while smaller ones are handed
    # back to the OS at each return and page-faulted in again by the next call.
    space = np.empty((2, rows * T))
    draws = space[0].reshape(rows, T)  # one block's standard normals, replication-major
    stock = space[1].reshape(T, rows)  # its closing stock, period-major
    work = space[0].reshape(T, rows)  # cost work space: the normals are dead by then

    done = 0
    index = 0
    while done < n_reps:
        c = min(CHUNK, n_reps - done)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        order = np.zeros(c)
        holding = np.empty(c)
        penalty = np.empty(c)
        for lo in range(0, c, rows):
            n = min(rows, c - lo)
            normals = rng.standard_normal(out=draws[:n])
            # means + stds * normals is what rng.normal draws, bit for bit
            block = stock[:, :n]
            np.multiply(normals.T, stds, out=block)
            block += means
            block_order = order[lo:lo + n]
            carried = np.full(n, float(instance.initial_inventory))
            for t in range(T):
                d = block[t]  # this period's demand, replaced by its closing stock
                s = level_at.get(t + 1)
                if s is not None:
                    if allow_negative_orders:
                        q = s - carried
                        carried = s
                    else:
                        q = np.maximum(0.0, s - carried)
                        carried = carried + q  # not in place: carried may be the last row
                    block_order += instance.z * q
                np.subtract(carried, d, out=d)
                carried = d
            w = work[:, :n]
            np.maximum(block, 0.0, out=w)
            w *= instance.h
            _period_sums(w, holding[lo:lo + n])
            np.negative(block, out=w)
            np.maximum(w, 0.0, out=w)
            w *= instance.b
            _period_sums(w, penalty[lo:lo + n])
            closing_sum += block.sum(axis=1)
        cost = setup + order + holding + penalty
        chunk_sum = float(cost.sum())
        total += chunk_sum
        chunk_mean = chunk_sum / c
        dev = cost - chunk_mean
        delta = chunk_mean - run_mean
        sq_dev += float((dev * dev).sum()) + delta * delta * done * c / (done + c)
        run_mean += delta * c / (done + c)
        comp["setup"] += setup * c
        comp["order"] += float(order.sum())
        comp["holding"] += float(holding.sum())
        comp["penalty"] += float(penalty.sum())
        done += c
        index += 1

    mean = total / n_reps
    if n_reps > 1:
        se = math.sqrt(sq_dev / (n_reps - 1) / n_reps)
    else:
        se = 0.0
    return SimulationReport(
        n_reps=n_reps,
        mean_cost=mean,
        std_error=se,
        components={k: v / n_reps for k, v in comp.items()},
        closing_means=tuple(closing_sum / n_reps),
        allow_negative_orders=allow_negative_orders,
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )


def _period_sums(a: np.ndarray, out: np.ndarray) -> None:
    """Each column of the period-major block ``a`` summed into ``out`` in
    period order, as a running per-replication total adds them."""
    if a.shape[1] == 1:  # numpy would sum a lone column pairwise
        out[0] = np.add.accumulate(a[:, 0])[-1]
    else:
        np.add.reduce(a, axis=0, out=out)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    period: int
    review: bool
    order_up_to: float  # nan when no review
    expected_opening: float
    expected_closing: float
    expected_holding: float
    expected_penalty: float


@dataclass(frozen=True)
class ExpectedTrace:
    rows: Tuple[TraceRow, ...]
    total_cost: float

    def to_csv(self) -> str:
        lines = ["period,review,order_up_to,expected_opening,expected_closing,"
                 "expected_holding,expected_penalty"]
        for r in self.rows:
            s = "" if math.isnan(r.order_up_to) else f"{r.order_up_to:.6f}"
            lines.append(
                f"{r.period},{int(r.review)},{s},{r.expected_opening:.6f},"
                f"{r.expected_closing:.6f},{r.expected_holding:.6f},{r.expected_penalty:.6f}"
            )
        return "\n".join(lines) + "\n"


def expected_trace(instance, policy: Policy) -> ExpectedTrace:
    """Analytic expected inventory trajectory and cost under set-point orders.

    Within a replenishment segment starting at review a with level S, the
    closing inventory of period k is S minus cumulative demand over a..k, so
    period costs come straight from the two loss functions. The window's
    mean and variance (sd = cv * mean per period) are running sums from the
    review.
    """
    _check_horizon(instance, policy)
    T = instance.horizon
    level_at = policy.level_by_period()

    rows: List[TraceRow] = []
    total = 0.0
    prev_closing = float(instance.initial_inventory)
    seg_level = 0.0
    mu = var = 0.0  # demand accumulated since the segment's review
    for t in range(1, T + 1):
        is_review = t in level_at
        if is_review:
            s = level_at[t]
            total += instance.K
            total += instance.z * (s - prev_closing)
            seg_level = s
            mu = var = 0.0
            opening = s
        else:
            s = math.nan
            opening = prev_closing
        m = instance.means[t - 1]
        mu += m
        sd = instance.cv * m
        var += sd * sd
        sigma = math.sqrt(var)
        hold = instance.h * complementary_loss(seg_level, mu, sigma)
        pen = instance.b * loss(seg_level, mu, sigma)
        total += hold + pen
        closing = seg_level - mu
        rows.append(
            TraceRow(
                period=t,
                review=is_review,
                order_up_to=s,
                expected_opening=opening,
                expected_closing=closing,
                expected_holding=hold,
                expected_penalty=pen,
            )
        )
        prev_closing = closing
    return ExpectedTrace(rows=tuple(rows), total_cost=total)
