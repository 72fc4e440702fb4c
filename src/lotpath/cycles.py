"""Expected cost of a replenishment cycle and its optimal order-up-to level.

A cycle covering periods ``i..j`` places one order at the start of period i
that raises the inventory position to a level y and receives nothing more
until period j+1. Expected cost of the cycle:

    c(i, j; y) = K + unit_term + sum over k = i..j of
                 h * complementary_loss(y, D[i..k]) + b * loss(y, D[i..k])

where D[i..k] is the cumulative demand of periods i..k: Normal, with the
summed means and variances of its periods (period t has sd cv * mean_t).
The loss functions are those of :mod:`lotpath.demand`. Each period inside
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

Pricing only the spans that can matter. Write v(i, j) = c(i, j) - K for the
optimised cost less the review cost. v is superadditive: for i <= m < j,

    c(i, j) >= c(i, m) + c(m + 1, j) - K,

and the same holds when j is the horizon (the right part is then terminal).
At the level y optimising (i, j), the periods i..m price exactly the cycle
(i, m) at y, and each later period prices E[L(y - D[i..m] - D[m+1..k])] for
the convex period loss L; Jensen's inequality over D[i..m], independent of
the later demand, bounds it below by the cycle (m + 1, j) at y - mu(i..m).
The z terms telescope.

:func:`build_connection_matrix` with ``prune=True`` prices spans by length
and stops extending a start period once no plan within a bound can use its
longer spans. It keeps a lower-bound graph: the priced spans, with
the longest priced span (i, i + n - 1) of every start period that still has
unpriced spans charged c - K. By the lemma, c - K plus the lower-bound
distance from i + n to j + 1 bounds every unpriced span (i, j) from below,
so the graph's relaxed distances LBprefix and LBsuffix bound every plan. A
start period is dropped once

    LBprefix(i) + c(i, i + n - 1) - K + LBsuffix(i + n) > U * (1 + BOUND_TOL) + e,

where e = (b T + z) Y_TOL covers the bisection error of the priced costs.
:func:`_within_bound` is this rule; the re-optimising stage admits its
spans by it too.

U is the bound of the re-optimising stage: the relaxed schedule at its exact
constrained levels. It is known once the relaxed optimum over the priced
spans is certified, i.e. every path through a reduced span costs more than
that optimum. The build prices the next lengths of the growing starts in
groups, each one fused bisection of up to ``MAX_FUSED_NUMBERS`` numbers,
and writes every span it prices. It bounds only after a group's last
length, while a start still grows: until certification only at a power of
two, each group cut back to the last one it reaches, and after it at every
group end. Bounding at fewer lengths only prunes later, so every span a plan
within the bound can use is priced, exactly as the complete matrix prices
it, and a span priced past a finer build's pruning fails the rule above.
The relaxed path, the stage's admissible spans and hence the plan are those
of the complete matrix, bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .demand import complementary_loss, loss
from .errors import InputError, NumericalError

__all__ = [
    "ConnectionMatrix",
    "Plan",
    "cycle_cost_at",
    "build_connection_matrix",
]

_log = logging.getLogger(__name__)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: absolute tolerance of the bisection that sets each matrix level
Y_TOL = 1e-6
#: relative slack of the span bounds (pruning, certification and the
#: re-optimising stage's admissible spans): covers rounding in the relaxed
#: sums, so the spans of a plan costing exactly the bound stay in
BOUND_TOL = 1e-9
#: relative tolerance of the exact constrained levels of a schedule
LEVEL_TOL = 1e-9
#: geometric expansions a bisection bracket gets before it gives up
MAX_EXPAND = 64
#: most bytes a matrix build may allocate, 40 horizon^2: its four (horizon x
#: horizon) float64 tables plus the one copy :func:`_lower_bounds` makes; 2 GiB
#: admits horizons up to 7,327. A solve peaks higher: the re-optimising
#: stage's span-bound temporaries, or its grid DP's window tables and one
#: chunk of stored costs, come on top. tracemalloc reads 61.4 horizon^2 for
#: lumpy T=400 (seed 7 r0), in the grid DP, and 49.1 for T=1000, in the span
#: bound.
MAX_MATRIX_BYTES = 2 * 2**30
#: most numbers one fused level bisection lays end to end (see
#: :func:`_price_spans`), 32 KiB per float64 working array; a length whose
#: block alone holds more is bisected by itself. Every build fills its groups
#: to it, so it also sets how often a certified pruned build bounds. With it
#: a lumpy T=100 build (seed 7 r0) peaks at 62.3 horizon^2 complete and 62.0
#: pruned under tracemalloc
MAX_FUSED_NUMBERS = 2**12


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
# which moves a few levels in the last bit. A fused bisection puts whole
# length blocks side by side and sums each one alone, so it pads nothing.
# The kernel takes one fractile target per row, so rows under different
# costs may share a block, and the costs of a fused bisection's rows take
# one pass over the numbers it gathered, summed block by block the same way.
# ---------------------------------------------------------------------------


def _loss_pair(y, mus, sds):
    """Elementwise (loss, complementary_loss) of level ``y`` against Normal
    cumulative demands ``(mus, sds)``, with numpy broadcasting.

    The closed form is evaluated only where sd > 0 (a unit divisor stands in
    elsewhere, so no 0 * inf arises); a zero sd is a point mass at its mean.
    """
    # imported on first pricing, so a process that prices no span never loads scipy.special
    from scipy.special import ndtr

    pos = sds > 0.0
    u = (y - mus) / np.where(pos, sds, 1.0)
    # beyond |u| ~ 1e154 (a level far out on a near-deterministic demand)
    # u * u overflows to inf, and exp(-inf) = 0 is the exact limit
    with np.errstate(over="ignore"):
        phi = np.exp(-0.5 * u * u) / _SQRT_2PI
    lo = sds * (phi - (1.0 - ndtr(u)) * u)
    # exact identity: complementary - loss = y - mu
    hi = lo + (y - mus)
    if not pos.all():
        lo = np.where(pos, lo, np.maximum(mus - y, 0.0))
        hi = np.where(pos, hi, np.maximum(y - mus, 0.0))
    return lo, hi


def _row_views(vals: np.ndarray, sums: np.ndarray, shapes: Sequence[Tuple[int, int]]):
    """Pairs of each block's (rows x n) view of the raveled ``vals`` and its
    rows' slice of ``sums``; ``np.add.reduce(view, 1, None, out)`` sums one
    block's rows in the order numpy sums that block alone."""
    views, first, row = [], 0, 0
    for r, n in shapes:
        views.append((vals[first : first + r * n].reshape(r, n), sums[row : row + r]))
        first, row = first + r * n, row + r
    return views


def _fractile_target(instance, lengths, terminal):
    """The newsvendor target of cycles of ``lengths`` periods under the costs
    of ``instance``: n b / (b + h), less z / (b + h) where ``terminal`` marks a
    horizon-final cycle."""
    return (lengths * instance.b - np.where(terminal, instance.z, 0.0)) / (
        instance.b + instance.h
    )


def _block_costs(ys, mus, sds, shapes, instance, terminal) -> np.ndarray:
    """Expected cost of each row's cycle at its level ``ys``, under the costs
    of ``instance``, in one pass over blocks laid out as
    :func:`_bisect_levels` reads them.

    ``terminal`` flags the rows whose cycle ends at the horizon; they carry
    the unit cost on the level instead of on the cycle mean.
    """
    rows, ns = zip(*shapes)
    lengths = np.repeat(ns, rows)
    lo, hi = _loss_pair(np.repeat(ys, lengths), mus, sds)
    vals, sums = instance.h * hi + instance.b * lo, np.empty(ys.size)
    for block, out in _row_views(vals, sums, shapes):
        np.add.reduce(block, 1, None, out)
    last = mus[np.cumsum(lengths) - 1]  # each row's cycle mean
    return instance.K + np.where(terminal, instance.z * ys, instance.z * last) + sums


def _bisect_levels(
    mus: np.ndarray,
    sds: np.ndarray,
    shapes: Sequence[Tuple[int, int]],
    target: np.ndarray,
    lo,
    hi,
    tol: float,
) -> np.ndarray:
    """Levels solving the summed-fractile condition, one per row of each block.

    ``shapes`` lists the blocks as (rows, n) pairs, and ``mus`` and ``sds``
    hold their (rows x n) arrays raveled end to end. Each row holds the
    cumulative demands of one cycle. Its level y makes their Normal CDFs sum
    to the row's ``target`` (see :func:`_fractile_target`); a CDF with zero
    sd steps at its mean. ``target``, ``lo``, ``hi`` and the levels run over
    the blocks' rows in order. This is the only solver of that condition:
    the matrix passes one row per cycle, the re-optimising stage one row per
    pooled block of cycles.

    The elementwise work runs once over all the numbers, but each block's
    CDF sums are a row sum of its contiguous (rows x n) view (see
    :func:`_row_views`), so every row's level is bit for bit that of a call
    with its block alone.

    Each row's bracket ``lo``..``hi`` doubles its width and moves its
    offending end, at most ``MAX_EXPAND`` times, until the condition changes
    sign inside it; a row that cannot be bracketed raises
    :class:`NumericalError` describing its interval and values. Bisection
    then evaluates every row at each step, but a row whose bracket is no
    wider than its tolerance keeps it, so each row follows exactly the
    midpoints a one-row solve would. A row's tolerance is ``tol``, or two
    ulps of its bracketed ends where that is wider (beyond 2**32), so a
    midpoint always lies strictly inside a bracket still being halved.
    """
    from scipy.special import ndtr  # imported on first pricing, as in _loss_pair

    rows, ns = zip(*shapes)
    lengths = np.repeat(ns, rows)
    pos = sds > 0.0
    scale = np.where(pos, sds, 1.0)
    steps = None if pos.all() else ~pos
    owner = np.repeat(np.arange(lengths.size), lengths)  # the row of each number
    vals, sums = np.empty(mus.size), np.empty(lengths.size)
    views = _row_views(vals, sums, shapes)

    def g(y):
        yy = y.take(owner)
        np.subtract(yy, mus, out=vals)
        np.divide(vals, scale, out=vals)
        ndtr(vals, out=vals)
        if steps is not None:
            np.copyto(vals, yy >= mus, where=steps)
        for block, out in views:
            np.add.reduce(block, 1, None, out)
        return sums - target

    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    g_lo, g_hi = g(lo), g(hi)
    width = hi - lo
    expansions = 0
    bad = (g_lo > 0.0) | (g_hi < 0.0)
    while bad.any():
        if expansions >= MAX_EXPAND:
            r = bad.argmax()
            raise NumericalError(
                f"could not bracket the optimum: g({lo[r]:.6g})={g_lo[r]:.6g}, "
                f"g({hi[r]:.6g})={g_hi[r]:.6g} after {expansions} expansions"
            )
        width = np.where(bad, 2.0 * width, width)
        lo = np.where(g_lo > 0.0, lo - width, lo)
        hi = np.where(g_hi < 0.0, hi + width, hi)
        g_lo, g_hi = g(lo), g(hi)
        expansions += 1
        bad = (g_lo > 0.0) | (g_hi < 0.0)
    tol = np.maximum(tol, 2.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    active = hi - lo > tol
    while np.count_nonzero(active):
        mid = 0.5 * (lo + hi)
        below = g(mid) < 0.0
        np.copyto(lo, mid, where=active & below)
        np.copyto(hi, mid, where=active & ~below)
        active = hi - lo > tol
    return 0.5 * (lo + hi)


def _price_spans(matrix: ConnectionMatrix, group):
    """Price the spans of ``group``: pairs of a cycle length n and the 0-based
    start periods to price at it, by increasing n, side by side in one level
    bisection and one cost pass. Returns (n, starts, levels, costs) per
    length; :func:`build_connection_matrix` chooses the groups and writes
    the values into the matrix.
    """
    T, instance = matrix.horizon, matrix.instance
    shapes = [(rows.size, n) for n, rows in group]
    mus = np.concatenate([matrix.mus[rows, :n].ravel() for n, rows in group])
    sds = np.concatenate([matrix.sds[rows, :n].ravel() for n, rows in group])
    starts = np.concatenate([rows for _, rows in group])
    lengths = np.repeat([n for n, _ in group], [rows.size for _, rows in group])
    terminal = starts + lengths == T
    # the cold bracket mu_min - 12 sd_max - 1 .. mu_max + 12 sd_max + 1; at
    # means of 2**53 and above the 1 rounds away, so a near-deterministic
    # span's root can lie above it, and _bisect_levels' expansion finds it
    heads = np.cumsum(lengths) - lengths  # each row's first number
    smax = np.maximum.reduceat(sds, heads)
    lo = np.minimum.reduceat(mus, heads) - 12.0 * smax - 1.0
    hi = np.maximum.reduceat(mus, heads) + 12.0 * smax + 1.0
    target = _fractile_target(instance, lengths, terminal)
    ys = _bisect_levels(mus, sds, shapes, target, lo, hi, Y_TOL)
    costs = _block_costs(ys, mus, sds, shapes, instance, terminal)
    cuts = np.cumsum([rows.size for _, rows in group])[:-1]
    return [
        (n, rows, y, c)
        for (n, rows), y, c in zip(group, np.split(ys, cuts), np.split(costs, cuts))
    ]


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def cycle_cost_at(y: float, first: int, last: int, instance, terminal: bool = False) -> float:
    """Expected cost at level ``y`` of the cycle covering periods
    ``first..last`` (1-indexed, inclusive) of ``instance``.

    Scalar reference assembled period by period from the loss functions of
    :mod:`lotpath.demand`, accumulating the window's mean and variance
    (sd = cv * mean) from period ``first``; the optimiser uses a vectorised
    equivalent.
    """
    total = instance.K
    mu = var = 0.0
    for m in instance.means[first - 1 : last]:
        mu += m
        sd = instance.cv * m
        var += sd * sd
        sigma = math.sqrt(var)
        total += instance.h * complementary_loss(y, mu, sigma) + instance.b * loss(y, mu, sigma)
    if instance.z:
        total += instance.z * (y if terminal else mu)
    return total


class ConnectionMatrix:
    """Optimised cycles of ``instance`` as (horizon x horizon) arrays;
    ``horizon`` is their size.

    ``level[i - 1, j - 1]`` and ``cost[i - 1, j - 1]`` hold the order-up-to
    level and expected cost of the cycle covering periods i..j
    (1 <= i <= j <= horizon); its expected closing inventory is that level
    less ``mus[i - 1, j - i]``. Every unpriced cell, below the diagonal or a
    span that a pruned build skipped, holds cost +inf, so no search or
    ``np.argmin`` takes it, and NaN level: a finite cost marks a priced span.
    ``len()`` counts the priced spans. Cycles ending at the horizon are
    terminal and include the unit-cost term that depends on the level.

    ``mus`` and ``sds`` are the moment table the cycles were priced from:
    ``mus[i - 1, n - 1]`` and ``sds[i - 1, n - 1]`` are the mean and standard
    deviation of the demand over periods i..i+n-1, accumulated from period i
    (NaN past the horizon). The table is complete in every build. The
    re-optimising stage prices from the same rows.

    ``prefix``, ``suffix`` and ``pred`` are the relaxed distances over the
    finished ``cost`` (see :func:`_relaxed_distances`), set once by every
    build. ``bound_plan`` is the :class:`Plan` whose cost bounded a pruned
    build: the relaxed schedule at its exact constrained levels. It is None
    when the build priced every span.
    """

    prefix: np.ndarray
    suffix: np.ndarray
    pred: np.ndarray

    def __init__(
        self,
        instance,
        level: np.ndarray,
        cost: np.ndarray,
        mus: np.ndarray,
        sds: np.ndarray,
    ):
        self.instance = instance
        self.horizon = len(level)
        self.level = level
        self.cost = cost
        self.mus = mus
        self.sds = sds
        self.bound_plan: Optional[Plan] = None

    def __len__(self):
        return int(np.isfinite(self.cost).sum())


# ---------------------------------------------------------------------------
# schedules over the matrix
#
# Periods are 0-based below: span (s, e) covers periods s + 1 .. e + 1 and
# leads from node s to node e + 1 (node T is the sink).


def _relaxed_distances(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relaxed shortest distances over the span costs ``cost``, with 0-based
    nodes: ``prefix[s]`` from node 0 to node s, ``suffix[s]`` from node s to
    the sink T, and ``pred[e]``, the node before e on the cheapest path to it.

    ``np.argmin`` keeps the first of equal distances, so the smallest
    predecessor wins, as in :func:`lotpath.graph.shortest_path`. An unpriced
    span (+inf) is never taken.
    """
    T = cost.shape[0]
    prefix = np.full(T + 1, np.inf)
    prefix[0] = 0.0
    pred = np.zeros(T + 1, dtype=int)
    for e in range(T):
        dist = prefix[: e + 1] + cost[: e + 1, e]
        pred[e + 1] = dist.argmin()
        prefix[e + 1] = dist[pred[e + 1]]
    suffix = np.full(T + 1, np.inf)
    suffix[T] = 0.0
    for s in range(T - 1, -1, -1):
        suffix[s] = (cost[s, s:] + suffix[s + 1 :]).min()
    return prefix, suffix, pred


def _relaxed_spans(pred: np.ndarray) -> List[Tuple[int, int]]:
    """The relaxed schedule as spans, read back from the sink along ``pred``."""
    spans = []
    e = len(pred) - 1
    while e > 0:
        s = int(pred[e])
        spans.append((s, e - 1))
        e = s
    return spans[::-1]


def _constrained_plan(
    matrix: ConnectionMatrix, schedule: Sequence[Tuple[int, int]]
) -> Tuple[Plan, int, int]:
    """``schedule`` at its exact cheapest levels under the hand-off
    constraints, priced from the matrix's moment rows.

    With x_k = y_k + (mean demand before cycle k), the constraint that cycle
    k + 1 absorbs the stock cycle k carries, y_{k+1} >= y_k - mu_k, reads
    x_{k+1} >= x_k. The cycle costs are convex, so pooling adjacent violators
    solves this isotonic problem exactly (Best & Chakravarti 1990): a pooled
    block shares one x, the root of its summed cost derivatives, found by
    the matrix's own fractile kernel on the block's moment rows as one
    cycle. Singleton blocks keep their matrix level. The first cycle starts
    unconstrained.

    The pooling runs in rounds. A round pools every maximal run of blocks
    whose positions strictly descend, each into one block, and bisects all
    of the round's roots in one kernel call; rounds repeat until no two
    neighbouring blocks violate. Pooling a descending run's first two
    blocks gives a root at or above the second one's position, so still
    above the third's: one merge at a time pools the whole run too, and
    pooling reaches one solution in any order. A block's
    root depends only on its members: their moment rows, and its bracket
    [lo - 1, hi + 1] and tolerance ``LEVEL_TOL`` * max(1, |lo|, |hi|) over
    their stand-alone extremes lo and hi. The kernel solves each row as a
    call with that row alone, so equal final blocks get equal levels bit for
    bit, in whatever order they were pooled. A schedule that needs no
    pooling makes no kernel call.

    The schedule's moment rows are gathered once. The pooling reads them
    shifted to positions; the pricing reads them as they are, each cycle a
    (1 x n) block at its final level, all in one cost pass, as the matrix
    prices its own. Returns the plan, the pooling rounds (kernel calls) and the merges
    (cycles less final blocks).
    """
    T = matrix.horizon
    starts, ends = np.array(schedule).reshape(-1, 2).T
    lengths = ends - starts + 1
    means = matrix.mus[starts, lengths - 1]
    offsets = np.concatenate(([0.0], np.cumsum(means)))
    # every cycle's moment rows end to end
    heads = np.concatenate(([0], np.cumsum(lengths)))  # each cycle's first number
    rows = np.repeat(starts, lengths)
    cols = np.arange(heads[-1]) - np.repeat(heads[:-1], lengths)
    flat_mus, flat_sds = matrix.mus[rows, cols], matrix.sds[rows, cols]
    xs = (matrix.level[starts, ends] + offsets[:-1]).tolist()
    # blocks as [first, last, x, lowest member x, highest member x]
    blocks = [[k, k, x, x, x] for k, x in enumerate(xs)]
    rounds = 0
    while True:
        runs, b = [], 0  # (first, last) block of each maximal descending run
        while b < len(blocks) - 1:
            c = b
            while c < len(blocks) - 1 and blocks[c][2] > blocks[c + 1][2]:
                c += 1
            if c > b:
                runs.append((b, c))
            b = c + 1
        if not runs:
            break
        if not rounds:
            positions = flat_mus + np.repeat(offsets[:-1], lengths)
        rounds += 1
        pooled = [
            (blocks[b][0], blocks[c][1],
             min(block[3] for block in blocks[b : c + 1]),
             max(block[4] for block in blocks[b : c + 1]))
            for b, c in runs
        ]
        first, last, lo, hi = (np.array(column) for column in zip(*pooled))
        cuts = list(zip(heads[first].tolist(), heads[last + 1].tolist()))
        tol = LEVEL_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        roots = _bisect_levels(
            np.concatenate([positions[i:j] for i, j in cuts]),
            np.concatenate([flat_sds[i:j] for i, j in cuts]),
            [(1, j - i) for i, j in cuts],
            _fractile_target(matrix.instance, heads[last + 1] - heads[first], ends[last] == T - 1),
            lo - 1.0, hi + 1.0, tol,
        )
        for (b, c), (f, l, low, high), x in reversed(list(zip(runs, pooled, roots.tolist()))):
            blocks[b : c + 1] = [[f, l, x, low, high]]

    levels: List[float] = []
    for first, last, x, _, _ in blocks:
        levels += [float(x - offsets[k]) for k in range(first, last + 1)]
    # the carried stock as the plan computes it; closes rounding gaps only
    means = means.tolist()
    for k in range(1, len(levels)):
        levels[k] = max(levels[k], levels[k - 1] - means[k - 1])
    ys = np.array(levels)
    shapes = [(1, n) for n in lengths.tolist()]
    costs = _block_costs(ys, flat_mus, flat_sds, shapes, matrix.instance, ends == T - 1)
    return _plan(matrix, starts, ends, ys, costs), rounds, len(schedule) - len(blocks)


@dataclass(frozen=True)
class Plan:
    """A review schedule with one order-up-to level per cycle.

    ``spans`` are its cycles as 0-based (first, last) periods; ``levels``,
    ``closings`` and ``costs`` give each cycle's level, expected closing
    inventory (the level less the cycle's mean demand) and expected cost.
    The relaxed plan (:func:`lotpath.augment.relaxed_path`) keeps the matrix
    levels; a constrained plan (:func:`_constrained_plan`) sets its
    schedule's exact constrained levels, priced like the matrix's cycles
    from its moment rows.
    """

    spans: Tuple[Tuple[int, int], ...]
    levels: Tuple[float, ...]
    closings: Tuple[float, ...]
    costs: Tuple[float, ...]

    @property
    def cost(self) -> float:
        """Total expected cost, added in period order as a path search adds it."""
        return reduce(add, self.costs, 0.0)

    @property
    def node_labels(self) -> Tuple[str, ...]:
        """The plan as a path over period nodes: each review period, then the sink."""
        return tuple(str(s + 1) for s, _ in self.spans) + (str(self.spans[-1][1] + 2),)


def _plan(matrix: ConnectionMatrix, starts, ends, levels, costs) -> Plan:
    """The cycles ``starts``..``ends`` (0-based arrays) at ``levels`` and
    ``costs``; each closing is its level less the cycle's mean demand."""
    return Plan(
        tuple(zip(starts.tolist(), ends.tolist())),
        tuple(levels.tolist()),
        tuple((levels - matrix.mus[starts, ends - starts]).tolist()),
        tuple(costs.tolist()),
    )


def _lower_bounds(
    matrix: ConnectionMatrix, lengths: np.ndarray
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Relaxed bounds over the lower-bound graph of a partly priced matrix.

    ``lengths[s]`` spans are priced from start s. In the lower-bound graph
    the longest of them costs c - K wherever s has unpriced spans (a reduced
    span). Returns ``through``, the cheapest path through each start's
    reduced span (+inf where it has none), a lower bound on every plan
    through its unpriced spans; the graph's optimum; and its predecessors
    (see :func:`_relaxed_distances`).
    """
    T = matrix.horizon
    open_rows = np.flatnonzero(np.arange(T) + lengths < T)
    last = open_rows + lengths[open_rows] - 1
    lb = matrix.cost.copy()
    lb[open_rows, last] -= matrix.instance.K
    prefix, suffix, pred = _relaxed_distances(lb)
    through = np.full(T, np.inf)
    through[open_rows] = prefix[open_rows] + lb[open_rows, last] + suffix[last + 1]
    return through, prefix[T], pred


def _within_bound(through, bound: float, instance):
    """The span-bound rule: whether relaxed cost ``through`` may belong to a
    plan costing at most ``bound``, allowing e = (b T + z) Y_TOL on top of
    ``BOUND_TOL`` (see :func:`lotpath.augment._admissible_spans`)."""
    slack = (instance.b * instance.horizon + instance.z) * Y_TOL
    return through - slack <= bound + BOUND_TOL * abs(bound)


def build_connection_matrix(instance, prune: bool = False) -> ConnectionMatrix:
    """Optimise the cycles of ``instance``.

    ``instance`` needs ``horizon``, ``means``, ``cv``, ``K``, ``z``, ``h``
    and ``b`` attributes: period t's demand is Normal with mean
    ``means[t - 1]`` and standard deviation ``cv * means[t - 1]``.
    Spans are priced one block per cycle length. One level bisection fuses
    the blocks of consecutive lengths, side by side, while they hold at most
    ``MAX_FUSED_NUMBERS`` numbers, and sums each block alone (see
    :func:`_price_spans`); their costs take one pass per bisection. By
    default all horizon * (horizon + 1) / 2 spans are priced; the split loop,
    ``export-graph`` and the worked example need them all. With
    ``prune=True`` a start period stops growing once no plan within the
    re-optimising stage's bound can use its longer spans (see the module
    docstring): the solve's relaxed path and plan are those of the complete
    matrix, and ``bound_plan`` holds the plan that set the bound. It bounds
    only at the end of a bisection that leaves a start growing, so a horizon
    whose complete matrix fits one bisection (T <= 28) is priced complete,
    in one call, with ``bound_plan`` None. The ``lotpath.cycles`` logger
    reports each build at debug level: spans priced, the numbers and
    bisections, the bound passes, and the length at which the bound was
    set. Every priced span equals the complete matrix's bit for bit. A
    horizon whose arrays exceed ``MAX_MATRIX_BYTES`` raises
    :class:`InputError` before any is allocated.
    """
    T = instance.horizon
    if 40 * T * T > MAX_MATRIX_BYTES:
        raise InputError(
            f"horizon {T}: the matrix needs {40 * T * T:,} bytes, over {MAX_MATRIX_BYTES:,}"
        )
    means = np.array(instance.means, dtype=float)
    var = np.array([(instance.cv * m) ** 2 for m in instance.means], dtype=float)

    # row i: cumulative demand from period i + 1, accumulated the way a
    # single cycle starting there accumulates it
    mus = np.full((T, T), np.nan)
    sds = np.full((T, T), np.nan)
    for i in range(T):
        mus[i, : T - i] = np.cumsum(means[i:])
        sds[i, : T - i] = np.sqrt(np.cumsum(var[i:]))

    cost = np.full((T, T), np.inf)
    matrix = ConnectionMatrix(instance, np.full((T, T), np.nan), cost, mus, sds)

    lengths = np.zeros(T, dtype=int)  # spans priced per start period
    rows = np.arange(T)  # start periods still growing
    n = 0  # spans are priced up to this length
    calls = numbers = passes = 0
    certified = None  # the length at which the bound was set
    while rows.size:
        # one fused bisection prices the next lengths of the growing starts;
        # an uncertified pruned build loses only starts that reach the
        # horizon until its next power-of-two checkpoint, so its group is
        # cut back to the last one it reaches short of the horizon
        group, size = [], 0
        for m in range(n + 1, T + 1):
            r = rows[rows <= T - m]
            if not r.size or group and size + m * r.size > MAX_FUSED_NUMBERS:
                break
            group.append((m, r))
            size += m * r.size
        if prune and matrix.bound_plan is None and group[-1][0] < T:
            marks = [k for k, (m, _) in enumerate(group) if not m & (m - 1)]
            if marks:
                del group[marks[-1] + 1 :]
        for m, starts, ys, cs in _price_spans(matrix, group):
            matrix.level[starts, starts + m - 1] = ys
            cost[starts, starts + m - 1] = cs
            lengths[starts] = m
        calls += 1
        numbers += sum(m * r.size for m, r in group)
        n = group[-1][0]
        rows = rows[rows < T - n]
        # a pruned build bounds after the group while a start still grows:
        # at every group end once certified, before that at powers of two
        if not (prune and rows.size) or matrix.bound_plan is None and n & (n - 1):
            continue
        through, optimum, pred = _lower_bounds(matrix, lengths)
        passes += 1
        if matrix.bound_plan is None:
            # certified once every path through a reduced span costs more
            # than the graph's optimum: that optimum then takes priced spans
            # only and is the relaxed optimum of the complete matrix
            if _within_bound(through.min(), optimum, instance):
                continue
            matrix.bound_plan = _constrained_plan(matrix, _relaxed_spans(pred))[0]
            certified = n
        rows = rows[_within_bound(through[rows], matrix.bound_plan.cost, instance)]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "connection matrix T=%d: %d spans priced, %d numbers in %d pricing bisections, "
            "%d bound passes, %s",
            T, len(matrix), numbers, calls, passes,
            f"certified at length {certified}" if certified else "not certified",
        )
    matrix.prefix, matrix.suffix, matrix.pred = _relaxed_distances(cost)
    return matrix
