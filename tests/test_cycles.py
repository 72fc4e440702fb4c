"""Cycle cost optimisation and the connection matrix.

Reference values for the five-period example were frozen from a scalar
quadrature implementation before the vectorised one existed; levels are
quoted to 4 decimals, costs to 4 decimals.
"""

import dataclasses
import functools
import json
import logging
import math
import operator
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

import lotpath
from lotpath import (
    InputError,
    InstanceSpec,
    NumericalError,
    build_connection_matrix,
    check_feasibility,
    complementary_loss,
    cycle_cost_at,
    expected_trace,
    generate_instances,
    loss,
    relaxed_path,
    reoptimise,
    solve_instance,
)
from lotpath.bench import DESK_GRID, design_instances
from lotpath.cycles import (
    _bisect_levels,
    _constrained_plan,
    _fractile_target,
    _lower_bounds,
    _price_spans,
    _relaxed_spans,
    _within_bound,
)

from conftest import golden_spec

# (first, last) -> (order_up_to, expected_cost); the matrix holds cycle
# (i, j) at [i - 1, j - 1]
GOLDEN_ENTRIES = {
    (1, 1): (149.3456, 111.8814),
    (2, 2): (186.6820, 127.3517),
    (3, 3): (37.3364, 65.4703),
    (4, 4): (59.7382, 74.7526),
    (5, 5): (44.8037, 68.5644),
    (1, 2): (None, 343.5606),
    (2, 3): (203.3191, 215.0495),
    (2, 4): (234.3084, 346.4158),
    (3, 4): (83.1352, 139.6694),
    (3, 5): (112.4106, 228.2337),
    (4, 5): (89.2250, 132.6506),
}


class TestOptimizer:
    def test_single_period_newsvendor_fractile(self, golden_matrix):
        # closed-form check: S = mu + sigma * Phi^-1(b/(b+h))
        expected = 125.0 + 37.5 * stats.norm.ppf(19.0 / 20.0)
        assert golden_matrix.level[1, 1] == pytest.approx(expected, abs=1e-4)

    def test_fixed_cost_shift_leaves_optimum(self, golden_matrix):
        shifted = build_connection_matrix(golden_spec(K=550.0))
        assert shifted.level[2, 3] == pytest.approx(golden_matrix.level[2, 3], abs=1e-6)
        assert shifted.cost[2, 3] - golden_matrix.cost[2, 3] == pytest.approx(500.0, abs=1e-9)

    def test_cost_components_sum(self, golden, golden_matrix):
        # one on-hand and one shortage term per covered period, each against
        # the demand accumulated since the order
        y = golden_matrix.level[1, 3]
        total = golden.K
        for k in (2, 3, 4):
            mu = sum(golden.means[1:k])
            sigma = math.hypot(*(golden.cv * m for m in golden.means[1:k]))
            total += golden.h * complementary_loss(y, mu, sigma)
            total += golden.b * loss(y, mu, sigma)
        assert golden_matrix.cost[1, 3] == pytest.approx(total, rel=1e-9)

    def test_local_optimality(self, golden, golden_matrix):
        y, cost = golden_matrix.level[0, 2], golden_matrix.cost[0, 2]
        at = lambda y: cycle_cost_at(y, 1, 3, golden)
        assert at(y) == pytest.approx(cost, rel=1e-9)
        for delta in (0.5, 5.0, 50.0):
            assert at(y + delta) >= cost - 1e-9
            assert at(y - delta) >= cost - 1e-9

    def test_expected_closing_is_level_minus_mean(self, golden_matrix):
        # the closing stock of span (2, 3) is its level less mus[1, 1]
        closing = golden_matrix.level[1, 2] - golden_matrix.mus[1, 1]
        assert closing == pytest.approx(golden_matrix.level[1, 2] - 150.0, rel=1e-9)

    def test_terminal_flag_adds_unit_cost_on_level(self):
        # interior cycles price z on the cycle mean, terminal ones on the level;
        # at a fixed y the gap is exactly z * (y - mean)
        inst = golden_spec(z=2.0)
        y = 120.0
        interior = cycle_cost_at(y, 4, 5, inst, terminal=False)
        terminal = cycle_cost_at(y, 4, 5, inst, terminal=True)
        assert terminal - interior == pytest.approx(2.0 * (y - 70.0), rel=1e-9)

    def test_bracket_failure_raises(self):
        # a terminal target of (b - z) / (b + h) = -2 lies below every CDF sum
        costs = types.SimpleNamespace(b=1.0, h=1.0, z=5.0)
        mus, sds = np.array([10.0]), np.array([3.0])
        target = _fractile_target(costs, np.array([1]), np.array([True]))
        with pytest.raises(NumericalError, match="bracket the optimum.* after 64 expansions"):
            _bisect_levels(mus, sds, [(1, 1)], target, [0.0], [1.0], 1e-6)

    def test_converged_rows_keep_their_bracket(self):
        # a narrow bracket converges in 20 halvings, a 1e6-wide one in 40; the
        # last two rows' brackets lie above and below their roots, so they
        # expand downward (7 times) and upward (9 times) first. Each batched
        # root must be the root of a one-row solve, exactly
        instance = golden_spec(z=2.0)  # K=50, h=1, b=19
        mus = np.array([[100.0, 200.0], [1e3, 2.5e3], [40.0, 90.0], [500.0, 520.0]])
        sds = np.array([[30.0, 42.0], [300.0, 500.0], [12.0, 20.0], [150.0, 151.0]])
        target = _fractile_target(instance, np.full(4, 2), np.array([False, True, False, True]))
        lo = np.array([253.5, -5e5, 300.0, 0.0])
        hi = np.array([254.5, 5e5, 301.0, 1.0])
        batched = _bisect_levels(mus.ravel(), sds.ravel(), [(4, 2)], target, lo, hi, 1e-6)
        assert batched[2] < lo[2] and batched[3] > hi[3]
        for r in range(4):
            row = slice(r, r + 1)
            single = _bisect_levels(
                mus[r], sds[r], [(1, 2)], target[row], lo[row], hi[row], 1e-6
            )
            assert batched[r] == single[0], r

    def test_converged_level_rows_keep_their_bracket(self):
        # the fractile kernel with a narrow, a 1e6-wide and a step (zero-sd) row
        instance = golden_spec(z=2.0)  # K=50, h=1, b=19
        mus = np.array([[100.0, 200.0, 300.0], [1e3, 2e3, 3e3], [10.0, 20.0, 30.0]])
        sds = np.array([[30.0, 42.0, 52.0], [100.0, 141.0, 173.0], [0.0, 0.0, 0.0]])
        target = _fractile_target(instance, np.full(3, 3), np.array([False, True, False]))
        lo = np.array([250.0, -5e5, 0.0])
        hi = np.array([450.0, 5e5, 64.0])
        batched = _bisect_levels(mus.ravel(), sds.ravel(), [(3, 3)], target, lo, hi, 1e-6)
        assert batched[2] == pytest.approx(30.0, abs=1e-6)  # the step of its last CDF
        for r in range(3):
            row = slice(r, r + 1)
            single = _bisect_levels(
                mus[r], sds[r], [(1, 3)], target[row], lo[row], hi[row], 1e-6
            )
            assert batched[r] == single[0], r

    def test_fused_blocks_match_one_call_per_block(self):
        # one call over blocks of lengths 1, 3, 8, 9 and 17 laid end to end
        # gives every row the level of a call with its block alone, exactly.
        # 8 and 9 sit either side of numpy's 8-wide pairwise-sum unroll. The
        # length-9 block has a step (zero-sd) row, the length-17 block a
        # terminal row, and a length-8 row's bracket lies above its root.
        # A zero tolerance bisects to two ulps, where the rounding of each
        # CDF sum decides the last midpoints, so a sum in another order shows
        instance = golden_spec(z=2.0)  # K=50, h=1, b=19
        rng = np.random.default_rng(11)
        blocks = []
        for n in (1, 3, 8, 9, 17):
            means = rng.uniform(0.0, 100.0, size=(3, n))
            mus = np.cumsum(means, axis=1)
            sds = np.sqrt(np.cumsum((0.3 * means) ** 2, axis=1))
            if n == 9:
                sds[0] = 0.0
            target = _fractile_target(instance, np.full(3, n), np.array([False, False, n == 17]))
            smax = sds.max(axis=1)
            lo = mus.min(axis=1) - 12.0 * smax - 1.0
            hi = mus.max(axis=1) + 12.0 * smax + 1.0
            if n == 8:
                lo[1], hi[1] = hi[1] + 1e3, hi[1] + 1e3 + 1.0
            blocks.append((mus, sds, target, lo, hi))
        mus, sds, target, lo, hi = (
            np.concatenate([block[k].ravel() for block in blocks]) for k in range(5)
        )
        shapes = [(3, n) for n in (1, 3, 8, 9, 17)]
        fused = _bisect_levels(mus, sds, shapes, target, lo, hi, 0.0)
        assert fused[7] < lo[7]  # the length-8 row expanded its bracket downward
        assert fused[9] == pytest.approx(blocks[3][0][0, -1], abs=1e-6)  # its last step
        alone = [
            _bisect_levels(mus.ravel(), sds.ravel(), [mus.shape], target, lo, hi, 0.0)
            for mus, sds, target, lo, hi in blocks
        ]
        assert fused.tolist() == np.concatenate(alone).tolist()


class TestConnectionMatrix:
    def test_entry_count_is_triangular(self, golden_matrix):
        assert len(golden_matrix) == 15  # T(T+1)/2 for T=5

    def test_frozen_values(self, golden_matrix):
        for (i, j), (level, cost) in GOLDEN_ENTRIES.items():
            assert golden_matrix.cost[i - 1, j - 1] == pytest.approx(cost, abs=1e-3), (i, j)
            if level is not None:
                assert golden_matrix.level[i - 1, j - 1] == pytest.approx(level, abs=1e-3), (i, j)

    def test_terminal_marking(self):
        # cycles ending at the horizon carry the unit cost on their level,
        # the others on their mean demand: z (y - mean) apart at a fixed y
        inst = golden_spec(z=2.0)
        matrix = build_connection_matrix(inst)
        for i, j in zip(*np.triu_indices(5)):
            y = matrix.level[i, j]
            interior, terminal = (
                cycle_cost_at(y, i + 1, j + 1, inst, terminal=flag)
                for flag in (False, True)
            )
            want = terminal if j == 4 else interior
            assert matrix.cost[i, j] == pytest.approx(want, rel=1e-12), (i, j)
            closing = y - matrix.mus[i, j - i]
            assert terminal - interior == pytest.approx(2.0 * closing, rel=1e-9)

    def test_levels_satisfy_first_order_condition(self, golden, golden_matrix):
        # stationarity: the cdf values of the cumulative demands, summed over
        # the covered periods, must equal n * b/(b+h) at the optimum
        for s, e in zip(*np.triu_indices(5)):
            total = 0.0
            mean = var = 0.0
            for m in golden.means[s : e + 1]:
                mean += m
                var += (0.3 * m) ** 2
                total += stats.norm.cdf(golden_matrix.level[s, e], mean, math.sqrt(var))
            n = e - s + 1
            assert total == pytest.approx(n * 19.0 / 20.0, abs=1e-4), (s + 1, e + 1)


# ---------------------------------------------------------------------------
# batched kernel vs a per-cycle scalar bisection as the reference


def scalar_level(mus, sds, instance, terminal, y_tol=1e-6):
    """Per-cycle bisection on the newsvendor condition, one CDF sum per step."""
    target = (len(mus) * instance.b - (instance.z if terminal else 0.0)) / (instance.b + instance.h)

    def g(y):
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (y - mus) / sds
        vals = np.where(sds > 0.0, ndtr(u), (y >= mus).astype(float))
        return float(vals.sum()) - target

    smax = float(sds.max())
    lo = float(mus.min()) - 12.0 * smax - 1.0
    hi = float(mus.max()) + 12.0 * smax + 1.0
    assert g(lo) <= 0.0 <= g(hi)
    while hi - lo > y_tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


ZERO_MEAN = dict(horizon=4, means=(0, 0, 50, 0), cv=0.3, K=50, z=0, h=1, b=19)


@pytest.mark.parametrize(
    "instance",
    [
        golden_spec(),
        generate_instances("lumpy", 30, 0.3, 225.0, 10.0, count=1, seed=3)[0],
        golden_spec(z=2.0),
        InstanceSpec(**ZERO_MEAN),
    ],
    ids=["golden", "lumpy-30", "unit-cost", "zero-mean"],
)
def test_batched_matrix_matches_scalar_bisection(instance):
    matrix = build_connection_matrix(instance)
    means = np.array(instance.means)
    var = np.array([(instance.cv * m) ** 2 for m in instance.means])
    T = instance.horizon
    for s, e in zip(*np.triu_indices(T)):
        i, j = s + 1, e + 1
        mus = np.cumsum(means[s:j])
        sds = np.sqrt(np.cumsum(var[s:j]))
        level = scalar_level(mus, sds, instance, terminal=j == T)
        assert matrix.level[s, e] == level, (i, j)
        cost = cycle_cost_at(level, i, j, instance, terminal=j == T)
        assert matrix.cost[s, e] == pytest.approx(cost, rel=1e-12, abs=0.0), (i, j)


def exact_level(mus, sds, target, lo, hi, total=np.sum):
    """One row's root at tolerance 0, with the kernel's midpoint rule: halve
    until the bracket is two ulps wide. ``total`` adds the row's CDFs."""
    g = lambda y: total(ndtr((y - mus) / sds)) - target
    assert g(lo) <= 0.0 <= g(hi)
    tol = 2.0 * np.spacing(max(abs(lo), abs(hi)))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_kernel_sums_each_row_as_numpy_sums_it_alone():
    # at tolerance 0 the last bit of each CDF sum decides the last midpoints,
    # so a kernel that sums a row in any other order than numpy's sum of the
    # row alone moves some of these levels. Each block of lengths 8..17 mixes
    # rows of two instances with different b and z, and its last row is
    # terminal: one target per row lets rows of any costs share a block
    costs = [golden_spec(z=2.0), golden_spec(b=5.0, z=0.5)]  # h = 1
    rng = np.random.default_rng(54)
    blocks = []
    for n in range(8, 18):
        means = rng.uniform(0.0, 100.0, size=(4, n))
        mus = np.cumsum(means, axis=1)
        sds = np.sqrt(np.cumsum((0.3 * means) ** 2, axis=1))
        target = np.array([_fractile_target(costs[r % 2], n, r == 3) for r in range(4)])
        blocks.append((mus, sds, target, mus[:, 0] - 200.0, mus[:, -1] + 200.0))
    mus, sds, target, lo, hi = (
        np.concatenate([block[k].ravel() for block in blocks]) for k in range(5)
    )
    levels = _bisect_levels(mus, sds, [(4, n) for n in range(8, 18)], target, lo, hi, 0.0)
    rows = [row for block in blocks for row in zip(*block)]
    assert len(rows) == 40
    assert levels.tolist() == [exact_level(*row) for row in rows]
    # the rows tell the orders apart: a sequential sum moves some of them
    sequential = lambda v: functools.reduce(operator.add, v.tolist())
    assert levels.tolist() != [exact_level(*row, total=sequential) for row in rows]


def test_zero_mean_periods_emit_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_instance(InstanceSpec(**ZERO_MEAN))
    assert math.isfinite(sol.expected_cost)


# run in a fresh interpreter with a time limit: a bisection whose bracket
# stops shrinking hangs instead of failing
SOLVE_EACH = """
import json, sys
from lotpath import load_instance, solve_instance
out = []
for data in json.loads(sys.argv[1]):
    sol = solve_instance(load_instance(data))
    out.append([sol.policy.reviews, sol.policy.levels, sol.expected_cost, sol.relaxed_violations])
print(json.dumps(out))
"""


def test_large_means_solve_like_small_ones():
    # above 2**32 one ulp of a level exceeds Y_TOL. Scaling the means and K
    # by c scales every level and cost by c, so each solve is the 1e6 one.
    flat = InstanceSpec(
        horizon=4, means=(1.0, 2.0, 0.5, 1.0), cv=0.2, K=100.0, z=0.0, h=1.0, b=10.0
    )
    lumpy = generate_instances("lumpy", 30, 0.3, 225.0, 10.0, count=4, seed=7)[3]
    scales = [1e6, 1e10, 1e14]
    specs = [
        dataclasses.replace(inst, means=tuple(c * m for m in inst.means), K=c * inst.K)
        for inst in (flat, lumpy)
        for c in scales
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(lotpath.__file__).resolve().parent.parent))
    out = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-c", SOLVE_EACH,
            json.dumps([spec.to_dict() for spec in specs]),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    solved = json.loads(out.stdout)
    assert solved[len(scales)][3] > 0  # the lumpy plan comes from the re-optimising stage
    for k in range(0, len(solved), len(scales)):
        reviews, levels, cost, violations = solved[k]
        for c, got in zip(scales[1:], solved[k + 1 : k + len(scales)]):
            r = c / scales[0]
            assert got[0] == reviews and got[3] == violations
            # a pooled level is bisected to LEVEL_TOL of its block's stock
            # position, which exceeds the level by the demand before it
            assert got[1] == pytest.approx([r * y for y in levels], rel=1e-7)
            assert got[2] == pytest.approx(r * cost, rel=1e-12)


def test_huge_means_find_roots_above_the_cold_bracket():
    # at means of 2**53 and above the cold bracket's "+ 1.0" rounds away, so
    # with a negligible sd its top is the span's total mean, where the last
    # CDF is 1/2. Spans 1..4 and 1..5 fall short of their target there and
    # have their roots above the bracket; only its expansion finds them.
    inst = InstanceSpec(
        horizon=6,
        means=(
            3114550910611854.5, 4270355986475995.5, 641189594100671.8,
            2770322115517595.0, 2067020202731092.5, 962366292596298.5,
        ),
        cv=1.438564097804857e-157, K=5368665918430136.0, z=5.0, h=1.0, b=10.0,
    )
    matrix = build_connection_matrix(inst)
    for n in (4, 5):
        top = matrix.mus[0, n - 1] + 12.0 * matrix.sds[0, n - 1] + 1.0
        assert top == matrix.mus[0, n - 1]
        assert matrix.level[0, n - 1] >= top
    sol = solve_instance(inst)
    assert sol.policy.reviews == (1, 4)
    assert check_feasibility(sol.path) == []
    assert expected_trace(inst, sol.policy).total_cost == pytest.approx(
        sol.expected_cost, rel=1e-9
    )


def test_only_cycles_and_oracle_import_scipy_special():
    # the solver's Normal loss and CDF kernels live in cycles.py; the oracle
    # keeps its own on purpose. Any other scipy.special user is a new copy.
    imports = re.compile(
        r"^\s*(from\s+scipy\.special\s+import|import\s+scipy\.special"
        r"|from\s+scipy\s+import\s.*\bspecial\b)",
        re.M,
    )
    src = Path(lotpath.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if imports.search(p.read_text()))
    assert users == ["cycles.py", "oracle.py"]


# ---------------------------------------------------------------------------
# the pruned build: the lemma it rests on, and the same answers as the
# complete matrix


@pytest.mark.parametrize(
    "instance",
    [
        golden_spec(),
        generate_instances("lumpy", 30, 0.3, 225.0, 10.0, count=1, seed=3)[0],
        golden_spec(z=2.0),
        InstanceSpec(**ZERO_MEAN),
    ],
    ids=["golden", "lumpy-30", "unit-cost", "zero-mean"],
)
def test_span_costs_are_superadditive(instance):
    # c(i, j) >= c(i, m) + c(m + 1, j) - K for every split i <= m < j, the
    # right part terminal where j is the horizon; the slack is the bisection
    # error the pruned build allows for, (b n + z) Y_TOL
    cost = build_connection_matrix(instance).cost
    T = instance.horizon
    for i in range(T):
        for j in range(i + 1, T):
            parts = cost[i, i:j] + cost[i + 1 : j + 1, j] - instance.K
            slack = (instance.b * (j - i + 1) + instance.z) * lotpath.cycles.Y_TOL
            assert (cost[i, j] >= parts - slack).all(), (i, j)


PRUNE_CASES = [
    golden_spec(),
    golden_spec(z=2.0, name="golden-z2"),
    golden_spec(K=0.0, name="golden-K0"),
    golden_spec(cv=1.0, name="golden-cv1"),
    InstanceSpec(**ZERO_MEAN, name="zero-mean"),
    InstanceSpec(
        horizon=8, means=(200.0, 0.0, 0.0, 10.0, 150.0, 0.0, 5.0, 0.0), cv=0.3,
        K=50.0, z=1.0, h=1.0, b=19.0, name="zero-mean-z1",
    ),
    *generate_instances("lumpy", 30, 0.3, 225.0, 10.0, count=4, seed=7),
    *generate_instances("erratic", 40, 0.2, 900.0, 5.0, count=2, seed=5),
    # certifies at length 16, then bounds again after its group of lengths 17..55
    generate_instances("lumpy", 100, 0.3, 225.0, 10.0, count=1, seed=7)[0],
]


@pytest.mark.parametrize("instance", PRUNE_CASES, ids=lambda inst: inst.name)
def test_pruned_matrix_gives_the_complete_matrix_answer(instance):
    sol = solve_instance(instance)
    dense = build_connection_matrix(instance)
    pruned = build_connection_matrix(instance, prune=True)
    priced = np.isfinite(pruned.cost)
    assert sol.spans_priced == len(pruned) == priced.sum() <= len(dense)
    for name in ("level", "cost"):
        assert np.array_equal(getattr(pruned, name)[priced], getattr(dense, name)[priced])
    # so the closing stocks, level less mean, are equal too
    assert np.array_equal(pruned.mus, dense.mus, equal_nan=True)
    # a cell is unpriced, below the diagonal included, exactly where it costs +inf
    for matrix in (pruned, dense):
        assert np.array_equal(np.isnan(matrix.level), np.isposinf(matrix.cost))

    relaxed = relaxed_path(dense)
    assert sol.relaxed_path == relaxed
    # the re-optimising stage takes a pruned build's bound plan as the
    # relaxed schedule's constrained plan
    bound = pruned.bound_plan
    assert bound is None or bound.spans == sol.relaxed_path.spans
    plan = reoptimise(dense) if sol.relaxed_violations else relaxed
    assert sol.path == plan


def checkpoint_build(instance):
    """A pruned build that bounds as often as the rule allows: each round
    prices the lengths up to the next certification checkpoint, then bounds
    and prunes, and after certification it bounds after every length.
    Returns its priced mask, levels, costs and bound plan."""
    T = instance.horizon
    matrix = build_connection_matrix(instance)  # for the moment table
    matrix.level[:], matrix.cost[:] = np.nan, np.inf
    lengths = np.zeros(T, dtype=int)
    rows = np.arange(T)
    n = 0
    while True:
        last = min(2 * n or 1, T) if matrix.bound_plan is None else n + 1
        blocks = [(m, rows[rows <= T - m]) for m in range(n + 1, last + 1)]
        blocks = [(m, r) for m, r in blocks if r.size]
        if not blocks:
            break
        for m, starts, ys, cs in _price_spans(matrix, blocks):
            matrix.level[starts, starts + m - 1] = ys
            matrix.cost[starts, starts + m - 1] = cs
            lengths[starts] = m
        n, rows = blocks[-1]
        if n < last or n == T:
            break
        through, optimum, pred = _lower_bounds(matrix, lengths)
        if matrix.bound_plan is None:
            if _within_bound(through.min(), optimum, instance):
                continue
            matrix.bound_plan = _constrained_plan(matrix, _relaxed_spans(pred))
        rows = rows[_within_bound(through[rows], matrix.bound_plan.cost, instance)]
    return np.isfinite(matrix.cost), matrix.level, matrix.cost, matrix.bound_plan


# the checkpoint build certifies lumpy T=10 r0 at b = 5 and 10 at length 4
# and keeps 35 of its 55 spans, and prunes every row of lumpy T=8 K=0 r0
# after length 3; the build prices each complete in one group
AHEAD_CASES = [
    *(generate_instances("lumpy", 10, 0.3, 225.0, b, count=1, seed=7)[0] for b in (5.0, 10.0)),
    generate_instances("lumpy", 8, 0.3, 0.0, 2.0, count=1, seed=7)[0],
]


@pytest.mark.parametrize("instance", PRUNE_CASES + AHEAD_CASES, ids=lambda inst: inst.name)
def test_pricing_ahead_replays_the_checkpoint_build(instance):
    # bounding at fewer lengths only prunes later: the build prices every
    # span the checkpoint build prices, at the same level and cost
    priced, level, cost, bound = checkpoint_build(instance)
    matrix = build_connection_matrix(instance, prune=True)
    assert (np.isfinite(matrix.cost) >= priced).all()
    assert np.array_equal(matrix.level[priced], level[priced])
    assert np.array_equal(matrix.cost[priced], cost[priced])
    assert matrix.bound_plan is None or bound is None or matrix.bound_plan == bound


def test_pruned_build_bounds_only_short_of_the_horizon(monkeypatch):
    passes = []
    lower_bounds = lotpath.cycles._lower_bounds

    def counted(matrix, lengths):
        passes.append(matrix.horizon)
        return lower_bounds(matrix, lengths)

    monkeypatch.setattr(lotpath.cycles, "_lower_bounds", counted)
    # a group that reaches the horizon needs no bound, so a horizon whose
    # complete matrix fits one bisection is priced complete, even where the
    # horizon is a checkpoint (T = 8)
    for instance in [golden_spec(), *AHEAD_CASES, *design_instances(**DESK_GRID)]:
        T = instance.horizon
        matrix = build_connection_matrix(instance, prune=True)
        assert len(matrix) == T * (T + 1) // 2 and matrix.bound_plan is None
    assert passes == []
    # lumpy T=100 r0 bounds after its groups ending at lengths 8, 16 (where
    # it certifies) and 55
    build_connection_matrix(PRUNE_CASES[-1], prune=True)
    assert passes == [100] * 3


def count_pricing_calls(monkeypatch, instances, prune):
    """Calls of the fractile kernel per build that price matrix spans: the
    matrix bisects to the absolute ``Y_TOL``, a pooled plan to a tolerance
    per row."""
    calls = []
    kernel = lotpath.cycles._bisect_levels

    def counted(mus, sds, shapes, target, lo, hi, tol):
        calls[-1] += np.ndim(tol) == 0
        return kernel(mus, sds, shapes, target, lo, hi, tol)

    monkeypatch.setattr(lotpath.cycles, "_bisect_levels", counted)
    for instance in instances:
        calls.append(0)
        build_connection_matrix(instance, prune=prune)
    return calls


def test_pruned_build_prices_in_few_bisections(monkeypatch):
    # a horizon whose complete matrix fits one fused bisection, T(T+1)(T+2)/6
    # numbers: 220 at T = 10 and 1,540 at T = 20, prices in one call
    desk = design_instances(**DESK_GRID)
    assert {inst.horizon for inst in desk} == {10, 20}
    assert count_pricing_calls(monkeypatch, desk, prune=True) == [1] * len(desk)
    # lumpy T=100 r0 prices lengths 1..8, 9..12, 13..15 and 16 (its group
    # with 17 cut back to the checkpoint), certifies at 16, then prices the
    # three starts left at lengths 17..55: 5 calls, where pricing checkpoint
    # by checkpoint took 9
    inst = PRUNE_CASES[-1]
    assert count_pricing_calls(monkeypatch, [inst], prune=True) == [5]
    # the complete build keeps its cap-filled groups
    assert count_pricing_calls(monkeypatch, [inst], prune=False) == [64]


def test_build_logs_its_pricing(caplog):
    with caplog.at_level(logging.DEBUG, logger="lotpath.cycles"):
        build_connection_matrix(PRUNE_CASES[-1], prune=True)
        build_connection_matrix(AHEAD_CASES[0])
    pruned, complete = caplog.records
    assert (pruned.name, pruned.levelno) == ("lotpath.cycles", logging.DEBUG)
    assert pruned.getMessage() == (
        "connection matrix T=100: 1594 spans priced, 16290 numbers in 5 pricing bisections, "
        "3 bound passes, certified at length 16"
    )
    assert complete.getMessage() == (
        "connection matrix T=10: 55 spans priced, 220 numbers in 1 pricing bisections, "
        "0 bound passes, not certified"
    )


def test_long_horizon_prices_a_tenth_of_the_spans():
    # lumpy T=400, seed 7: the complete matrix prices all 80,200 spans
    # (about 13 s on a 2-vCPU VM) for the plan recorded here
    inst = generate_instances("lumpy", 400, 0.3, 225.0, 10.0, count=1, seed=7)[0]
    sol = solve_instance(inst)
    assert sol.expected_cost == pytest.approx(55577.90329937521, rel=1e-9, abs=0.0)
    assert sol.to_dict()["spans_priced"] <= 0.10 * 80_200


def test_a_held_solution_keeps_no_matrix():
    # the solve's (T, T) matrix tables, 32 T^2 bytes, are freed once it
    # returns: what a held Solution keeps is O(T)
    inst = generate_instances("lumpy", 400, 0.3, 225.0, 10.0, count=1, seed=7)[0]
    tracemalloc.start()
    try:
        sol = solve_instance(inst)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 0.10 * 40 * inst.horizon**2
    assert sol.to_dict()["spans_priced"] > 0


def test_reoptimise_peaks_near_its_tables():
    # the solve peaks in the re-optimising stage: the matrix's four (T, T)
    # tables, then the span bound's working arrays or the grid dynamic
    # program's tables over each start's window plus one chunk of stored
    # costs, at most as many numbers as the windows hold
    inst = generate_instances("lumpy", 400, 0.3, 225.0, 10.0, count=1, seed=7)[0]
    tracemalloc.start()
    try:
        sol = solve_instance(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.relaxed_violations > 0
    assert peak <= 76 * inst.horizon**2


def test_pruned_build_peaks_near_its_tables():
    # the four (T, T) float64 tables and the lower-bound graph's copy of
    # cost take 40 T^2 bytes; a fifth stored table would add 8 T^2
    inst = generate_instances("lumpy", 400, 0.3, 225.0, 10.0, count=1, seed=7)[0]
    tracemalloc.start()
    try:
        build_connection_matrix(inst, prune=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 44 * inst.horizon**2


def test_complete_build_peaks_near_its_tables():
    # the complete build fuses the most lengths per bisection: 48 T^2 bytes,
    # above the 47.4 T^2 it peaked at pricing one length per bisection, plus
    # eight float64 working arrays of the fused cap
    inst = generate_instances("lumpy", 100, 0.3, 225.0, 10.0, count=1, seed=7)[0]
    tracemalloc.start()
    try:
        build_connection_matrix(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * inst.horizon**2 + 64 * lotpath.cycles.MAX_FUSED_NUMBERS


def test_horizon_beyond_the_matrix_budget_is_refused(monkeypatch):
    # the four (T, T) float64 tables and the lower-bound copy take 40 T^2
    # bytes; with the budget set to exactly T = 49's, T = 50 is refused
    # before anything is allocated
    monkeypatch.setattr(lotpath.cycles, "MAX_MATRIX_BYTES", 40 * 49 * 49)

    def flat(T):
        return InstanceSpec(horizon=T, means=(10.0,) * T, cv=0.2, K=50.0, z=0.0, h=1.0, b=5.0)

    with pytest.raises(InputError, match="horizon 50: .* 100,000 bytes"):
        solve_instance(flat(50))
    assert math.isfinite(solve_instance(flat(49)).expected_cost)
