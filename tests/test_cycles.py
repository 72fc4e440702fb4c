"""Cycle cost optimisation and the connection matrix.

Reference values for the five-period example were frozen from a scalar
quadrature implementation before the vectorised one existed; levels are
quoted to 4 decimals, costs to 4 decimals.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from lotpath import (
    CostParams,
    InstanceSpec,
    NumericalError,
    PeriodDemand,
    build_connection_matrix,
    cycle_cost_at,
    generate_instances,
    optimize_order_up_to,
    solve_instance,
)
from lotpath.cycles import _bisect_roots, cycle_losses

from conftest import golden_spec

GOLDEN_PARAMS = CostParams(K=50.0, z=0.0, h=1.0, b=19.0)

# (first, last) -> (order_up_to, expected_cost)
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


class TestCostParams:
    def test_rejects_negative_fixed_cost(self):
        with pytest.raises(ValueError, match="K"):
            CostParams(K=-1.0, z=0.0, h=1.0, b=2.0)

    def test_rejects_nonpositive_holding(self):
        with pytest.raises(ValueError, match="holding"):
            CostParams(K=0.0, z=0.0, h=0.0, b=2.0)

    def test_rejects_penalty_below_holding(self):
        # b <= h would push the newsvendor fractile to 0.5 or below
        with pytest.raises(ValueError, match="penalty"):
            CostParams(K=0.0, z=0.0, h=2.0, b=2.0)

    def test_rejects_unit_cost_outside_band(self):
        with pytest.raises(ValueError, match="unit cost"):
            CostParams(K=0.0, z=-0.5, h=1.0, b=2.0)
        with pytest.raises(ValueError, match="unit cost"):
            CostParams(K=0.0, z=5.0, h=1.0, b=2.0)


class TestOptimizer:
    def test_single_period_newsvendor_fractile(self, golden):
        # closed-form check: S = mu + sigma * Phi^-1(b/(b+h))
        opt = optimize_order_up_to(2, 2, golden.demands, GOLDEN_PARAMS)
        expected = 125.0 + 37.5 * stats.norm.ppf(19.0 / 20.0)
        assert opt.order_up_to == pytest.approx(expected, abs=1e-4)

    def test_fixed_cost_shift_leaves_optimum(self, golden):
        base = optimize_order_up_to(3, 4, golden.demands, GOLDEN_PARAMS)
        shifted_params = CostParams(K=550.0, z=0.0, h=1.0, b=19.0)
        shifted = optimize_order_up_to(3, 4, golden.demands, shifted_params)
        assert shifted.order_up_to == pytest.approx(base.order_up_to, abs=1e-6)
        assert shifted.expected_cost - base.expected_cost == pytest.approx(500.0, abs=1e-9)

    def test_cost_components_sum(self, golden):
        opt = optimize_order_up_to(2, 4, golden.demands, GOLDEN_PARAMS)
        on_hand, short = cycle_losses(opt.order_up_to, 2, 4, golden.demands)
        assert len(on_hand) == len(short) == 3  # one entry per covered period
        total = GOLDEN_PARAMS.K + sum(
            GOLDEN_PARAMS.h * h + GOLDEN_PARAMS.b * s for h, s in zip(on_hand, short)
        )
        assert opt.expected_cost == pytest.approx(total, rel=1e-9)

    def test_local_optimality(self, golden):
        opt = optimize_order_up_to(1, 3, golden.demands, GOLDEN_PARAMS)
        at = lambda y: cycle_cost_at(y, 1, 3, golden.demands, GOLDEN_PARAMS)
        assert at(opt.order_up_to) == pytest.approx(opt.expected_cost, rel=1e-9)
        for delta in (0.5, 5.0, 50.0):
            assert at(opt.order_up_to + delta) >= opt.expected_cost - 1e-9
            assert at(opt.order_up_to - delta) >= opt.expected_cost - 1e-9

    def test_expected_closing_is_level_minus_mean(self, golden):
        opt = optimize_order_up_to(2, 3, golden.demands, GOLDEN_PARAMS)
        assert opt.expected_closing == pytest.approx(opt.order_up_to - 150.0, rel=1e-9)

    def test_grid_agrees_with_bisection(self, golden):
        fine = optimize_order_up_to(
            2, 3, golden.demands, GOLDEN_PARAMS, method="grid", grid_step=0.05
        )
        exact = optimize_order_up_to(2, 3, golden.demands, GOLDEN_PARAMS)
        assert fine.order_up_to == pytest.approx(exact.order_up_to, abs=0.05)
        assert fine.expected_cost == pytest.approx(exact.expected_cost, abs=0.01)

    def test_unknown_method_rejected(self, golden):
        with pytest.raises(ValueError, match="method"):
            optimize_order_up_to(1, 1, golden.demands, GOLDEN_PARAMS, method="anneal")

    def test_terminal_flag_adds_unit_cost_on_level(self, golden):
        # interior cycles price z on the cycle mean, terminal ones on the level;
        # at a fixed y the gap is exactly z * (y - mean)
        params = CostParams(K=50.0, z=2.0, h=1.0, b=19.0)
        y = 120.0
        interior = cycle_cost_at(y, 4, 5, golden.demands, params, terminal=False)
        terminal = cycle_cost_at(y, 4, 5, golden.demands, params, terminal=True)
        assert terminal - interior == pytest.approx(2.0 * (y - 70.0), rel=1e-9)

    def test_bracket_failure_raises(self):
        with pytest.raises(NumericalError, match="bracket"):
            _bisect_roots(lambda y, rows: np.ones_like(y), [0.0], [1.0], y_tol=1e-6, max_expand=8)


class TestConnectionMatrix:
    def test_entry_count_is_triangular(self, golden_matrix):
        assert len(golden_matrix) == 15  # T(T+1)/2 for T=5

    def test_frozen_values(self, golden_matrix):
        for (i, j), (level, cost) in GOLDEN_ENTRIES.items():
            entry = golden_matrix.entry(i, j)
            assert entry.expected_cost == pytest.approx(cost, abs=1e-3), (i, j)
            if level is not None:
                assert entry.order_up_to == pytest.approx(level, abs=1e-3), (i, j)

    def test_terminal_marking(self, golden_matrix):
        for (i, j), entry in golden_matrix.items():
            assert entry.terminal == (j == 5)

    def test_levels_satisfy_first_order_condition(self, golden, golden_matrix):
        # stationarity: the cdf values of the cumulative demands, summed over
        # the covered periods, must equal n * b/(b+h) at the optimum
        for (i, j), entry in golden_matrix.items():
            total = 0.0
            mean = var = 0.0
            for m in golden.means[i - 1 : j]:
                mean += m
                var += (0.3 * m) ** 2
                total += stats.norm.cdf(entry.order_up_to, mean, math.sqrt(var))
            n = j - i + 1
            assert total == pytest.approx(n * 19.0 / 20.0, abs=1e-4), (i, j)

    def test_grid_method_matrix(self, golden):
        grid = build_connection_matrix(golden, method="grid", grid_step=0.25)
        bis = build_connection_matrix(golden)
        for (i, j), entry in bis.items():
            other = grid.entry(i, j)
            assert other.expected_cost == pytest.approx(entry.expected_cost, abs=0.05)


# ---------------------------------------------------------------------------
# batched kernel vs a per-cycle scalar bisection as the reference


def scalar_level(mus, sds, params, terminal, y_tol=1e-6):
    """Per-cycle bisection on the newsvendor condition, one CDF sum per step."""
    target = (len(mus) * params.b - (params.z if terminal else 0.0)) / (params.b + params.h)

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
    means = np.array([d.mean for d in instance.demands])
    var = np.array([d.std_dev**2 for d in instance.demands])
    T = instance.horizon
    for (i, j), entry in matrix.items():
        mus = np.cumsum(means[i - 1 : j])
        sds = np.sqrt(np.cumsum(var[i - 1 : j]))
        level = scalar_level(mus, sds, instance.params, terminal=j == T)
        assert entry.order_up_to == level, (i, j)
        cost = cycle_cost_at(level, i, j, instance.demands, instance.params, terminal=j == T)
        assert entry.expected_cost == pytest.approx(cost, rel=1e-12, abs=0.0), (i, j)


def test_zero_mean_periods_emit_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_instance(InstanceSpec(**ZERO_MEAN))
    assert math.isfinite(sol.expected_cost)
