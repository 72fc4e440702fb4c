"""Loss functions and demand aggregation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from lotpath import (
    PeriodDemand,
    complementary_loss,
    cumulative,
    loss,
)


def normal_period(mean, cv):
    return PeriodDemand(mean=mean, std_dev=cv * mean)


class TestClosedForm:
    def test_loss_matches_quadrature(self):
        # the closed form and the numeric integral must agree on Normals
        mean, sd = 80.0, 24.0
        d = PeriodDemand(mean=mean, std_dev=sd)
        pdf = stats.norm(mean, sd).pdf
        lo, hi = mean - 12 * sd, mean + 12 * sd

        def quad(f, a, b):
            value, abserr = integrate.quad(f, a, b, epsabs=1e-8, epsrel=1e-8, limit=200)
            assert abserr < 1e-6
            return value

        for x in (0.0, 40.0, mean, 110.0, 200.0):
            shortage = quad(lambda t: (t - x) * pdf(t), max(x, lo), hi)
            surplus = quad(lambda t: (x - t) * pdf(t), lo, min(x, hi))
            assert loss(x, d) == pytest.approx(shortage, abs=1e-6)
            assert complementary_loss(x, d) == pytest.approx(surplus, abs=1e-6)

    def test_degenerate_std_dev(self):
        # zero variance collapses to plain positive parts
        d = PeriodDemand(mean=100.0, std_dev=0.0)
        assert loss(30.0, d) == 70.0
        assert loss(130.0, d) == 0.0
        assert complementary_loss(130.0, d) == 30.0
        assert complementary_loss(30.0, d) == 0.0

    @given(
        x=st.floats(-50, 450),
        mean=st.floats(1, 300),
        cv=st.floats(0.01, 0.3),
    )
    @settings(max_examples=200, deadline=None)
    def test_complementarity_identity(self, x, mean, cv):
        d = PeriodDemand(mean=mean, std_dev=cv * mean)
        gap = complementary_loss(x, d) - loss(x, d)
        assert gap == pytest.approx(x - mean, abs=1e-8)

    @given(
        mean=st.floats(1, 300),
        cv=st.floats(0.01, 0.3),
        lo=st.floats(-100, 400),
        delta=st.floats(0.1, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_loss_monotone(self, mean, cv, lo, delta):
        d = PeriodDemand(mean=mean, std_dev=cv * mean)
        hi = lo + delta
        assert loss(hi, d) <= loss(lo, d) + 1e-12
        assert complementary_loss(lo, d) <= complementary_loss(hi, d) + 1e-12

    def test_loss_nonnegative_and_bounded(self):
        d = PeriodDemand(mean=100.0, std_dev=30.0)
        for x in (-10.0, 0.0, 55.5, 300.0):
            val = loss(x, d)
            assert val >= 0.0
            # E[(D-x)+] >= E[D] - x
            assert val >= 100.0 - x - 1e-9


class TestPeriodDemand:
    def test_rejects_negative_std_dev(self):
        with pytest.raises(ValueError, match="std_dev"):
            PeriodDemand(mean=10.0, std_dev=-1.0)


class TestCumulative:
    def test_window_aggregation(self):
        demands = [normal_period(m, 0.3) for m in (100, 125, 25, 40, 30)]
        agg = cumulative(demands, 3, 4)
        assert agg.mean == pytest.approx(65.0)
        assert agg.std_dev == pytest.approx(math.sqrt(7.5**2 + 12.0**2))
        assert (agg.first_period, agg.last_period) == (3, 4)

    def test_single_period_identity(self):
        demands = [normal_period(100, 0.3)]
        agg = cumulative(demands, 1, 1)
        assert agg.mean == 100.0
        assert agg.std_dev == pytest.approx(30.0)

    def test_rejects_bad_window(self):
        demands = [normal_period(10, 0.1)] * 3
        with pytest.raises(ValueError):
            cumulative(demands, 2, 1)
        with pytest.raises(ValueError):
            cumulative(demands, 0, 2)
        with pytest.raises(ValueError):
            cumulative(demands, 1, 4)

    @given(
        means=st.lists(st.floats(1, 200), min_size=2, max_size=8),
        cv=st.floats(0.05, 0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_variance_additivity(self, means, cv):
        demands = [normal_period(m, cv) for m in means]
        agg = cumulative(demands, 1, len(means))
        assert agg.mean == pytest.approx(sum(means), rel=1e-12)
        assert agg.std_dev**2 == pytest.approx(
            sum((cv * m) ** 2 for m in means), rel=1e-9
        )
