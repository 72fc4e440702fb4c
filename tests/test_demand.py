"""Loss functions and demand aggregation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from lotpath import InstanceSpec, build_connection_matrix, complementary_loss, loss


def moment_table(means, cv):
    """The connection matrix's cumulative-demand table for ``means`` at ``cv``."""
    inst = InstanceSpec(
        horizon=len(means), means=tuple(means), cv=cv, K=0.0, z=0.0, h=1.0, b=2.0
    )
    matrix = build_connection_matrix(inst)
    return matrix.mus, matrix.sds


class TestClosedForm:
    def test_loss_matches_quadrature(self):
        # the closed form and the numeric integral must agree on Normals
        mean, sd = 80.0, 24.0
        pdf = stats.norm(mean, sd).pdf
        lo, hi = mean - 12 * sd, mean + 12 * sd

        def quad(f, a, b):
            value, abserr = integrate.quad(f, a, b, epsabs=1e-8, epsrel=1e-8, limit=200)
            assert abserr < 1e-6
            return value

        for x in (0.0, 40.0, mean, 110.0, 200.0):
            shortage = quad(lambda t: (t - x) * pdf(t), max(x, lo), hi)
            surplus = quad(lambda t: (x - t) * pdf(t), lo, min(x, hi))
            assert loss(x, mean, sd) == pytest.approx(shortage, abs=1e-6)
            assert complementary_loss(x, mean, sd) == pytest.approx(surplus, abs=1e-6)

    def test_degenerate_std_dev(self):
        # zero variance collapses to plain positive parts
        assert loss(30.0, 100.0, 0.0) == 70.0
        assert loss(130.0, 100.0, 0.0) == 0.0
        assert complementary_loss(130.0, 100.0, 0.0) == 30.0
        assert complementary_loss(30.0, 100.0, 0.0) == 0.0

    @given(
        x=st.floats(-50, 450),
        mean=st.floats(1, 300),
        cv=st.floats(0.01, 0.3),
    )
    @settings(max_examples=200, deadline=None)
    def test_complementarity_identity(self, x, mean, cv):
        sd = cv * mean
        gap = complementary_loss(x, mean, sd) - loss(x, mean, sd)
        assert gap == pytest.approx(x - mean, abs=1e-8)

    @given(
        mean=st.floats(1, 300),
        cv=st.floats(0.01, 0.3),
        lo=st.floats(-100, 400),
        delta=st.floats(0.1, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_loss_monotone(self, mean, cv, lo, delta):
        sd = cv * mean
        hi = lo + delta
        assert loss(hi, mean, sd) <= loss(lo, mean, sd) + 1e-12
        assert complementary_loss(lo, mean, sd) <= complementary_loss(hi, mean, sd) + 1e-12

    def test_loss_nonnegative_and_bounded(self):
        for x in (-10.0, 0.0, 55.5, 300.0):
            val = loss(x, 100.0, 30.0)
            assert val >= 0.0
            # E[(D-x)+] >= E[D] - x
            assert val >= 100.0 - x - 1e-9


class TestCumulative:
    """Row i of the moment table accumulates the demand from period i + 1."""

    def test_window_aggregation(self):
        mus, sds = moment_table((100.0, 125.0, 25.0, 40.0, 30.0), 0.3)
        # periods 3..4
        assert mus[2, 1] == pytest.approx(65.0)
        assert sds[2, 1] == pytest.approx(math.sqrt(7.5**2 + 12.0**2))

    def test_single_period_identity(self):
        mus, sds = moment_table((100.0,), 0.3)
        assert mus[0, 0] == 100.0
        assert sds[0, 0] == pytest.approx(30.0)

    @given(
        means=st.lists(st.floats(1, 200), min_size=2, max_size=8),
        cv=st.floats(0.05, 0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_variance_additivity(self, means, cv):
        mus, sds = moment_table(means, cv)
        assert mus[0, -1] == pytest.approx(sum(means), rel=1e-12)
        assert sds[0, -1] ** 2 == pytest.approx(
            sum((cv * m) ** 2 for m in means), rel=1e-9
        )
