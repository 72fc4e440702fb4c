"""Monte Carlo policy evaluation and the analytic trace."""

import pytest

from lotpath import simulate
from lotpath import (
    InputError,
    InstanceSpec,
    Policy,
    expected_trace,
    simulate_policy,
)


def small_instance(**overrides):
    base = dict(
        horizon=3, means=(60.0, 80.0, 40.0), cv=0.25,
        K=100.0, z=0.0, h=1.0, b=9.0,
    )
    base.update(overrides)
    return InstanceSpec(**base)


class TestPolicyValidation:
    def test_first_review_must_be_period_one(self):
        with pytest.raises(InputError, match="period 1"):
            Policy(horizon=3, reviews=(2, 3), levels=(10.0, 10.0))

    def test_reviews_strictly_increasing(self):
        with pytest.raises(InputError, match="increasing"):
            Policy(horizon=3, reviews=(1, 1), levels=(10.0, 10.0))

    def test_review_within_horizon(self):
        with pytest.raises(InputError, match="beyond horizon"):
            Policy(horizon=3, reviews=(1, 4), levels=(10.0, 10.0))

    def test_level_count_matches(self):
        with pytest.raises(InputError, match="levels"):
            Policy(horizon=3, reviews=(1, 2), levels=(10.0,))

    def test_first_level_cannot_be_blank(self):
        # no level may be blank: every review orders up to a number
        for levels in ((None, 10.0), (190.0, None)):
            with pytest.raises(InputError, match="finite numbers, got None"):
                Policy(horizon=3, reviews=(1, 2), levels=levels)

    def test_levels_must_be_finite(self):
        with pytest.raises(InputError, match="finite"):
            Policy(horizon=2, reviews=(1, 2), levels=(10.0, float("inf")))


class TestSimulatePolicy:
    def test_bit_identical_for_same_seed(self):
        inst = small_instance()
        policy = Policy(horizon=3, reviews=(1, 2, 3), levels=(70.0, 90.0, 50.0))
        a = simulate_policy(inst, policy, n_reps=20_000, seed=42)
        b = simulate_policy(inst, policy, n_reps=20_000, seed=42)
        assert a.mean_cost == b.mean_cost
        assert a.std_error == b.std_error
        assert a.closing_means == b.closing_means

    def test_seed_changes_the_estimate(self):
        inst = small_instance()
        policy = Policy(horizon=3, reviews=(1,), levels=(200.0,))
        a = simulate_policy(inst, policy, n_reps=5_000, seed=1)
        b = simulate_policy(inst, policy, n_reps=5_000, seed=2)
        assert a.mean_cost != b.mean_cost

    def test_chunking_does_not_change_the_stream(self, monkeypatch):
        # the substream layout depends only on the chunk index
        inst = small_instance()
        policy = Policy(horizon=3, reviews=(1,), levels=(200.0,))

        def run(chunk):
            monkeypatch.setattr(simulate, "CHUNK", chunk)
            return simulate_policy(inst, policy, n_reps=4_096, seed=5)

        whole, split, wide = run(4_096), run(1_024), run(8_192)
        assert whole.mean_cost != split.mean_cost  # different layouts
        assert whole.mean_cost == wide.mean_cost  # single chunk either way

    def test_near_deterministic_demand(self):
        # vanishing variance: ordering up to the period means leaves nothing
        # on hand and nothing short, so only the fixed costs remain
        inst = small_instance(cv=1e-12)
        policy = Policy(horizon=3, reviews=(1, 2, 3), levels=(60.0, 80.0, 40.0))
        rep = simulate_policy(inst, policy, n_reps=2_000, seed=0)
        assert rep.mean_cost == pytest.approx(300.0, abs=1e-6)
        assert rep.components["setup"] == pytest.approx(300.0, abs=1e-9)
        assert rep.components["holding"] == pytest.approx(0.0, abs=1e-6)
        assert rep.components["penalty"] == pytest.approx(0.0, abs=1e-6)

    def test_components_sum_to_mean(self):
        inst = small_instance(z=1.5)
        policy = Policy(horizon=3, reviews=(1, 3), levels=(150.0, 45.0))
        rep = simulate_policy(inst, policy, n_reps=10_000, seed=3)
        assert sum(rep.components.values()) == pytest.approx(rep.mean_cost, rel=1e-9)
        assert len(rep.closing_means) == 3
        lo, hi = rep.ci95
        assert lo < rep.mean_cost < hi

    def test_clipping_changes_infeasible_policies_only(self):
        inst = small_instance()
        # levels spaced further apart than any realisable demand dip, so the
        # order quantity can never go negative and both modes agree exactly
        feasible = Policy(horizon=3, reviews=(1, 2, 3), levels=(70.0, 200.0, 400.0))
        assert simulate_policy(
            inst, feasible, n_reps=4_000, seed=9, allow_negative_orders=True
        ).mean_cost == pytest.approx(
            simulate_policy(inst, feasible, n_reps=4_000, seed=9).mean_cost,
            rel=1e-9,
        )
        # a level far below the carried stock forces negative orders
        infeasible = Policy(horizon=3, reviews=(1, 2, 3), levels=(250.0, 5.0, 55.0))
        setpoint = simulate_policy(
            inst, infeasible, n_reps=4_000, seed=9, allow_negative_orders=True
        )
        clipped = simulate_policy(inst, infeasible, n_reps=4_000, seed=9)
        assert abs(setpoint.mean_cost - clipped.mean_cost) > 1.0

    def test_rejects_horizon_mismatch(self):
        inst = small_instance()
        policy = Policy(horizon=4, reviews=(1,), levels=(100.0,))
        with pytest.raises(InputError, match="horizon"):
            simulate_policy(inst, policy, n_reps=10)

    def test_rejects_zero_reps(self):
        inst = small_instance()
        policy = Policy(horizon=3, reviews=(1,), levels=(100.0,))
        with pytest.raises(InputError, match="n_reps"):
            simulate_policy(inst, policy, n_reps=0)


class TestExpectedTrace:
    def test_matches_solver_cost(self, golden, golden_solution):
        trace = expected_trace(golden, golden_solution.policy)
        assert trace.total_cost == pytest.approx(
            golden_solution.expected_cost, abs=1e-6
        )
        assert len(trace.rows) == 5

    def test_matches_monte_carlo(self, golden, golden_solution):
        trace = expected_trace(golden, golden_solution.policy)
        rep = simulate_policy(
            golden, golden_solution.policy, n_reps=60_000, seed=0,
            allow_negative_orders=True,
        )
        assert abs(trace.total_cost - rep.mean_cost) <= 3.0 * rep.std_error
        for row, sim_mean in zip(trace.rows, rep.closing_means):
            # closing levels agree period by period as well
            assert abs(row.expected_closing - sim_mean) <= 1.0

    def test_review_flags_and_blank_levels(self, golden, golden_solution):
        trace = expected_trace(golden, golden_solution.policy)
        reviews = {r.period for r in trace.rows if r.review}
        assert reviews == set(golden_solution.policy.reviews)
        import math
        for row in trace.rows:
            if not row.review:
                assert math.isnan(row.order_up_to)

    def test_csv_shape(self, golden, golden_solution):
        text = expected_trace(golden, golden_solution.policy).to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("period,review,order_up_to,")
        assert len(lines) == 6

    def test_rejects_horizon_mismatch(self, golden):
        policy = Policy(horizon=4, reviews=(1,), levels=(100.0,))
        with pytest.raises(InputError, match="horizon"):
            expected_trace(golden, policy)
