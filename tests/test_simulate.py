"""Monte Carlo policy evaluation and the analytic trace."""

import tracemalloc

import numpy as np
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

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(horizon=True), "horizon and reviews must be integers, got True"),
            (dict(horizon=3.0), "horizon and reviews must be integers, got 3.0"),
            (dict(reviews=(1, 2.0)), "horizon and reviews must be integers, got 2.0"),
            (dict(levels=(True, 10.0)), "levels must be finite numbers, got True"),
            (dict(levels=("10", 10.0)), "levels must be finite numbers, got '10'"),
            (dict(levels=(10**400, 10.0)), "level out of range"),
            (dict(horizon=0), "horizon must be >= 1, got 0"),
            (dict(horizon=1, reviews=(), levels=()), "at least one review"),
        ],
        ids=[
            "bool-horizon", "float-horizon", "float-review", "bool-level", "str-level",
            "huge-level", "zero-horizon", "no-reviews",
        ],
    )
    def test_field_types(self, fields, message):
        base = dict(horizon=3, reviews=(1, 2), levels=(10.0, 10.0))
        with pytest.raises(InputError, match=message):
            Policy(**{**base, **fields})

    def test_levels_are_stored_as_floats(self):
        policy = Policy(horizon=3, reviews=[1, 2], levels=[10, 20])
        assert policy.reviews == (1, 2)
        assert policy.levels == (10.0, 20.0)
        assert all(type(s) is float for s in policy.levels)

    def test_reviews_and_levels_must_be_sequences(self):
        with pytest.raises(InputError, match="reviews and levels must be sequences"):
            Policy(horizon=3, reviews=1, levels=(10.0,))


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

    @pytest.mark.parametrize("chunk", [None, 4_096], ids=["one-chunk", "three-chunks"])
    def test_cost_shift_leaves_the_std_error(self, monkeypatch, chunk):
        # a review cost adds a constant to every replication, so the spread
        # must not move; a sum of squares less n * mean^2 cancels at K = 1e12
        if chunk is not None:
            monkeypatch.setattr(simulate, "CHUNK", chunk)
        policy = Policy(horizon=8, reviews=(1, 4), levels=(60.0, 70.0))

        def se(K):
            inst = InstanceSpec(
                horizon=8, means=(10.0, 0.0, 30.0, 5.0, 0.0, 60.0, 1.0, 2.0),
                cv=0.3, K=K, z=0.0, h=1.0, b=5.0,
            )
            return simulate_policy(inst, policy, n_reps=10_000, seed=3).std_error

        base = se(0.0)
        assert base > 0.5
        assert se(1e12) == pytest.approx(base, rel=1e-6)

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
        # one replication, the fewest, has no spread to estimate
        assert simulate_policy(inst, policy, n_reps=1).std_error == 0.0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_reps=True), "n_reps must be an integer, got True"),
            (dict(n_reps=2.5), "n_reps must be an integer, got 2.5"),
            (dict(seed=-1), "seed must be a non-negative integer, got -1"),
            (dict(seed=False), "seed must be a non-negative integer, got False"),
            (dict(seed=1.0), "seed must be a non-negative integer, got 1.0"),
        ],
        ids=["bool-reps", "float-reps", "negative-seed", "bool-seed", "float-seed"],
    )
    def test_rejects_mistyped_reps_and_seed(self, kwargs, message):
        inst = small_instance()
        policy = Policy(horizon=3, reviews=(1,), levels=(100.0,))
        with pytest.raises(InputError, match=message):
            simulate_policy(inst, policy, **{"n_reps": 10, **kwargs})


def stocked_instance():
    """Four periods with initial stock and a zero-mean period; the policy
    below sits under the carried stock at periods 1 and 2, so clipped and
    set-point orders part there."""
    return InstanceSpec(
        horizon=4, means=(0.0, 50.0, 0.0, 30.0), cv=0.5,
        K=10.0, z=1.0, h=1.0, b=9.0, initial_inventory=40.0,
    )


STOCKED_POLICY = Policy(horizon=4, reviews=(1, 2, 4), levels=(20.0, 5.0, 60.0))


def reference_costs(instance, policy, n_reps, seed, allow_negative_orders):
    """Per-replication costs and closing stock, one replication at a time in
    plain Python floats, from the same stream as a single chunk."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    level_at = policy.level_by_period()
    costs, closings = [], []
    for _ in range(n_reps):
        z = rng.standard_normal(instance.horizon).tolist()
        inv = instance.initial_inventory
        cost, closing = 0.0, []
        for t, (m, e) in enumerate(zip(instance.means, z), start=1):
            if t in level_at:
                s = level_at[t]
                q = s - inv if allow_negative_orders else max(0.0, s - inv)
                inv = inv + q
                cost += instance.K + instance.z * q
            inv -= m + instance.cv * m * e
            cost += instance.h * max(inv, 0.0) + instance.b * max(-inv, 0.0)
            closing.append(inv)
        costs.append(cost)
        closings.append(closing)
    return costs, closings


class TestBlocks:
    """A chunk is simulated in blocks of ``ROWS`` replications; the block
    size must change nothing but the rounding of the closing-stock sums."""

    @pytest.mark.parametrize("allow_negative_orders", [True, False], ids=["set-point", "clipped"])
    def test_block_size_changes_nothing(self, monkeypatch, allow_negative_orders):
        # twelve periods: numpy would sum a lone column pairwise from eight on;
        # 1,002 replications leave a one-replication tail block at ROWS = 7
        inst = InstanceSpec(
            horizon=12, means=tuple(float(m) for m in (80, 0, 35, 120, 60, 5, 90, 0, 40, 70, 10, 55)),
            cv=0.4, K=75.0, z=0.5, h=1.0, b=6.0, initial_inventory=30.0,
        )
        policy = Policy(
            horizon=12, reviews=(1, 3, 4, 7, 10), levels=(150.0, 60.0, 170.0, 160.0, 90.0)
        )

        def run(rows):
            monkeypatch.setattr(simulate, "ROWS", rows)
            return simulate_policy(
                inst, policy, n_reps=1_002, seed=13, allow_negative_orders=allow_negative_orders
            )

        default = run(simulate.ROWS)
        for rows in (1, 7):
            rep = run(rows)
            assert rep.mean_cost == default.mean_cost
            assert rep.std_error == default.std_error
            assert rep.components == default.components
            for a, b in zip(rep.closing_means, default.closing_means):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("allow_negative_orders", [True, False], ids=["set-point", "clipped"])
    @pytest.mark.parametrize("rows", [7, None], ids=["rows-7", "rows-default"])
    def test_matches_a_per_replication_reference(self, monkeypatch, rows, allow_negative_orders):
        if rows is not None:
            monkeypatch.setattr(simulate, "ROWS", rows)
        inst, n = stocked_instance(), 50
        costs, closings = reference_costs(inst, STOCKED_POLICY, n, 21, allow_negative_orders)
        rep = simulate_policy(
            inst, STOCKED_POLICY, n_reps=n, seed=21, allow_negative_orders=allow_negative_orders
        )
        assert rep.mean_cost == pytest.approx(sum(costs) / n, rel=1e-12)
        for t, mean in enumerate(rep.closing_means):
            assert mean == pytest.approx(sum(c[t] for c in closings) / n, rel=1e-12, abs=1e-12)

    def test_clipping_is_exercised(self):
        inst = stocked_instance()
        modes = [
            simulate_policy(inst, STOCKED_POLICY, n_reps=200, seed=21, allow_negative_orders=neg)
            for neg in (True, False)
        ]
        # period 1 has no demand: set-point orders drop the stock of 40 to
        # the level 20, clipped orders keep it
        assert [m.closing_means[0] for m in modes] == [20.0, 40.0]
        assert abs(modes[1].mean_cost - modes[0].mean_cost) > 10.0

    def test_memory_is_bounded_by_the_block(self):
        # the whole (65,536 x 200) demand matrix alone would take 105 MB
        T = 200
        inst = InstanceSpec(
            horizon=T, means=tuple(50.0 + (t % 7) * 10.0 for t in range(T)),
            cv=0.3, K=100.0, z=0.0, h=1.0, b=9.0,
        )
        policy = Policy(horizon=T, reviews=tuple(range(1, T + 1, 4)), levels=(200.0,) * 50)
        tracemalloc.start()
        try:
            simulate_policy(inst, policy, n_reps=65_536, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


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
