"""Schedule enumeration benchmark."""

import functools
import math
import warnings

import pytest
from scipy.integrate import quad

from conftest import golden_spec
from lotpath import (
    InputError,
    InstanceSpec,
    build_connection_matrix,
    generate_instances,
    schedule_enumeration_oracle,
    solve_instance,
)
from lotpath.cycles import _constrained_plan
from lotpath.oracle import _normal_losses


class TestUnconstrained:
    def test_matches_relaxed_optimum(self, golden, golden_solution):
        res = schedule_enumeration_oracle(golden, constrained=False)
        assert res.n_schedules == 16  # 2^(T-1), first review pinned
        assert res.best_cost == pytest.approx(
            golden_solution.relaxed_cost, abs=1e-9
        )
        assert res.best_schedule == (1, 2, 3, 4)
        assert not res.constrained

    def test_enumerates_every_schedule(self, golden):
        res = schedule_enumeration_oracle(golden, constrained=False)
        assert len(res.schedule_costs) == 16
        assert all(s[0] == 1 for s in res.schedule_costs)
        assert min(res.schedule_costs.values()) == pytest.approx(res.best_cost)


class TestConstrained:
    def test_matches_augmented_solution(self, golden, golden_solution):
        res = schedule_enumeration_oracle(golden)
        assert res.constrained
        assert res.best_schedule == (1, 2, 3, 5)
        assert res.best_cost == pytest.approx(447.4670, abs=1e-3)
        for level, want in zip(res.best_levels, golden_solution.policy.levels):
            assert level == pytest.approx(want, abs=1e-3)

    def test_never_below_unconstrained(self, golden):
        unc = schedule_enumeration_oracle(golden, constrained=False)
        con = schedule_enumeration_oracle(golden)
        assert con.best_cost >= unc.best_cost - 1e-9

    def test_levels_never_force_negative_orders(self, golden):
        res = schedule_enumeration_oracle(golden)
        schedule = res.best_schedule + (golden.horizon + 1,)
        for idx in range(1, len(res.best_levels)):
            seg_mean = sum(
                golden.means[schedule[idx - 1] - 1 : schedule[idx] - 1]
            )
            closing = res.best_levels[idx - 1] - seg_mean
            assert res.best_levels[idx] >= closing - 1e-6


class TestEdges:
    def test_horizon_cap(self):
        inst = InstanceSpec(
            horizon=9, means=(10.0,) * 9, cv=0.2, K=5.0, z=0.0, h=1.0, b=3.0
        )
        with pytest.raises(InputError, match="horizon 9"):
            schedule_enumeration_oracle(inst)

    def test_single_period_is_a_newsvendor(self):
        inst = InstanceSpec(
            horizon=1, means=(50.0,), cv=0.2, K=10.0, z=0.0, h=1.0, b=5.0
        )
        res = schedule_enumeration_oracle(inst, constrained=False)
        assert res.n_schedules == 1
        assert res.best_schedule == (1,)
        sol = solve_instance(inst)
        assert res.best_cost == pytest.approx(sol.expected_cost, abs=1e-6)

    def test_eight_periods_within_cap(self):
        inst = InstanceSpec(
            horizon=8, means=(20.0, 35.0, 10.0, 25.0, 40.0, 15.0, 30.0, 20.0),
            cv=0.25, K=30.0, z=0.0, h=1.0, b=9.0,
        )
        res = schedule_enumeration_oracle(inst, constrained=False)
        assert res.n_schedules == 128
        sol = solve_instance(inst)
        assert res.best_cost == pytest.approx(sol.relaxed_cost, abs=1e-6)

    def test_initial_inventory_offset(self):
        inst = InstanceSpec(
            horizon=2, means=(40.0, 30.0), cv=0.2, K=20.0, z=3.0, h=1.0, b=8.0,
            initial_inventory=5.0,
        )
        base = InstanceSpec(
            horizon=2, means=(40.0, 30.0), cv=0.2, K=20.0, z=3.0, h=1.0, b=8.0,
        )
        with_stock = schedule_enumeration_oracle(inst, constrained=False)
        without = schedule_enumeration_oracle(base, constrained=False)
        assert without.best_cost - with_stock.best_cost == pytest.approx(
            15.0, abs=1e-9
        )


    @pytest.mark.parametrize("constrained", [False, True], ids=["unconstrained", "constrained"])
    def test_near_deterministic_demand_leaks_no_warning(self, constrained):
        # the standardised level u reaches ~1e159 here, so u * u overflows
        inst = InstanceSpec(
            horizon=3, means=(0.0, 0.0, 1.0), cv=5.49e-160, K=0.0, z=0.0, h=1.0, b=2.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = schedule_enumeration_oracle(inst, constrained=constrained)
        assert math.isfinite(res.best_cost)

def test_constrained_levels_are_exact_on_repaired_schedules(repaired_oracle_runs):
    # criterion 10's 16 repaired instances: for the schedule the solve picked,
    # the oracle's own level solve must reach the solve's cost. A level solve
    # that stalls on a binding hand-off reports more (1258.160 against
    # 1258.1125 on lumpy-T8-rho0.3-b10-K225-r7, schedule (1, 2, 3, 8)).
    for inst, sol, con in repaired_oracle_runs:
        cost = con.schedule_costs[sol.policy.reviews]
        slack = 1e-9 * abs(sol.expected_cost)
        assert cost <= sol.expected_cost + slack, (inst.name, cost, sol.expected_cost)
    assert len(repaired_oracle_runs) == 16


@pytest.mark.parametrize("u", [5.0, 6.0, 8.0])
def test_shortage_keeps_its_digits_in_the_upper_tail(u):
    # 1 - ndtr(u) loses the tail: 2.1e-6 relative off at u = 6, 0 at u = 8
    mu = sigma = 125.0
    tail, _ = quad(
        lambda t: (t - u) * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        u, math.inf, epsabs=0.0, epsrel=1e-13,
    )
    short, _ = _normal_losses(mu + u * sigma, mu, sigma)
    assert float(short) == pytest.approx(sigma * tail, rel=1e-11, abs=0.0)


LEVEL_SOLVE_CASES = {
    "golden": golden_spec,
    "golden-z2": lambda: golden_spec(z=2.0),
    "lumpy-T8-r7": lambda: generate_instances(
        "lumpy", 8, rho=0.3, K=225.0, b=10.0, count=8, seed=7
    )[7],
    "erratic-T7-r0": lambda: generate_instances(
        "erratic", 7, rho=0.2, K=100.0, b=5.0, count=1, seed=3
    )[0],
    "zero-means": lambda: InstanceSpec(
        horizon=6, means=(0.0, 0.0, 50.0, 0.0, 80.0, 3.0), cv=0.3, K=20.0, z=1.0, h=1.0, b=9.0
    ),
}


@functools.lru_cache(maxsize=None)
def schedule_cost_pairs(case):
    """(schedule, oracle cost, solve's exact constrained plan cost) for every
    schedule of the case."""
    inst = LEVEL_SOLVE_CASES[case]()
    matrix = build_connection_matrix(inst)
    con = schedule_enumeration_oracle(inst)
    offset = inst.z * inst.initial_inventory
    pairs = []
    for schedule, cost in con.schedule_costs.items():
        ends = schedule[1:] + (inst.horizon + 1,)
        spans = [(a - 1, e - 2) for a, e in zip(schedule, ends)]
        pairs.append((schedule, cost, _constrained_plan(matrix, spans).cost - offset))
    return pairs


def test_level_solve_cases_cover_256_schedules():
    assert sum(len(schedule_cost_pairs(case)) for case in LEVEL_SOLVE_CASES) == 256


@pytest.mark.parametrize("case", LEVEL_SOLVE_CASES)
def test_oracle_levels_never_above_the_solve(case):
    # the oracle's level solve reaches the exact constrained optimum of every
    # schedule, not only of the one the solve picks
    over = [
        (schedule, oracle, solve)
        for schedule, oracle, solve in schedule_cost_pairs(case)
        if oracle > solve + 1e-9 * abs(solve)
    ]
    assert not over


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, marks=pytest.mark.xfail(
            strict=True,
            reason="cycles bisection leaves the zero-mean first level at -4.77e-7 "
            "(CHANGES.md line 7): schedule (1, 3, 5, 6) costs 2.5e-8 relative more "
            "in the solve",
        )) if case == "zero-means" else case
        for case in LEVEL_SOLVE_CASES
    ],
)
def test_solve_levels_never_above_the_oracle(case):
    over = [
        (schedule, oracle, solve)
        for schedule, oracle, solve in schedule_cost_pairs(case)
        if solve > oracle + 1e-9 * abs(oracle)
    ]
    assert not over
