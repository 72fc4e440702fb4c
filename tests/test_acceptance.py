"""End-to-end acceptance checks.

Each test measures one external guarantee of the package and registers a
verdict line that the terminal summary prints, so a run shows the whole
scorecard at a glance. Tolerances are part of the contract and are asserted
exactly as stated; nothing here is loosened to make a run pass.
"""

import time

import numpy as np
import pytest
from scipy import stats

from conftest import golden_spec
from lotpath import (
    InstanceSpec,
    build_connection_matrix,
    build_graph,
    check_feasibility,
    generate_instances,
    policy_from_path,
    repetitive_augment,
    schedule_enumeration_oracle,
    simulate_policy,
    solve_instance,
)
from lotpath.graph import NodeId


# ---------------------------------------------------------------------------
# 1. five-period worked example: exact relaxed and repaired paths (the
# repaired path is the paper's split loop's; the solve keeps its plan)


def test_worked_example_paths(criterion):
    t0 = time.perf_counter()
    sol = solve_instance(golden_spec())
    loop, _ = repetitive_augment(build_graph(build_connection_matrix(golden_spec())))
    elapsed = time.perf_counter() - t0
    relaxed_ok = sol.relaxed_path.node_labels == ("1", "2", "3", "4", "6")
    repaired_ok = (
        loop.node_labels == ("1", "2", "3'", "5", "6")
        and sol.policy.reviews == (1, 2, 3, 5)
        and abs(sol.expected_cost - 447.4670) <= 1e-3
    )
    ok = relaxed_ok and repaired_ok and elapsed < 1.0
    criterion(
        1, "worked example paths", ok,
        f"relaxed {'->'.join(sol.relaxed_path.node_labels)}, "
        f"repaired {'->'.join(loop.node_labels)}, reviews {sol.policy.reviews}, "
        f"cost {sol.expected_cost:.4f}, {elapsed:.3f}s",
    )
    assert relaxed_ok
    assert repaired_ok
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. reference numerics of the worked example


def test_worked_example_numerics(criterion, golden_matrix):
    g = build_graph(golden_matrix)
    repetitive_augment(g)
    merged = g.get_arc(NodeId(3, 1), NodeId(4))
    level, closing = golden_matrix.level, golden_matrix.closing  # [first - 1, last - 1]

    checks = [
        ("single-period level S2", level[1, 1], 187.0, 0.5),
        ("single-period level S3", level[2, 2], 37.0, 0.5),
        ("two-period level (3,5)", level[2, 3], 83.0, 0.5),
        ("merged-cycle level", merged.order_up_to, 203.3237, 0.01),
        ("merged-cycle cost", merged.cost, 264.9488, 0.5),
        ("merged-cycle closing", merged.closing, 53.3144, 0.01),
        ("closing stock I1", closing[0, 0], 49.0, 0.5),
        ("closing stock I2", closing[1, 1], 62.0, 0.5),
    ]
    failures = [
        f"{name} {got:.4f} vs {want}±{tol}"
        for name, got, want, tol in checks
        if abs(got - want) > tol
    ]
    criterion(
        2, "worked example numerics", not failures,
        "all 8 reference values in tolerance" if not failures else "; ".join(failures),
    )
    for name, got, want, tol in checks:
        assert got == pytest.approx(want, abs=tol), name


# ---------------------------------------------------------------------------
# 3. Monte Carlo reproduction of the worked-example costs


def test_monte_carlo_reproduction(criterion, golden, golden_solution):
    relaxed_policy = policy_from_path(golden_solution.relaxed_path)
    t0 = time.perf_counter()
    rep_aug = simulate_policy(
        golden, golden_solution.policy, n_reps=500_000, seed=0,
        allow_negative_orders=True,
    )
    rep_rel = simulate_policy(
        golden, relaxed_policy, n_reps=500_000, seed=0,
        allow_negative_orders=True,
    )
    elapsed = time.perf_counter() - t0
    aug_err = abs(rep_aug.mean_cost - 447.5) / 447.5
    rel_err = abs(rep_rel.mean_cost - 437.5) / 437.5
    ok = aug_err <= 0.01 and rel_err <= 0.01 and elapsed < 30.0
    criterion(
        3, "Monte Carlo reproduction (500k reps, set-point orders)", ok,
        f"repaired {rep_aug.mean_cost:.2f} (target 447.5, off {100*aug_err:.3f}%), "
        f"relaxed {rep_rel.mean_cost:.2f} (target 437.5, off {100*rel_err:.3f}%), "
        f"{elapsed:.1f}s",
    )
    assert aug_err <= 0.01
    assert rel_err <= 0.01
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. fractile property of single-period cycles


def one_period_level(mean, cv, K, h, b):
    """The optimal level of a one-period instance's only cycle."""
    inst = InstanceSpec(horizon=1, means=(mean,), cv=cv, K=K, z=0.0, h=h, b=b)
    return build_connection_matrix(inst).level[0, 0]


def test_single_period_fractile_suite(criterion):
    rng = np.random.default_rng(2026)
    worst_fractile = 0.0
    worst_shift = 0.0
    for i in range(1000):
        mean = rng.uniform(1.0, 300.0)
        cv = rng.uniform(0.05, 0.3)
        h = rng.uniform(0.5, 4.0)
        b = h * rng.uniform(1.5, 25.0)
        K = rng.uniform(0.0, 500.0)
        level = one_period_level(mean, cv, K, h, b)
        target = mean + cv * mean * stats.norm.ppf(b / (b + h))
        worst_fractile = max(worst_fractile, abs(level - target))
        if i % 5 == 0:
            shifted = one_period_level(mean, cv, K + 123.456, h, b)
            worst_shift = max(worst_shift, abs(shifted - level))
    ok = worst_fractile <= 1e-4 and worst_shift <= 1e-6
    criterion(
        4, "newsvendor fractile suite (1000 cycles)", ok,
        f"max fractile error {worst_fractile:.2e} (cap 1e-4), "
        f"max fixed-cost-shift drift {worst_shift:.2e} (cap 1e-6)",
    )
    assert worst_fractile <= 1e-4
    assert worst_shift <= 1e-6


# ---------------------------------------------------------------------------
# 6. agreement with schedule enumeration on small horizons


def test_oracle_equivalence(criterion):
    patterns = ("erratic", "lumpy")
    rhos = (0.1, 0.2, 0.3)
    pens = (2.0, 5.0, 10.0)
    worst_relaxed = 0.0
    gaps = []
    for i in range(30):
        (inst,) = generate_instances(
            pattern=patterns[i % 2],
            horizon=2 + (i % 5),
            rho=rhos[i % 3],
            K=225.0,
            b=pens[i % 3],
            count=1,
            seed=2000 + i,
        )
        sol = solve_instance(inst)
        unc = schedule_enumeration_oracle(inst, constrained=False)
        worst_relaxed = max(worst_relaxed, abs(sol.relaxed_cost - unc.best_cost))
        con = schedule_enumeration_oracle(inst)
        gaps.append(sol.expected_cost - con.best_cost)
    min_gap, max_gap = min(gaps), max(gaps)
    ok = worst_relaxed <= 1e-6 and min_gap >= -1e-6
    criterion(
        6, "schedule-enumeration agreement (30 instances, T<=6)", ok,
        f"max relaxed-vs-enumeration diff {worst_relaxed:.2e} (cap 1e-6); "
        f"repaired-minus-constrained gap in [{min_gap:.2e}, {max_gap:.2e}]",
    )
    assert worst_relaxed <= 1e-6
    assert min_gap >= -1e-6


# ---------------------------------------------------------------------------
# 7 & 8. desk-scale factorial study: feasibility and cost-inflation trend
# (one sweep, two verdicts)


@pytest.fixture(scope="module")
def desk_sweep():
    out = []
    for pattern in ("erratic", "lumpy"):
        for T in (10, 20):
            for rho in (0.1, 0.2, 0.3):
                for K in (225.0, 900.0, 2500.0):
                    for b in (2.0, 5.0, 10.0):
                        for inst in generate_instances(
                            pattern=pattern, horizon=T, rho=rho, K=K, b=b,
                            count=3, seed=7,
                        ):
                            out.append((pattern, rho, K, b, solve_instance(inst)))
    return out


def test_final_policies_feasible_and_trends(criterion, desk_sweep):
    assert len(desk_sweep) == 324
    residual = sum(len(check_feasibility(sol.path)) for _, _, _, _, sol in desk_sweep)
    erratic_aug = sum(
        sol.relaxed_violations for p, _, _, _, sol in desk_sweep if p == "erratic"
    )
    big_k_aug = sum(
        sol.relaxed_violations for _, _, K, _, sol in desk_sweep if K == 2500.0
    )
    by_rho = {r: 0 for r in (0.1, 0.2, 0.3)}
    by_b = {v: 0 for v in (2.0, 5.0, 10.0)}
    for _, rho, _, b, sol in desk_sweep:
        if sol.relaxed_violations > 0:
            by_rho[rho] += 1
            by_b[b] += 1
    rho_counts = [by_rho[r] for r in (0.1, 0.2, 0.3)]
    b_counts = [by_b[v] for v in (2.0, 5.0, 10.0)]
    rho_trend = rho_counts == sorted(rho_counts)
    b_trend = b_counts == sorted(b_counts)
    ok = residual == 0 and erratic_aug == 0 and big_k_aug == 0 and rho_trend and b_trend
    criterion(
        7, "desk factorial feasibility (324 instances)", ok,
        f"residual violations {residual}, erratic relaxed violations {erratic_aug}, "
        f"K=2500 relaxed violations {big_k_aug}, counts by rho {rho_counts}, by b {b_counts}",
    )
    assert residual == 0
    assert erratic_aug == 0
    assert big_k_aug == 0
    assert rho_trend and b_trend
    # the re-optimising stage's bound plan, when a pruned build certifies
    # one, has the relaxed schedule
    for *_, sol in desk_sweep:
        bound = sol.matrix.bound_plan
        assert bound is None or bound.spans == sol.relaxed_path.spans


def test_cost_inflation_band(criterion, desk_sweep):
    pct = [
        100.0 * (sol.expected_cost - sol.relaxed_cost) / sol.relaxed_cost
        for pattern, _, _, _, sol in desk_sweep
        if pattern == "lumpy" and sol.relaxed_violations > 0
    ]
    mean_pct = sum(pct) / len(pct)
    ok = 1.5 <= mean_pct <= 5.5
    criterion(
        8, "cost inflation of repaired lumpy plans", ok,
        f"mean {mean_pct:.3f}% over {len(pct)} repaired instances, band [1.5, 5.5]",
    )
    # The band is asserted as stated. Inflation is measured against the
    # relaxed lower bound, so it reads low only when the repaired plan is the
    # cheapest feasible one; criterion 10 checks that against enumeration.
    assert 1.5 <= mean_pct <= 5.5


# ---------------------------------------------------------------------------
# 9. long-horizon smoke test


def test_long_horizon_smoke(criterion):
    (inst,) = generate_instances(
        pattern="lumpy", horizon=100, rho=0.3, K=225.0, b=10.0, count=1, seed=7
    )
    t0 = time.perf_counter()
    sol = solve_instance(inst)
    elapsed = time.perf_counter() - t0
    clean = check_feasibility(sol.path) == []
    ok = elapsed < 300.0 and clean
    t = sol.timings
    criterion(
        9, "T=100 lumpy smoke test", ok,
        f"{elapsed:.2f}s total (cap 300s): matrix {t['t_matrix']:.2f}s, "
        f"relaxed path {t['t_relaxed']:.3f}s, re-optimising {t['t_reoptimise']:.2f}s, "
        f"{sol.relaxed_violations} relaxed violations, cost {sol.expected_cost:.2f}",
    )
    assert clean
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 10. repaired plans are minimal: no feasible schedule is cheaper


def test_repair_matches_constrained_oracle(criterion, repaired_oracle_runs):
    gaps = [
        (sol.expected_cost - con.best_cost, con.best_cost, inst.name)
        for inst, sol, con in repaired_oracle_runs
    ]
    over = [(gap, name) for gap, cost, name in gaps if gap > 1e-4 * cost]
    worst = max(gap for gap, _, _ in gaps)
    ok = len(gaps) == 16 and not over
    criterion(
        10, "repaired plans minimal (16 lumpy instances, T=8)", ok,
        f"{len(gaps)} repaired instances, {len(over)} above the constrained "
        f"enumeration optimum by more than 1e-4 of it; worst gap {worst:.3g}",
    )
    assert len(gaps) == 16
    assert not over, over
