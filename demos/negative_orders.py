"""What an expected negative order does to a simulated policy.

The relaxed shortest path on the five-period example schedules an order in
period 3 up to 37.3, while period 2's order is expected to leave 61.7 behind.
An order quantity cannot be negative, so a real warehouse can only skip or
truncate that order, and the realised cost drifts away from the analytic
plan cost. The script quantifies the drift for the relaxed plan and shows
that the repaired plan does not suffer from it.

Run with:
  $ python3 demos/negative_orders.py
"""

from lotpath import (
    InstanceSpec,
    expected_trace,
    policy_from_path,
    simulate_policy,
    solve_instance,
)

INSTANCE = InstanceSpec(
    horizon=5,
    means=(100.0, 125.0, 25.0, 40.0, 30.0),
    cv=0.3,
    K=50.0,
    z=0.0,
    h=1.0,
    b=19.0,
)

REPS = 200_000


def report(label, policy):
    trace = expected_trace(INSTANCE, policy)
    clipped = simulate_policy(INSTANCE, policy, n_reps=REPS, seed=0)
    setpoint = simulate_policy(
        INSTANCE, policy, n_reps=REPS, seed=0, allow_negative_orders=True
    )
    print(f"{label}")
    print(f"    analytic plan cost          : {trace.total_cost:9.2f}")
    print(f"    simulated, set-point orders : {setpoint.mean_cost:9.2f}  (+/- {1.96*setpoint.std_error:.2f})")
    print(f"    simulated, orders clipped   : {clipped.mean_cost:9.2f}  (+/- {1.96*clipped.std_error:.2f})")
    drift = clipped.mean_cost - trace.total_cost
    print(f"    clipping drift              : {drift:+9.2f}\n")
    return drift


def main():
    sol = solve_instance(INSTANCE)
    relaxed_policy = policy_from_path(sol.relaxed_path)

    print(
        "relaxed plan reviews/levels:",
        [(r, round(s, 2)) for r, s in zip(relaxed_policy.reviews, relaxed_policy.levels)],
    )
    print(
        "repaired plan reviews/levels:",
        [(r, round(s, 2)) for r, s in zip(sol.policy.reviews, sol.policy.levels)],
    )
    print()

    relaxed_drift = report("relaxed plan (expects a negative order in period 3)", relaxed_policy)
    repaired_drift = report("repaired plan (feasible in expectation)", sol.policy)

    print(
        f"clipping costs the relaxed plan {relaxed_drift:+.2f} against its own "
        f"analytic value, the repaired plan {repaired_drift:+.2f}."
    )
    print(
        "the repaired plan still clips on individual demand paths (any static\n"
        "order-up-to policy does when demand is this variable), but it no longer\n"
        "*relies* on a negative order: the systematic part of the drift is gone,\n"
        "and the set-point simulation reproduces the reported plan cost."
    )


if __name__ == "__main__":
    main()
