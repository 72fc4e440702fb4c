"""Walk the five-period example through every stage of the solver.

The instance has period demand means (100, 125, 25, 40, 30) with a 30%
coefficient of variation, a fixed order cost of 50, holding cost 1 and
penalty cost 19. Its relaxed plan wants to order in period 3 up to a level
*below* the stock that period 2's order leaves behind, i.e. it relies on a
negative replenishment. The script shows the cycle-cost matrix, the relaxed
shortest path, the detected violation, the node split with which the paper's
split-and-re-solve loop repairs it, the policy ``solve_instance`` returns (its
re-optimising stage finds the loop's plan here), and a Monte Carlo check of
that policy.

Run with:
  $ python3 demos/worked_example.py
"""

from lotpath import (
    InstanceSpec,
    build_connection_matrix,
    build_graph,
    check_feasibility,
    repetitive_augment,
    shortest_path,
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
    name="five-period-example",
)


def show_matrix(matrix):
    print("cycle-cost matrix (rows: first period, columns: last period)")
    print("each cell: expected cost / order-up-to level")
    header = "      " + "".join(f"{j:>18}" for j in range(1, 6))
    print(header)
    for i in range(1, 6):
        cells = []
        for j in range(1, 6):
            if j < i:
                cells.append(" " * 18)
            else:
                cost, level = matrix.cost[i - 1, j - 1], matrix.level[i - 1, j - 1]
                cells.append(f"{cost:9.2f}/{level:8.2f}")
        print(f"  {i:>3} " + "".join(cells))
    print()


def show_path(label, path):
    print(f"{label}: {' -> '.join(path.node_labels)}  (cost {path.total_cost:.4f})")
    for c in path.cycles:
        merged = f", absorbs reviews {list(c.absorbed)}" if c.absorbed else ""
        print(
            f"    periods {c.start}..{c.end}: order up to {c.order_up_to:.2f}, "
            f"expected closing {c.closing:.2f}{merged}"
        )
    print()


def main():
    matrix = build_connection_matrix(INSTANCE)
    show_matrix(matrix)

    graph = build_graph(matrix)
    relaxed = shortest_path(graph)
    show_path("relaxed shortest path", relaxed)

    plan = relaxed.plan
    for k in check_feasibility(plan):
        closing, level = plan.closings[k - 1], plan.levels[k]
        print(
            f"violation at node {relaxed.cycles[k - 1].v}: the previous cycle closes at "
            f"{closing:.2f} but the next order-up-to level is only "
            f"{level:.2f} (expected negative order of {closing - level:.2f})"
        )
    print()

    repaired, steps = repetitive_augment(graph)
    step = steps[0]
    print(
        f"split node {step.node} into {step.new_node}: redirected the arc from "
        f"{step.redirected_from}, recomputed merged option(s) to "
        f"{step.recomputed_targets}, duplicated plain spans to "
        f"{step.duplicated_targets}"
    )
    merged_arc = graph.get_arc(step.new_node, step.new_node.__class__(4))
    print(
        f"the merged option prices periods 2..3 as one order up to "
        f"{merged_arc.order_up_to:.4f} costing {merged_arc.cost:.4f} "
        "(pays the review cost of period 3 without ordering)"
    )
    print()
    show_path("repaired shortest path", repaired)

    sol = solve_instance(INSTANCE)
    print(f"final policy (solve_instance, cost {sol.expected_cost:.4f}):")
    for review, level in zip(sol.policy.reviews, sol.policy.levels):
        print(f"    period {review}: order up to {level:.2f}")
    print()

    rep = simulate_policy(
        INSTANCE, sol.policy, n_reps=200_000, seed=0, allow_negative_orders=True
    )
    lo, hi = rep.ci95
    print(
        f"Monte Carlo (200k replications, set-point orders): "
        f"{rep.mean_cost:.2f} [{lo:.2f}, {hi:.2f}] vs plan cost {sol.expected_cost:.4f}"
    )


if __name__ == "__main__":
    main()
