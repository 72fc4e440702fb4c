"""Feasibility checking and the repetitive repair loop."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import golden_spec
from lotpath import (
    InstanceSpec,
    LotpathError,
    NonTerminationError,
    PathSolution,
    build_connection_matrix,
    build_graph,
    check_feasibility,
    generate_instances,
    cycle_cost_at,
    expected_trace,
    policy_from_path,
    relaxed_path,
    reoptimise,
    repetitive_augment,
    shortest_path,
    solve_instance,
)
from lotpath import augment
from lotpath.cycles import LEVEL_TOL, _relaxed_distances
from lotpath import graph
from lotpath.graph import NodeId, ReplenishmentGraph, augment_once


def plain_chain_optimum(matrix, horizon):
    """Best cost over chains of plain cycles with feasible hand-offs.

    Exhaustive O(T^3) reference over chains whose levels stay at their
    matrix values: a review plan without zero-quantity reviews is exactly
    such a chain, and dropping a zero-quantity review from any plan saves K
    without touching the levels, so this is a floor for every plan the split
    loop can express. It is no floor for the re-optimising stage, which also
    moves levels off their matrix values.
    """
    best = {}
    for end in range(1, horizon + 1):
        for start in range(1, end + 1):
            cost = matrix.cost[start - 1, end - 1]
            if start == 1:
                cand = cost
            else:
                cand = math.inf
                for m in range(1, start):
                    if matrix.closing[m - 1, start - 2] <= matrix.level[start - 1, end - 1] + 1e-9:
                        cand = min(cand, best[(m, start - 1)] + cost)
            best[(start, end)] = cand
    return min(best[(s, horizon)] for s in range(1, horizon + 1))


#: relaxed plans that expect negative orders: the golden instance, five
#: lumpy T=8 instances and lumpy T=30
LUMPY_T8 = generate_instances("lumpy", 8, 0.3, 225.0, 10.0, count=12, seed=7)
ONE_RULE_CASES = [
    golden_spec(),
    *(LUMPY_T8[k] for k in (1, 3, 5, 7, 8)),
    *generate_instances("lumpy", 30, 0.3, 225.0, 10.0, count=1, seed=7),
]


class TestCheckFeasibility:
    def test_golden_relaxed_violation(self, golden_matrix):
        assert check_feasibility(relaxed_path(golden_matrix)) == [2]
        path = shortest_path(build_graph(golden_matrix))
        plan = path.plan
        assert check_feasibility(plan) == [2]
        assert path.cycles[1].v == NodeId(3)  # the node whose review is violated
        assert plan.closings[1] == pytest.approx(61.682, abs=1e-3)
        assert plan.levels[2] == pytest.approx(37.3364, abs=1e-3)
        assert plan.spans[2] == (2, 2)

    def test_repaired_path_is_clean(self, golden_solution):
        assert check_feasibility(golden_solution.path) == []

    @pytest.mark.parametrize("instance", ONE_RULE_CASES, ids=lambda inst: inst.name)
    def test_one_rule_for_plans_and_graph_paths(self, instance):
        # the loop's check on the graph path is the plan check on its cycles
        sol = solve_instance(instance)
        final = check_feasibility(sol.path)
        assert type(final) is list and final == []
        relaxed = check_feasibility(sol.relaxed_path)
        assert len(relaxed) == sol.relaxed_violations > 0
        path = shortest_path(build_graph(build_connection_matrix(instance)))
        assert relaxed == check_feasibility(path.plan)

    def test_rising_demand_never_violates(self):
        inst = InstanceSpec(
            horizon=4, means=(10.0, 50.0, 100.0, 200.0), cv=0.3,
            K=50.0, z=0.0, h=1.0, b=19.0,
        )
        sol = solve_instance(inst)
        assert sol.relaxed_violations == 0
        assert sol.path.node_labels == sol.relaxed_path.node_labels


class TestSingleSplit:
    """One repair pass on the five-period example, inspected arc by arc."""

    @pytest.fixture()
    def repaired(self, golden_matrix):
        g = build_graph(golden_matrix)
        path, steps = repetitive_augment(g)
        return g, path, steps

    def test_trace_bookkeeping(self, repaired):
        _, _, steps = repaired
        assert len(steps) == 1
        step = steps[0]
        assert step.node == NodeId(3)
        assert step.new_node == NodeId(3, 1)
        assert step.redirected_from == NodeId(2)
        assert step.recomputed_targets == [4]
        assert step.duplicated_targets == [5, 6]
        assert step.gap == pytest.approx(24.3456, abs=1e-3)

    def test_redirect_moves_payload(self, repaired):
        g, _, _ = repaired
        assert g.get_arc(NodeId(2), NodeId(3)) is None
        moved = g.get_arc(NodeId(2), NodeId(3, 1))
        assert moved is not None
        assert moved.start == 2 and moved.end == 2
        assert moved.order_up_to == pytest.approx(186.682, abs=1e-3)
        # the original node keeps its other inbound and all outbound options
        assert g.get_arc(NodeId(1), NodeId(3)) is not None
        assert g.get_arc(NodeId(3), NodeId(4)) is not None

    def test_recomputed_arc_merges_previous_cycle(self, repaired):
        g, _, _ = repaired
        merged = g.get_arc(NodeId(3, 1), NodeId(4))
        assert merged.kind == "recomputed"
        assert (merged.start, merged.end) == (2, 3)
        assert merged.absorbed == (3,)
        assert merged.order_up_to == pytest.approx(203.3191, abs=1e-3)
        assert merged.cost == pytest.approx(265.0495, abs=1e-3)
        assert merged.closing == pytest.approx(53.3191, abs=1e-3)
        # traversal weight replaces the inbound cycle rather than adding to it
        assert g.effective_cost(merged) == pytest.approx(
            265.0495 - 127.3517, abs=1e-3
        )

    def test_duplicated_arcs_copy_matrix_rows(self, repaired, golden_matrix):
        g, _, _ = repaired
        for target, span_end in ((5, 4), (6, 5)):
            dup = g.get_arc(NodeId(3, 1), NodeId(target))
            assert dup.kind == "duplicated"
            assert dup.cost == golden_matrix.cost[2, span_end - 1]
            assert dup.order_up_to == golden_matrix.level[2, span_end - 1]
            assert dup.absorbed == ()

    def test_final_path_uses_duplicate(self, repaired):
        _, path, _ = repaired
        assert path.node_labels == ("1", "2", "3'", "5", "6")
        assert path.total_cost == pytest.approx(447.4670, abs=1e-3)

    def test_effective_cycles_collapse_merged_route(self, repaired):
        # force the path through the recomputed arc: the redirect and the
        # merge must fold into one realised cycle with an absorbed review
        g, _, _ = repaired
        arcs = [
            g.get_arc(NodeId(1), NodeId(2)),
            g.get_arc(NodeId(2), NodeId(3, 1)),
            g.get_arc(NodeId(3, 1), NodeId(4)),
            g.get_arc(NodeId(4), NodeId(6)),
        ]
        total = sum(g.effective_cost(a) for a in arcs)
        path = PathSolution(
            nodes=[NodeId(1), NodeId(2), NodeId(3, 1), NodeId(4), NodeId(6)],
            arcs=arcs,
            total_cost=total,
        )
        # the merged arc prices periods 2..3, superseding the redirect arc
        assert path.cycles == [arcs[0], arcs[2], arcs[3]]
        assert path.plan.spans == ((0, 0), (1, 2), (3, 4))
        assert path.cycles[1].absorbed == (3,)


class TestMultiSplit:
    """The loop on lumpy T=8 seed 7 r7: four splits, two of them of node 3."""

    def test_nodes_cost_and_steps(self):
        inst = generate_instances("lumpy", 8, 0.3, 225.0, 10.0, count=12, seed=7)[7]
        path, steps = repetitive_augment(build_graph(build_connection_matrix(inst)))
        assert path.node_labels == ("1", "3''", "9")
        assert path.total_cost == pytest.approx(1425.4072114004136, abs=1e-9)
        got = [
            (str(s.node), str(s.new_node), str(s.redirected_from),
             s.recomputed_targets, s.duplicated_targets)
            for s in steps
        ]
        assert got == [
            ("3", "3'", "2", [4, 5, 6, 7, 8, 9], []),
            ("4", "4'", "2", [5, 6, 7, 8, 9], []),
            ("3", "3''", "1", [4, 5, 6, 7, 8], [9]),
            ("5", "5'", "2", [6, 7, 8, 9], []),
        ]
        gaps = [68.52427885112857, 76.74601341193264, 30.520975151517206, 25.894370141853486]
        assert [s.gap for s in steps] == pytest.approx(gaps, abs=1e-9)


class TestRelaxedPath:
    """The relaxed plan over the matrix arrays against the graph search."""

    @staticmethod
    def assert_same_path(matrix):
        want = shortest_path(build_graph(matrix))
        got = relaxed_path(matrix)
        assert got.node_labels == want.node_labels
        assert got == want.plan  # spans, levels, closings and costs
        assert got.cost == want.total_cost

    def test_golden(self, golden_matrix):
        self.assert_same_path(golden_matrix)

    @pytest.mark.parametrize(
        "horizon, count", [(8, 5), (30, 1)], ids=["lumpy-T8", "lumpy-T30"]
    )
    def test_lumpy(self, horizon, count):
        for inst in generate_instances(
            pattern="lumpy", horizon=horizon, rho=0.3, K=225.0, b=10.0, count=count, seed=7
        ):
            self.assert_same_path(build_connection_matrix(inst))

    def test_zero_mean_periods(self):
        inst = InstanceSpec(
            horizon=4, means=(0.0, 0.0, 50.0, 0.0), cv=0.3, K=50.0, z=0.0, h=1.0, b=19.0
        )
        self.assert_same_path(build_connection_matrix(inst))

    def test_cost_tie_takes_the_smallest_predecessor(self, golden):
        # integer costs add exactly; the sink is then reached from node 3 at
        # exactly the distance of the relaxed path's node 4, and both
        # searches must keep the smaller node 3. The build's relaxed
        # distances are recomputed after each edit of its costs.
        matrix = build_connection_matrix(golden)

        def set_costs(cost):
            matrix.cost[:] = cost
            matrix.prefix, matrix.suffix, matrix.pred = _relaxed_distances(matrix.cost)

        set_costs(np.round(matrix.cost))
        T = matrix.horizon
        prefix = [0.0]
        for e in range(T):
            prefix.append(min(prefix[s] + matrix.cost[s, e] for s in range(e + 1)))
        assert relaxed_path(matrix).node_labels[-2] == "4"
        cost = matrix.cost.copy()
        cost[2, T - 1] = prefix[T] - prefix[2]
        set_costs(cost)
        assert prefix[2] + matrix.cost[2, T - 1] == prefix[3] + matrix.cost[3, T - 1]
        self.assert_same_path(matrix)
        assert relaxed_path(matrix).node_labels[-2] == "3"


class TestSolveInstance:
    def test_golden_paths_and_costs(self, golden_matrix, golden_solution):
        sol = golden_solution
        assert sol.relaxed_path.node_labels == ("1", "2", "3", "4", "6")
        assert sol.relaxed_cost == pytest.approx(437.3540, abs=1e-3)
        assert sol.expected_cost == pytest.approx(447.4670, abs=1e-3)
        assert sol.policy.reviews == (1, 2, 3, 5)
        assert sol.relaxed_violations == 1
        # the paper's split loop repairs the same relaxed path with one split
        loop, steps = repetitive_augment(build_graph(golden_matrix))
        assert loop.node_labels == ("1", "2", "3'", "5", "6")
        assert loop.total_cost == pytest.approx(447.4670, abs=1e-3)
        assert len(steps) == 1

    def test_golden_policy(self, golden_solution):
        policy = golden_solution.policy
        assert policy.reviews == (1, 2, 3, 5)
        expected = (149.3456, 186.682, 83.1352, 44.8037)
        for level, want in zip(policy.levels, expected):
            assert level == pytest.approx(want, abs=1e-3)

    def test_timings_recorded(self, golden_solution):
        t = golden_solution.timings
        assert set(t) == {"t_matrix", "t_relaxed", "t_reoptimise"}
        assert all(v >= 0.0 for v in t.values())

    def test_solve_runs_no_graph_code(self, monkeypatch):
        # the solve searches the matrix arrays; the cycle graph and the split
        # loop serve the paper's stage 2 only
        def forbidden(*args, **kwargs):
            raise AssertionError("the solve ran graph code")

        modules = [m for n, m in sys.modules.items() if n == "lotpath" or n.startswith("lotpath.")]
        for module in modules:
            for name in ("build_graph", "shortest_path", "augment_once", "repetitive_augment"):
                if name in vars(module):
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(ReplenishmentGraph, "__init__", forbidden)
        lumpy = generate_instances("lumpy", 100, 0.3, 225.0, 10.0, count=1, seed=7)[0]
        desk = generate_instances("lumpy", 10, 0.3, 225.0, 5.0, count=2, seed=7)[1]
        for inst in (lumpy, desk):
            sol = solve_instance(inst)
            assert sol.relaxed_violations > 0, inst.name
            assert check_feasibility(sol.path) == []

    def test_initial_inventory_offsets_cost(self):
        # with z > 0, stock on hand is worth z per unit against the plan cost
        sol = solve_instance(golden_spec(z=2.0, initial_inventory=10.0))
        ref = solve_instance(golden_spec(z=2.0, initial_inventory=0.0))
        assert sol.expected_cost == pytest.approx(ref.expected_cost - 20.0, abs=1e-6)


class TestTermination:
    def test_iteration_cap_raises_with_diagnostics(self, golden_matrix, monkeypatch):
        monkeypatch.setattr(graph, "SPLITS_PER_PERIOD", 0)
        g = build_graph(golden_matrix)
        with pytest.raises(NonTerminationError, match="within 0 splits") as exc:
            repetitive_augment(g)
        assert exc.value.diagnostics == {
            "iterations": 0,
            "cap": 0,
            "introduced_nodes": 0,
            "node_count": 6,
            "arc_count": 15,
            "outstanding_violations": [
                "node 3: carried 61.6820 exceeds order-up-to 37.3364 (gap 24.3456)"
            ],
        }

    def test_budget_is_ten_splits_per_period(self, monkeypatch):
        # lumpy T=8 seed 7 r7 needs four splits: a budget of 3 stops the
        # loop at the fourth with that split's violation outstanding
        inst = generate_instances("lumpy", 8, 0.3, 225.0, 10.0, count=12, seed=7)[7]
        assert graph.SPLITS_PER_PERIOD == 10
        monkeypatch.setattr(graph, "SPLITS_PER_PERIOD", 3 / 8)
        with pytest.raises(NonTerminationError) as exc:
            repetitive_augment(build_graph(build_connection_matrix(inst)))
        diag = exc.value.diagnostics
        assert diag["iterations"] == diag["introduced_nodes"] == 3
        assert diag["outstanding_violations"][0].startswith("node 5: ")

    def test_split_of_a_stale_path_is_an_error(self, golden_matrix):
        g = build_graph(golden_matrix)
        path = shortest_path(g)
        (k,) = check_feasibility(path.plan)
        augment_once(g, path, k)
        with pytest.raises(LotpathError, match="stale violation: inbound arc"):
            augment_once(g, path, k)  # the split moved the arc into node 3

    def test_split_without_a_matrix_is_an_error(self, golden_matrix):
        g = ReplenishmentGraph(golden_matrix.horizon)
        for arc in build_graph(golden_matrix).arcs():
            g.add_arc(arc)
        path = shortest_path(g)
        with pytest.raises(LotpathError, match="no connection matrix"):
            augment_once(g, path, check_feasibility(path.plan)[0])
        assert len(g.nodes) == 6  # nothing was split

    def test_recombination_regression(self):
        # lumpy instances whose equal-cost merged arcs used to re-enter the
        # shortest path forever; the split budget stays small now
        for inst in generate_instances(
            pattern="lumpy", horizon=20, rho=0.3, K=225.0, b=10.0, count=3, seed=8
        ):
            sol = solve_instance(inst)
            assert check_feasibility(sol.path) == []
            loop, steps = repetitive_augment(build_graph(build_connection_matrix(inst)))
            assert check_feasibility(loop.plan) == []
            assert len(steps) <= 50


class TestRepairQuality:
    def test_golden_matches_plain_chain_optimum(self, golden_matrix, golden_solution):
        dp = plain_chain_optimum(golden_matrix, 5)
        assert golden_solution.expected_cost == pytest.approx(dp, abs=1e-6)

    def test_never_beats_plain_chain_optimum(self):
        # the floor argument: any plan with absorbed reviews is dominated by
        # the same chain without them, so the split loop can never go below
        # the feasible-chain optimum; the final answer, re-optimised or not,
        # never costs more than the loop's plan
        cells = [
            ("lumpy", 10, 0.3, 225.0, 10.0, 7),
            ("lumpy", 10, 0.2, 225.0, 5.0, 9),
            ("erratic", 10, 0.3, 225.0, 10.0, 7),
        ]
        for pattern, T, rho, K, b, seed in cells:
            for inst in generate_instances(
                pattern=pattern, horizon=T, rho=rho, K=K, b=b, count=5, seed=seed
            ):
                sol = solve_instance(inst)
                matrix = build_connection_matrix(inst)
                dp = plain_chain_optimum(matrix, T)
                loop, steps = repetitive_augment(build_graph(matrix))
                # the loop splits exactly when the relaxed path violates
                assert bool(steps) == (sol.relaxed_violations > 0), inst.name
                assert loop.total_cost >= dp - 1e-9, inst.name
                assert sol.expected_cost <= loop.total_cost + 1e-9, inst.name


class TestReoptimise:
    """Stage 3: the exact constrained optimum over all schedules and levels."""

    @pytest.fixture(scope="class")
    def lumpy(self):
        # the split loop pays 1425.41 here; the cheapest feasible plan 1258.11
        return generate_instances(
            pattern="lumpy", horizon=8, rho=0.3, K=225.0, b=10.0, count=12, seed=7
        )[7]

    @pytest.fixture(scope="class")
    def lumpy_solution(self, lumpy):
        return solve_instance(lumpy)

    def test_golden_keeps_the_loop_plan(self, golden_matrix):
        loop, _ = repetitive_augment(build_graph(golden_matrix))
        plan = reoptimise(golden_matrix)
        want = loop.cycles
        got = policy_from_path(plan)
        assert got.reviews == tuple(c.start for c in want)
        assert got.levels == pytest.approx([c.order_up_to for c in want], rel=1e-12)
        assert plan.cost == pytest.approx(loop.total_cost, rel=1e-12)

    def test_replaces_a_costlier_loop_plan(self, lumpy, lumpy_solution):
        sol = lumpy_solution
        loop, _ = repetitive_augment(build_graph(build_connection_matrix(lumpy)))
        assert sol.relaxed_violations > 0
        assert sol.path == reoptimise(sol.matrix)
        assert loop.total_cost == pytest.approx(1425.41, abs=0.01)
        assert sol.expected_cost == pytest.approx(1258.11, abs=0.01)

    def test_path_policy_and_cost_describe_one_plan(self, lumpy, lumpy_solution):
        sol = lumpy_solution
        assert check_feasibility(sol.path) == []
        assert sol.path == reoptimise(sol.matrix)
        assert sol.policy.reviews == tuple(s + 1 for s, _ in sol.path.spans)
        assert sol.policy.levels == sol.path.levels
        trace = expected_trace(lumpy, sol.policy)
        assert trace.total_cost == pytest.approx(sol.expected_cost, rel=1e-12)
        carried = 0.0
        for row in trace.rows:
            if row.review:
                assert row.order_up_to >= carried - 1e-9
            carried = row.expected_closing

    def test_levels_are_the_constrained_optimum(self, lumpy, lumpy_solution):
        # no feasible perturbation of the schedule's levels is cheaper
        plan = lumpy_solution.path
        T = lumpy.horizon

        def cost(levels):
            return sum(
                cycle_cost_at(y, s + 1, e + 1, lumpy, e + 1 == T)
                for y, (s, e) in zip(levels, plan.spans)
            )

        best = list(plan.levels)
        base = cost(best)
        mus = [y - c for y, c in zip(plan.levels, plan.closings)]
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1e-1, 5.0):
            for _ in range(100):
                levels = list(best + scale * rng.standard_normal(len(best)))
                for k in range(1, len(levels)):
                    levels[k] = max(levels[k], levels[k - 1] - mus[k - 1])
                assert cost(levels) >= base - 1e-9

    def test_pruning_keeps_the_optimum(self, monkeypatch):
        for inst in generate_instances(
            pattern="lumpy", horizon=20, rho=0.3, K=225.0, b=10.0, count=3, seed=7
        ):
            matrix = build_connection_matrix(inst)
            pruned = reoptimise(matrix)
            with monkeypatch.context() as m:
                m.setattr(
                    augment, "_admissible_spans",
                    lambda matrix, _: np.triu(np.ones(matrix.cost.shape, dtype=bool)),
                )
                full = reoptimise(matrix)
            assert pruned.cost == pytest.approx(full.cost, abs=1e-9), inst.name

    def test_zero_mean_periods(self):
        inst = InstanceSpec(
            horizon=8, means=(200.0, 0.0, 0.0, 10.0, 150.0, 0.0, 5.0, 0.0), cv=0.3,
            K=50.0, z=0.0, h=1.0, b=19.0,
        )
        sol = solve_instance(inst)
        assert sol.relaxed_violations == 2
        assert sol.path == reoptimise(sol.matrix)
        assert check_feasibility(sol.path) == []
        assert expected_trace(inst, sol.policy).total_cost == pytest.approx(
            sol.expected_cost, rel=1e-12
        )

    @pytest.mark.parametrize("initial_inventory", [0.0, -20.0])
    def test_tiny_means_keep_the_bound_plan(self, initial_inventory):
        # at means of about 1e-4 the absolute Y_TOL lifts every relaxed
        # distance through a span above the bound plan's exact cost; the
        # bound plan's own spans stay admissible
        inst = InstanceSpec(
            horizon=10,
            means=(
                0.00019647047256994332, 0.0002699624701089316, 4.2424021918729404e-05,
                0.0005815808121114838, 0.00042423022686762033, 0.00065854274728412,
                0.0005314625331171093, 0.0004167841381885743, 0.00035202597495714974,
                4.062224652090485e-05,
            ),
            cv=0.05, K=0.0, z=49.5, h=1.0, b=50.0, initial_inventory=initial_inventory,
        )
        sol = solve_instance(inst)
        assert sol.relaxed_violations > 0
        assert check_feasibility(sol.path) == []
        assert expected_trace(inst, sol.policy).total_cost == pytest.approx(
            sol.expected_cost, rel=1e-12
        )

    def test_pooled_blocks_meet_their_fractile(self):
        # a block of cycles whose hand-offs bind shares one root: the Normal
        # CDFs of all its covered periods, each at its cycle's level, sum to
        # the block's newsvendor target. The exact root lies within the
        # bisection tolerance of the plan's levels.
        blocks_checked = 0
        for inst in generate_instances(
            pattern="lumpy", horizon=30, rho=0.3, K=225.0, b=10.0, count=10, seed=7
        ):
            sol = solve_instance(inst)
            if sol.relaxed_violations == 0:
                continue
            plan = sol.path
            cycles = [(s + 1, e + 1, y) for (s, e), y in zip(plan.spans, plan.levels)]
            blocks = [[cycles[0]]]
            for k in range(1, len(cycles)):
                y = plan.levels[k]
                if abs(y - plan.closings[k - 1]) <= 1e-9 * max(1.0, abs(y)):
                    blocks[-1].append(cycles[k])
                else:
                    blocks.append([cycles[k]])
            means = np.array(inst.means)
            var = np.array([(inst.cv * m) ** 2 for m in inst.means])
            for block in (b for b in blocks if len(b) > 1):
                blocks_checked += 1

                def cdf_sum(shift):
                    total = 0.0
                    for start, end, level in block:
                        mu = np.cumsum(means[start - 1 : end])
                        sd = np.sqrt(np.cumsum(var[start - 1 : end]))
                        y = level + shift
                        cdf = stats.norm.cdf(y, mu, np.where(sd > 0, sd, 1.0))
                        total += np.where(sd > 0, cdf, y >= mu).sum()
                    return total

                n = sum(end - start + 1 for start, end, _ in block)
                terminal = block[-1][1] == inst.horizon
                target = (n * inst.b - (inst.z if terminal else 0.0)) / (inst.b + inst.h)
                # x, the shared root, is a level plus the mean demand before it
                x = max(abs(level + means[: start - 1].sum()) for start, _, level in block)
                tol = LEVEL_TOL * max(1.0, x)
                assert cdf_sum(-tol) <= target <= cdf_sum(tol), (inst.name, block)
        assert blocks_checked == 22


# ---------------------------------------------------------------------------
# every schema-valid instance gets a feasible, self-consistent plan or a
# typed error


@st.composite
def schema_instances(draw):
    T = draw(st.integers(1, 10))
    scale = draw(st.sampled_from((1e-4, 1.0, 1e3)))
    means = tuple(
        0.0 if draw(st.booleans()) else scale * draw(st.floats(0.0, 1.0)) for _ in range(T)
    )
    h = draw(st.floats(0.5, 2.0))
    b = h * draw(st.floats(1.01, 50.0))
    return InstanceSpec(
        horizon=T,
        means=means,
        cv=draw(st.floats(0.0, 1.0, exclude_min=True)),
        K=draw(st.sampled_from((0.0, 1.0, 225.0))),
        z=b * draw(st.floats(0.0, 0.99)),
        h=h,
        b=b,
        initial_inventory=draw(st.sampled_from((-20.0, 0.0, 50.0))),
    )


@given(inst=schema_instances())
@settings(max_examples=150, deadline=None)
def test_solve_gives_a_feasible_plan_or_a_typed_error(inst):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            sol = solve_instance(inst)
        except LotpathError:
            return
        trace = expected_trace(inst, sol.policy)
    assert check_feasibility(sol.path) == []
    assert all(math.isfinite(y) for y in sol.path.levels)
    assert trace.total_cost == pytest.approx(sol.expected_cost, rel=1e-9, abs=0.0)
