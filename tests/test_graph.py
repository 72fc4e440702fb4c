"""Cycle graph construction and shortest paths."""

import pytest

from lotpath import (
    InstanceSpec,
    LotpathError,
    build_connection_matrix,
    build_graph,
    check_feasibility,
    generate_instances,
    graph_dump,
    repetitive_augment,
    shortest_path,
)
from lotpath.graph import Arc, NodeId, ReplenishmentGraph, augment_once


def plain_arc(u, v, cost):
    return Arc(
        NodeId(u), NodeId(v), "normal", start=u, end=v - 1, order_up_to=0.0, closing=0.0,
        cost=cost,
    )


def enumerated_optimum(graph):
    """Cheapest source -> sink cost found by walking every path.

    Independent of the search under test: no ordering of nodes, no
    relaxation, only the sum of ``effective_cost`` along each path.
    """
    best = float("inf")
    arcs = graph.arcs()
    stack = [(graph.source, 0.0)]
    while stack:
        node, cost = stack.pop()
        if node == graph.sink:
            best = min(best, cost)
            continue
        for arc in (a for a in arcs if a.u == node):
            stack.append((arc.v, cost + graph.effective_cost(arc)))
    return best


def assert_search_matches_enumeration(graph):
    sol = shortest_path(graph)
    assert sol.nodes[0] == graph.source and sol.nodes[-1] == graph.sink
    assert all(graph.get_arc(a.u, a.v) is a for a in sol.arcs)
    assert sol.total_cost == pytest.approx(
        sum(graph.effective_cost(a) for a in sol.arcs), abs=1e-9
    )
    assert sol.total_cost == pytest.approx(enumerated_optimum(graph), abs=1e-9)


def full_push_pass(graph):
    """The search as one full push pass summing live ``effective_cost``.

    Independent of :func:`shortest_path`, which pulls each node's label from
    its inbound arcs: here every node pushes along its outbound arcs in
    (period, copy) order, and the strict ``<`` keeps the first, i.e.
    smallest, predecessor among equal-cost ones. Returns the distance and
    predecessor arc of every reachable node.
    """
    dist = {graph.source: 0.0}
    pred = {}
    arcs = graph.arcs()
    for u in graph.nodes:
        d = dist.get(u)
        if d is None:
            continue
        for arc in (a for a in arcs if a.u == u):
            nd = d + graph.effective_cost(arc)
            old = dist.get(arc.v)
            if old is None or nd < old:
                dist[arc.v] = nd
                pred[arc.v] = arc
    return dist, pred


def test_node_rendering():
    assert str(NodeId(3)) == "3"
    assert str(NodeId(3, 1)) == "3'"
    assert str(NodeId(3, 2)) == "3''"
    assert repr(NodeId(3, 1)) == "3'"
    assert NodeId(3) < NodeId(3, 1) < NodeId(4)
    assert sorted([NodeId(4), NodeId(3, 2), NodeId(3), NodeId(3, 1)]) == [
        NodeId(3), NodeId(3, 1), NodeId(3, 2), NodeId(4)
    ]


def test_node_hash_agrees_with_equality():
    assert NodeId(3) == NodeId(3, 0)
    assert hash(NodeId(3)) == hash(NodeId(3, 0))
    assert NodeId(3) != NodeId(3, 1)
    labels = {NodeId(3): "a"}
    labels[NodeId(3, 0)] = "b"
    assert labels == {NodeId(3): "b"}
    # a NodeId is the plain tuple of its fields
    assert NodeId(3, 1) == (3, 1) and hash(NodeId(3, 1)) == hash((3, 1))


class TestBuildGraph:
    def test_complete_dag(self, golden_matrix):
        g = build_graph(golden_matrix)
        assert g.arc_count == 15  # one arc per matrix entry
        assert [n.period for n in g.nodes] == [1, 2, 3, 4, 5, 6]
        assert g.source == NodeId(1)
        assert g.sink == NodeId(6)

    def test_rejects_a_matrix_with_unpriced_spans(self):
        # the solve's pruned matrix of lumpy T=30 r0 prices lengths 1..16
        # only, leaving the longer spans unpriced (cost +inf)
        inst = generate_instances("lumpy", 30, 0.3, 225.0, 10.0, count=1, seed=7)[0]
        pruned = build_connection_matrix(inst, prune=True)
        with pytest.raises(LotpathError, match="prices 360 of 465 spans"):
            build_graph(pruned)

    def test_arc_payload_matches_matrix(self, golden_matrix):
        g = build_graph(golden_matrix)
        arc = g.get_arc(NodeId(2), NodeId(4))
        assert arc.cost == golden_matrix.cost[1, 2]
        assert arc.order_up_to == golden_matrix.level[1, 2]
        assert arc.closing == golden_matrix.level[1, 2] - golden_matrix.mus[1, 1]
        assert arc.start == 2 and arc.end == 3
        assert arc.kind == "normal"

    def test_arc_to_a_missing_node_is_refused(self, golden_matrix):
        g = build_graph(golden_matrix)
        with pytest.raises(LotpathError, match="missing node"):
            g.add_arc(plain_arc(2, 9, 1.0))
        assert g.arc_count == 15

    def test_new_virtual_counts_copies(self, golden_matrix):
        g = build_graph(golden_matrix)
        first = g.new_virtual(3)
        second = g.new_virtual(3)
        assert first == NodeId(3, 1)
        assert second == NodeId(3, 2)
        assert g.has_node(first) and g.has_node(second)

    def test_single_inbound_requires_uniqueness(self, golden_matrix):
        g = build_graph(golden_matrix)
        assert g.single_inbound(NodeId(2)).u == NodeId(1)
        with pytest.raises(LotpathError, match="inbound"):
            g.single_inbound(NodeId(3))  # fed by both 1 and 2


class TestShortestPath:
    def test_golden_relaxed_path(self, golden_matrix):
        sol = shortest_path(build_graph(golden_matrix))
        assert sol.node_labels == ("1", "2", "3", "4", "6")
        assert sol.total_cost == pytest.approx(437.3540, abs=1e-3)

    def test_path_cost_is_arc_sum(self, golden_matrix):
        sol = shortest_path(build_graph(golden_matrix))
        assert sol.total_cost == pytest.approx(
            sum(a.cost for a in sol.arcs), rel=1e-12
        )

    def test_matches_enumeration_on_golden(self, golden_matrix):
        g = build_graph(golden_matrix)
        assert_search_matches_enumeration(g)
        repetitive_augment(g)
        assert any(n.copy for n in g.nodes)  # the repair split a node
        assert_search_matches_enumeration(g)

    def test_matches_enumeration_on_generated_instances(self):
        recomputed = 0
        for inst in generate_instances(
            pattern="lumpy", horizon=8, rho=0.3, K=225.0, b=10.0, count=5, seed=3
        ):
            g = build_graph(build_connection_matrix(inst))
            assert_search_matches_enumeration(g)
            repetitive_augment(g)
            assert_search_matches_enumeration(g)
            recomputed += sum(a.kind == "recomputed" for a in g.arcs())
        assert recomputed > 0  # repaired graphs with merged-cycle arcs were searched

    def test_tie_goes_to_the_smaller_predecessor(self):
        g = ReplenishmentGraph(2)
        for u, v, cost in ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 2.0)):
            g.add_arc(plain_arc(u, v, cost))
            if u == 2:
                assert shortest_path(g).node_labels == ("1", "2", "3")
        sol = shortest_path(g)
        assert sol.node_labels == ("1", "3")
        assert sol.total_cost == 2.0

    def test_arc_from_an_unreached_tail_is_skipped(self):
        # node 2 has no inbound arc, so neither it nor node 3 gets a label;
        # their arcs are passed over and the direct arc wins
        g = ReplenishmentGraph(3)
        for u, v, cost in ((2, 3, 1.0), (3, 4, 1.0), (1, 4, 5.0)):
            g.add_arc(plain_arc(u, v, cost))
        sol = shortest_path(g)
        assert sol.node_labels == ("1", "4")
        assert sol.total_cost == 5.0

    def test_negative_weight_is_an_error(self):
        g = ReplenishmentGraph(1)
        g.add_arc(plain_arc(1, 2, -1.0))
        with pytest.raises(LotpathError, match="negative"):
            shortest_path(g)

    def test_unreachable_sink_is_an_error(self, golden_matrix):
        g = build_graph(golden_matrix)
        shortest_path(g)
        removed = g.in_arcs(g.sink)
        for arc in removed:
            g.remove_arc(arc)
        with pytest.raises(LotpathError, match="unreachable"):
            shortest_path(g)
        with pytest.raises(LotpathError, match="unreachable"):
            shortest_path(g)  # a failed search leaves the graph searchable
        for arc in removed:
            g.add_arc(arc)
        assert shortest_path(g).node_labels == ("1", "2", "3", "4", "6")

    def test_negative_weight_fails_again_on_the_same_graph(self):
        g = ReplenishmentGraph(2)
        for u, v, cost in ((1, 2, 1.0), (2, 3, -1.0), (1, 3, 5.0)):
            g.add_arc(plain_arc(u, v, cost))
        for _ in range(2):
            with pytest.raises(LotpathError, match="negative"):
                shortest_path(g)


def assert_search_matches_full_pass(graph):
    sol = shortest_path(graph)
    dist, pred = full_push_pass(graph)
    ref_arcs, node = [], graph.sink
    while node != graph.source:
        ref_arcs.append(pred[node])
        node = pred[node].u
    ref_arcs.reverse()
    assert sol.total_cost == dist[graph.sink]
    assert len(sol.arcs) == len(ref_arcs)
    assert all(a is b for a, b in zip(sol.arcs, ref_arcs))
    assert sol.node_labels == tuple(str(n) for n in [graph.source] + [a.v for a in ref_arcs])
    return sol


class TestResumedSearch:
    """After every split of the repair the search equals a full push pass."""

    def repair_step_by_step(self, matrix):
        """Split as ``repetitive_augment`` does, checking every search;
        returns the number of splits."""
        g = build_graph(matrix)
        splits = 0
        while True:
            path = assert_search_matches_full_pass(g)
            violations = check_feasibility(path.plan)
            if not violations:
                break
            augment_once(g, path, violations[0])
            splits += 1
        return splits

    def test_golden(self, golden_matrix):
        assert self.repair_step_by_step(golden_matrix) == 1

    def test_lumpy_t8(self):
        splits = [
            self.repair_step_by_step(build_connection_matrix(inst))
            for inst in generate_instances(
                pattern="lumpy", horizon=8, rho=0.3, K=225.0, b=10.0, count=5, seed=3
            )
        ]
        assert sum(splits) > 0

    def test_lumpy_t30(self):
        (inst,) = generate_instances(
            pattern="lumpy", horizon=30, rho=0.3, K=225.0, b=10.0, count=1, seed=3
        )
        assert self.repair_step_by_step(build_connection_matrix(inst)) == 19


def test_every_arc_of_a_split_graph_prices_its_matrix_cycle():
    # after many splits each arc still carries the matrix cycle of its
    # start..end; a merged (recomputed) arc adds one K per absorbed review,
    # the last of which is its origin's period
    kinds = set()
    for inst in generate_instances(
        pattern="lumpy", horizon=30, rho=0.3, K=225.0, b=10.0, count=2, seed=3
    ):
        matrix = build_connection_matrix(inst)
        g = build_graph(matrix)
        _, steps = repetitive_augment(g)
        assert steps
        for arc in g.arcs():
            s, e = arc.start - 1, arc.end - 1
            assert arc.v.period == arc.end + 1
            assert arc.order_up_to == matrix.level[s, e]
            assert arc.closing == matrix.level[s, e] - matrix.mus[s, e - s]
            if arc.kind == "recomputed":
                assert arc.absorbed[-1] == arc.u.period
                assert arc.cost == matrix.cost[s, e] + inst.K * len(arc.absorbed)
            else:
                assert arc.absorbed == ()
                assert arc.cost == matrix.cost[s, e]
            kinds.add(arc.kind)
    assert kinds == {"normal", "duplicated", "recomputed"}


class TestAugmentOnceIndex:
    @pytest.mark.parametrize("k", [0, 4, -1], ids=["zero", "past-last", "negative"])
    def test_out_of_range_cycle_raises_and_leaves_graph(self, golden_matrix, k):
        g = build_graph(golden_matrix)
        path = shortest_path(g)
        assert len(path.cycles) == 4
        before = graph_dump(g)
        with pytest.raises(LotpathError, match="out of range"):
            augment_once(g, path, k)
        assert graph_dump(g) == before


def test_split_skips_a_target_that_cleanup_deleted(golden_matrix):
    g = build_graph(golden_matrix)
    for arc in g.in_arcs(NodeId(5)):
        g.remove_arc(arc)
    g.cleanup_isolated()
    assert not g.has_node(NodeId(5))
    path = shortest_path(g)
    (k,) = check_feasibility(path.plan)
    assert k == 2 and path.cycles[k - 1].v == NodeId(3)
    step = augment_once(g, path, k)
    # the split recomputes targets up to j + 1 = 5 and duplicates beyond;
    # target 5 is passed over because cleanup deleted node 5
    assert step.recomputed_targets == [4]
    assert step.duplicated_targets == [6]
    assert all(NodeId(5) not in (arc.u, arc.v) for arc in g.arcs())


class TestGraphDump:
    def test_csv_shape(self, golden_matrix):
        g = build_graph(golden_matrix)
        text = graph_dump(g)
        lines = text.strip().splitlines()
        assert lines[0] == "from,to,kind,cost,order_up_to,closing_inventory"
        assert len(lines) == 1 + g.arc_count

    def test_rows_parse_back(self, golden_matrix):
        g = build_graph(golden_matrix)
        for line in graph_dump(g).strip().splitlines()[1:]:
            u, v, kind, cost, level, closing = line.split(",")
            assert kind == "normal"
            assert float(cost) > 0.0
            assert float(level) > 0.0
            float(closing)


class TestExplicitInstanceEdgeCases:
    def test_single_period_graph(self):
        inst = InstanceSpec(
            horizon=1, means=(50.0,), cv=0.2, K=10.0, z=0.0, h=1.0, b=5.0
        )
        g = build_graph(build_connection_matrix(inst))
        sol = shortest_path(g)
        assert sol.node_labels == ("1", "2")
        assert g.arc_count == 1
