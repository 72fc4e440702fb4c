"""The paper's stage 2: the replenishment-cycle graph and its split loop.

Nodes 1..T+1 mark period starts (node T+1 is the sink). Arc (i, j) carries
the optimised cycle covering periods i..j-1, so every 1 -> T+1 path is a
review schedule partitioning the horizon. Every arc raises the period, so
one pass over the nodes in period order (the Wagner-Whitin recursion) finds
the minimum total expected cost schedule when order quantities are
unrestricted in sign.

The solve builds no graph and does not run the loop:
:func:`lotpath.augment.relaxed_path` finds the same relaxed plan over the
matrix arrays (the tests keep :func:`shortest_path` on the complete graph
as its reference), and :func:`lotpath.augment.reoptimise` gives the answer.
The loop stays callable as the paper's algorithm (the worked example,
``lotpath export-graph --augmented``); ``import lotpath`` loads this module
on first use of one of its names.

A path reads as a :class:`~lotpath.cycles.Plan` (:attr:`PathSolution.plan`),
checked by :func:`lotpath.augment.check_feasibility` like every plan of the
solve. :func:`repetitive_augment` repairs a path that expects a negative
order by splitting the offending node i into a virtual copy i':

* redirect: the violating inbound arc (m, i) is re-targeted to (m, i'),
  payload unchanged; node i is cascade-deleted once nothing points at it;
* recompute: arcs [i', k] for k = i+1 .. j+1 carry the merged cycle that
  starts where the inbound cycle started and keeps a zero-quantity review
  (one extra K) at period i, levels taken from the connection matrix;
* duplicate: arcs (i', x) for x = j+2 .. T+1 copy the matrix cycles starting
  at period i, so every longer outbound option survives unchanged,

where j+1 is the furthest endpoint among outbound arcs of i that violate
against the inbound closing inventory. The shortest path is then re-solved;
the loop ends when the cheapest path is violation-free.

A virtual node always has exactly one inbound arc. Arcs come in three kinds:

* ``normal``: a cycle from the connection matrix (includes inbound arcs that
  were re-targeted to a virtual node, payload unchanged);
* ``duplicated``: a matrix cycle copied onto a virtual node's outbound side;
* ``recomputed``: a merged cycle replacing the inbound cycle of its origin
  node. Its ``cost`` is the full merged-cycle cost (n zero-quantity reviews
  pay n extra K), so when a path traverses it, the inbound arc it replaces
  must not be charged again: the traversal weight of a recomputed arc is
  ``cost`` minus the cost of its origin's single inbound arc.

No search of the loop has been seen to take a recomputed arc: none of 1,934
searches (949 splits) over the 972 lumpy instances of the desk and ``--full``
benchmark grids, lumpy T=100 seed 7 r0-r2 and erratic T=30 seed 7 r0-r9.
Where the direct arc from the same origin survives, it prices the same span
without the absorbed K. A path through one still reads as its realised
cycles (:attr:`PathSolution.cycles`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .augment import FEAS_TOL, check_feasibility
from .cycles import ConnectionMatrix, Plan
from .errors import LotpathError, NonTerminationError

__all__ = [
    "NodeId",
    "Arc",
    "PathSolution",
    "ReplenishmentGraph",
    "build_graph",
    "shortest_path",
    "graph_dump",
    "AugmentationStep",
    "augment_once",
    "repetitive_augment",
]

#: most negative traversal weight the search accepts as rounding noise
NEGATIVE_WEIGHT_TOL = 1e-9
#: the loop's split budget per period of the horizon
SPLITS_PER_PERIOD = 10


class NodeId(NamedTuple):
    """Graph node: a period plus a copy counter (0 for the original node).

    A tuple, so hashing, equality and the (period, copy) ordering run in C.
    A ``NodeId`` equals the plain tuple of its fields: ``NodeId(3) == (3, 0)``.
    """

    period: int
    copy: int = 0

    def __str__(self):
        return f"{self.period}" + "'" * self.copy

    __repr__ = __str__


@dataclass(frozen=True)
class Arc:
    """A cycle option from node u to node v.

    ``start..end`` are the covered periods, ``absorbed`` lists periods whose
    review survives as a zero-quantity review inside a merged cycle (each
    contributes one K to ``cost``).
    """

    u: NodeId
    v: NodeId
    kind: str  # normal | duplicated | recomputed
    start: int
    end: int
    order_up_to: float
    closing: float
    cost: float
    absorbed: Tuple[int, ...] = ()

    def __str__(self):
        return f"({self.u},{self.v})[{self.kind} c={self.cost:.4f} S={self.order_up_to:.4f}]"


@dataclass
class PathSolution:
    """A 1 -> T+1 path. ``total_cost`` sums the effective traversal weights,
    which equals the plain sum of arc costs whenever the path contains no
    recomputed arc (a recomputed arc supersedes the redirect arc before it)."""

    nodes: List[NodeId]
    arcs: List[Arc]
    total_cost: float

    @property
    def node_labels(self) -> Tuple[str, ...]:
        return tuple(str(n) for n in self.nodes)

    @property
    def cycles(self) -> List[Arc]:
        """The arc that prices each realised cycle: every arc not followed by
        a recomputed arc, which supersedes it with the merged cycle."""
        return [
            arc for arc, after in zip(self.arcs, self.arcs[1:] + [None])
            if after is None or after.kind != "recomputed"
        ]

    @property
    def plan(self) -> Plan:
        """The realised cycles as a plan."""
        cycles = self.cycles
        return Plan(
            spans=tuple((a.start - 1, a.end - 1) for a in cycles),
            levels=tuple(a.order_up_to for a in cycles),
            closings=tuple(a.closing for a in cycles),
            costs=tuple(a.cost for a in cycles),
        )


class ReplenishmentGraph:
    """Directed acyclic graph over period nodes with cycle-cost arcs, stored
    head first (node -> tail -> arc) as the search reads them."""

    def __init__(self, horizon: int, matrix: Optional[ConnectionMatrix] = None):
        self.horizon = horizon
        self.matrix = matrix
        self.source = NodeId(1)
        self.sink = NodeId(horizon + 1)
        self._in: Dict[NodeId, Dict[NodeId, Arc]] = {
            NodeId(p): {} for p in range(1, horizon + 2)
        }
        self._copies: Dict[int, int] = {}

    # -- structure ---------------------------------------------------------

    def new_virtual(self, period: int) -> NodeId:
        self._copies[period] = self._copies.get(period, 0) + 1
        node = NodeId(period, self._copies[period])
        self._in[node] = {}
        return node

    def has_node(self, node: NodeId) -> bool:
        return node in self._in

    @property
    def nodes(self) -> List[NodeId]:
        return sorted(self._in)

    def add_arc(self, arc: Arc) -> None:
        if arc.u not in self._in or arc.v not in self._in:
            raise LotpathError(f"arc {arc} references a missing node")
        self._in[arc.v][arc.u] = arc

    def remove_arc(self, arc: Arc) -> None:
        del self._in[arc.v][arc.u]

    def in_arcs(self, node: NodeId) -> List[Arc]:
        return list(self._in[node].values())

    def get_arc(self, u: NodeId, v: NodeId) -> Optional[Arc]:
        return self._in.get(v, {}).get(u)

    def arcs(self) -> List[Arc]:
        """Every arc, ordered by (tail, head)."""
        return sorted(
            (arc for inbound in self._in.values() for arc in inbound.values()),
            key=lambda arc: (arc.u, arc.v),
        )

    @property
    def arc_count(self) -> int:
        return sum(len(d) for d in self._in.values())

    # -- traversal weights ---------------------------------------------------

    def single_inbound(self, node: NodeId) -> Arc:
        arcs = self._in[node]
        if len(arcs) != 1:
            raise LotpathError(
                f"node {node} expected exactly one inbound arc, found {len(arcs)}"
            )
        return next(iter(arcs.values()))

    def effective_cost(self, arc: Arc) -> float:
        """Traversal weight: recomputed arcs absorb their origin's inbound cycle."""
        if arc.kind == "recomputed":
            return arc.cost - self.single_inbound(arc.u).cost
        return arc.cost

    def cleanup_isolated(self) -> None:
        """Cascade-remove nodes that lost all inbound arcs (except the source)."""
        while True:
            dead = [
                n for n, inbound in self._in.items()
                if not inbound and n != self.source and n != self.sink
            ]
            if not dead:
                return
            for n in dead:
                del self._in[n]
            for inbound in self._in.values():
                for n in dead:
                    inbound.pop(n, None)


# ---------------------------------------------------------------------------


def build_graph(matrix: ConnectionMatrix) -> ReplenishmentGraph:
    """Complete cycle graph: one arc (i, j+1) per matrix entry (i, j).

    Raises ``LotpathError`` when ``matrix`` has unpriced spans (a pruned
    build), which would otherwise become arcs of infinite cost.
    """
    T = matrix.horizon
    if len(matrix) < T * (T + 1) // 2:
        raise LotpathError(
            f"connection matrix prices {len(matrix)} of {T * (T + 1) // 2} spans; "
            "the cycle graph needs the complete matrix (build_connection_matrix(instance))"
        )
    g = ReplenishmentGraph(T, matrix)
    for i in range(1, T + 1):
        for j in range(i, T + 1):
            g.add_arc(_span_arc(matrix, NodeId(i), NodeId(j + 1), "normal", i, j))
    return g


def _span_arc(
    matrix: ConnectionMatrix, u: NodeId, v: NodeId, kind: str, start: int, end: int,
    absorbed: Tuple[int, ...] = (),
) -> Arc:
    """The arc u -> v pricing the matrix cycle of periods ``start..end``;
    each absorbed review adds one K to its cost."""
    level = float(matrix.level[start - 1, end - 1])
    return Arc(
        u, v, kind, start=start, end=end, order_up_to=level,
        closing=level - float(matrix.mus[start - 1, end - start]),
        cost=float(matrix.cost[start - 1, end - 1]) + matrix.instance.K * len(absorbed),
        absorbed=absorbed,
    )


def shortest_path(graph: ReplenishmentGraph) -> PathSolution:
    """Cheapest source -> sink path over the traversal weights.

    Every arc raises the period, so one pass over the nodes in (period, copy)
    order is exact (the Wagner-Whitin recursion): each node's inbound tails
    are final when it is reached. Among equal-cost predecessors the smallest
    node wins, which keeps reported paths deterministic.

    Raises ``LotpathError`` on a negative traversal weight or an unreachable
    sink.
    """
    dist: Dict[NodeId, float] = {graph.source: 0.0}
    pred: Dict[NodeId, Arc] = {}
    for v in graph.nodes:
        best = best_arc = None
        for u, arc in graph._in[v].items():
            du = dist.get(u)
            if du is None:
                continue
            w = graph.effective_cost(arc)
            if w < -NEGATIVE_WEIGHT_TOL:
                raise LotpathError(f"negative traversal weight on {arc}")
            nd = du + w
            if best is None or nd < best or (nd == best and u < best_arc.u):
                best, best_arc = nd, arc
        if best_arc is not None:
            dist[v], pred[v] = best, best_arc
    if graph.sink not in dist:
        raise LotpathError("sink unreachable; graph is corrupt")
    arcs: List[Arc] = []
    node = graph.sink
    while node != graph.source:
        arc = pred[node]
        arcs.append(arc)
        node = arc.u
    arcs.reverse()
    nodes = [graph.source] + [a.v for a in arcs]
    return PathSolution(nodes=nodes, arcs=arcs, total_cost=dist[graph.sink])


def graph_dump(graph: ReplenishmentGraph) -> str:
    """Line-oriented arc listing for debugging and plotting.

    One arc per line: from, to, kind, cost, order_up_to, closing_inventory.
    """
    lines = ["from,to,kind,cost,order_up_to,closing_inventory"]
    for arc in graph.arcs():
        lines.append(
            f"{arc.u},{arc.v},{arc.kind},{arc.cost:.6f},{arc.order_up_to:.6f},{arc.closing:.6f}"
        )
    return "\n".join(lines) + "\n"

# ---------------------------------------------------------------------------
# stage 2: the split-and-re-solve loop


@dataclass
class AugmentationStep:
    """Record of one node split."""

    node: NodeId
    new_node: NodeId
    gap: float
    redirected_from: NodeId
    recomputed_targets: List[int] = field(default_factory=list)
    duplicated_targets: List[int] = field(default_factory=list)


def augment_once(graph: ReplenishmentGraph, path: PathSolution, k: int) -> AugmentationStep:
    """Split the review node of ``path``'s realised cycle ``k`` and rewire its
    options as described above; ``k`` is an index that
    :func:`lotpath.augment.check_feasibility` reports for ``path.plan``.

    Raises ``LotpathError`` unless 1 <= k < len(path.cycles), or if the path
    no longer matches the graph (its arc into the node must still be
    present); the graph is then left unchanged.
    """
    if not 1 <= k < len(path.cycles):
        raise LotpathError(
            f"cycle index {k!r} out of range: a split needs 1 <= k < {len(path.cycles)}"
        )
    inbound = path.cycles[k - 1]
    v = inbound.v
    if graph.get_arc(inbound.u, v) is not inbound:
        raise LotpathError(f"stale violation: inbound arc {inbound} is gone")
    matrix = graph.matrix
    if matrix is None:
        raise LotpathError("graph carries no connection matrix; cannot augment")
    outbound = path.cycles[k]
    absorbed = inbound.absorbed + (v.period,)

    # furthest span starting here whose level the carried stock still exceeds;
    # every such span becomes a merged cycle, never a duplicate that would
    # violate the same pairing. The matrix row holds every span, including
    # those whose arcs earlier splits removed from node v.
    row = v.period - 1
    ends = v.period + np.flatnonzero(matrix.level[row, row:] < inbound.closing - FEAS_TOL)
    j = max(outbound.end, *ends.tolist())

    w = graph.new_virtual(v.period)
    gap = inbound.closing - outbound.order_up_to
    step = AugmentationStep(node=v, new_node=w, gap=gap, redirected_from=inbound.u)

    graph.remove_arc(inbound)
    graph.add_arc(replace(inbound, v=w))

    # any other inbound carrying the same cycle span from the same start pairs
    # with this node's options identically but at equal or higher cost; the
    # fresh copy's arcs supersede it, so drop it rather than split it later
    for other in graph.in_arcs(v):
        if (
            other.start == inbound.start
            and other.end == inbound.end
            and other.cost >= inbound.cost - 1e-12
        ):
            graph.remove_arc(other)

    for x in range(v.period + 1, graph.horizon + 2):
        node = NodeId(x)
        if not graph.has_node(node):
            continue
        if x <= j + 1:
            graph.add_arc(_span_arc(matrix, w, node, "recomputed", inbound.start, x - 1, absorbed))
            step.recomputed_targets.append(x)
        else:
            graph.add_arc(_span_arc(matrix, w, node, "duplicated", v.period, x - 1))
            step.duplicated_targets.append(x)

    graph.cleanup_isolated()
    return step


def repetitive_augment(graph: ReplenishmentGraph) -> Tuple[PathSolution, List[AugmentationStep]]:
    """Re-solve and repair until the shortest path carries no violations;
    returns the path and the splits made.

    Processes the earliest violation of each path and re-runs the shortest
    path search after every split, so an upstream pairing broken by a merge
    surfaces on the next round. Raises :class:`NonTerminationError` after
    ``SPLITS_PER_PERIOD`` * horizon splits.

    This is stage 2 of the repair, the paper's algorithm. Its plan is
    feasible but not always the cheapest feasible one; the solve takes its
    answer from :func:`lotpath.augment.reoptimise` (stage 3) instead.
    """
    cap = SPLITS_PER_PERIOD * graph.horizon
    steps: List[AugmentationStep] = []
    while True:
        path = shortest_path(graph)
        plan = path.plan
        violations = check_feasibility(plan)
        if not violations:
            return path, steps
        if len(steps) >= cap:
            cycles = path.cycles
            raise NonTerminationError(
                f"feasibility repair did not terminate within {cap} splits",
                diagnostics={
                    "iterations": len(steps),
                    "cap": cap,
                    "introduced_nodes": len(steps),
                    "node_count": len(graph.nodes),
                    "arc_count": graph.arc_count,
                    "outstanding_violations": [
                        f"node {cycles[k - 1].v}: carried {plan.closings[k - 1]:.4f} exceeds "
                        f"order-up-to {plan.levels[k]:.4f} "
                        f"(gap {plan.closings[k - 1] - plan.levels[k]:.4f})"
                        for k in violations
                    ],
                },
            )
        steps.append(augment_once(graph, path, violations[0]))
