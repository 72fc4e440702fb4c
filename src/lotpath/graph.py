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

:func:`repetitive_augment` repairs a path that expects a negative order
(:func:`path_violations`) by splitting the offending node i into a virtual
copy i':

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .augment import FEAS_TOL, check_feasibility
from .cycles import ConnectionMatrix, Plan
from .errors import LotpathError, NonTerminationError

__all__ = [
    "NodeId",
    "CycleInfo",
    "Arc",
    "PathSolution",
    "ReplenishmentGraph",
    "build_graph",
    "shortest_path",
    "graph_dump",
    "EffectiveCycle",
    "effective_cycles",
    "FeasibilityViolation",
    "path_violations",
    "AugmentationStep",
    "AugmentationTrace",
    "augment_once",
    "repetitive_augment",
]

#: most negative traversal weight the search accepts as rounding noise
NEGATIVE_WEIGHT_TOL = 1e-9


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
class CycleInfo:
    """Cycle payload attached to an arc.

    ``start..end`` are the covered periods, ``absorbed`` lists periods whose
    review survives as a zero-quantity review inside a merged cycle (each
    contributes one K to ``cost``).
    """

    start: int
    end: int
    order_up_to: float
    closing: float
    cost: float
    absorbed: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Arc:
    u: NodeId
    v: NodeId
    kind: str  # normal | duplicated | recomputed
    cycle: CycleInfo

    @property
    def cost(self) -> float:
        return self.cycle.cost

    def __str__(self):
        return f"({self.u},{self.v})[{self.kind} c={self.cycle.cost:.4f} S={self.cycle.order_up_to:.4f}]"


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


class ReplenishmentGraph:
    """Directed acyclic graph over period nodes with cycle-cost arcs."""

    def __init__(self, horizon: int, matrix: Optional[ConnectionMatrix] = None):
        self.horizon = horizon
        self.matrix = matrix
        self.source = NodeId(1)
        self.sink = NodeId(horizon + 1)
        self._out: Dict[NodeId, Dict[NodeId, Arc]] = {}
        self._in: Dict[NodeId, Dict[NodeId, Arc]] = {}
        self._copies: Dict[int, int] = {}
        for p in range(1, horizon + 2):
            self.add_node(NodeId(p))

    # -- structure ---------------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        self._out.setdefault(node, {})
        self._in.setdefault(node, {})

    def new_virtual(self, period: int) -> NodeId:
        self._copies[period] = self._copies.get(period, 0) + 1
        node = NodeId(period, self._copies[period])
        self.add_node(node)
        return node

    def has_node(self, node: NodeId) -> bool:
        return node in self._out

    @property
    def nodes(self) -> List[NodeId]:
        return sorted(self._out)

    def add_arc(self, arc: Arc) -> None:
        if arc.u not in self._out or arc.v not in self._out:
            raise LotpathError(f"arc {arc} references a missing node")
        self._out[arc.u][arc.v] = arc
        self._in[arc.v][arc.u] = arc

    def remove_arc(self, arc: Arc) -> None:
        del self._out[arc.u][arc.v]
        del self._in[arc.v][arc.u]

    def remove_node(self, node: NodeId) -> None:
        for arc in list(self._out[node].values()):
            self.remove_arc(arc)
        for arc in list(self._in[node].values()):
            self.remove_arc(arc)
        del self._out[node]
        del self._in[node]

    def out_arcs(self, node: NodeId) -> List[Arc]:
        return list(self._out[node].values())

    def in_arcs(self, node: NodeId) -> List[Arc]:
        return list(self._in[node].values())

    def get_arc(self, u: NodeId, v: NodeId) -> Optional[Arc]:
        return self._out.get(u, {}).get(v)

    def arcs(self) -> Iterable[Arc]:
        for node in sorted(self._out):
            for v in sorted(self._out[node]):
                yield self._out[node][v]

    @property
    def arc_count(self) -> int:
        return sum(len(d) for d in self._out.values())

    @property
    def virtual_nodes(self) -> List[NodeId]:
        return [n for n in sorted(self._out) if n.copy > 0]

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
            return arc.cycle.cost - self.single_inbound(arc.u).cycle.cost
        return arc.cycle.cost

    def cleanup_isolated(self) -> List[NodeId]:
        """Cascade-remove nodes that lost all inbound arcs (except the source)."""
        removed = []
        while True:
            dead = [
                n for n in self._out
                if n != self.source and not self._in[n] and n != self.sink
            ]
            if not dead:
                return removed
            for n in dead:
                self.remove_node(n)
                removed.append(n)


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
    level, closing, cost = matrix.level.tolist(), matrix.closing.tolist(), matrix.cost.tolist()
    for i in range(1, T + 1):
        for j in range(i, T + 1):
            info = CycleInfo(
                start=i, end=j,
                order_up_to=level[i - 1][j - 1],
                closing=closing[i - 1][j - 1],
                cost=cost[i - 1][j - 1],
            )
            g.add_arc(Arc(NodeId(i), NodeId(j + 1), "normal", info))
    return g


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
        c = arc.cycle
        lines.append(
            f"{arc.u},{arc.v},{arc.kind},{c.cost:.6f},{c.order_up_to:.6f},{c.closing:.6f}"
        )
    return "\n".join(lines) + "\n"

# ---------------------------------------------------------------------------
# stage 2: the split-and-re-solve loop


@dataclass(frozen=True)
class EffectiveCycle:
    """One replenishment cycle as realised by a path.

    A recomputed arc supersedes the redirect arc feeding its origin node, so
    a cycle may span several consecutive path arcs; ``cycle`` is always the
    payload that actually prices the covered periods.
    """

    cycle: CycleInfo
    arcs: Tuple[Arc, ...]

    @property
    def review_node(self) -> NodeId:
        return self.arcs[0].u


def effective_cycles(path: PathSolution) -> List[EffectiveCycle]:
    """Collapse a path's arc list into its realised cycle sequence."""
    out: List[EffectiveCycle] = []
    for arc in path.arcs:
        if arc.kind == "recomputed":
            if not out or out[-1].arcs[-1].v != arc.u:
                raise LotpathError(f"recomputed arc {arc} has no inbound cycle on the path")
            prev = out[-1]
            out[-1] = EffectiveCycle(cycle=arc.cycle, arcs=prev.arcs + (arc,))
        else:
            out.append(EffectiveCycle(cycle=arc.cycle, arcs=(arc,)))
    return out


@dataclass(frozen=True)
class FeasibilityViolation:
    """Expected inventory entering a review exceeds its order-up-to level."""

    node: NodeId            # node whose review cannot absorb the carried stock
    inbound: Arc            # last arc of the preceding cycle (carries closing)
    outbound: Arc           # first arc of the violated cycle
    closing: float
    order_up_to: float
    gap: float
    effective_end: int      # last period of the violated cycle as realised
    pair_index: int         # position in the effective-cycle sequence

    def __str__(self):
        return (
            f"node {self.node}: carried {self.closing:.4f} exceeds "
            f"order-up-to {self.order_up_to:.4f} (gap {self.gap:.4f})"
        )


def path_violations(path: PathSolution) -> List[FeasibilityViolation]:
    """All negative-expected-order pairings along the path, in path order:
    :func:`lotpath.augment.check_feasibility` on its realised cycles."""
    cycles = effective_cycles(path)
    plan = Plan(
        spans=tuple((c.cycle.start - 1, c.cycle.end - 1) for c in cycles),
        levels=tuple(c.cycle.order_up_to for c in cycles),
        closings=tuple(c.cycle.closing for c in cycles),
        costs=tuple(c.cycle.cost for c in cycles),
    )
    violations = []
    for idx in check_feasibility(plan):
        prev, cur = cycles[idx - 1], cycles[idx]
        violations.append(
            FeasibilityViolation(
                node=cur.review_node,
                inbound=prev.arcs[-1],
                outbound=cur.arcs[0],
                closing=prev.cycle.closing,
                order_up_to=cur.cycle.order_up_to,
                gap=prev.cycle.closing - cur.cycle.order_up_to,
                effective_end=cur.cycle.end,
                pair_index=idx,
            )
        )
    return violations


@dataclass
class AugmentationStep:
    """Record of one node split."""

    node: NodeId
    new_node: NodeId
    gap: float
    redirected_from: NodeId
    recomputed_targets: List[int] = field(default_factory=list)
    duplicated_targets: List[int] = field(default_factory=list)


@dataclass
class AugmentationTrace:
    steps: List[AugmentationStep]

    @property
    def introduced_nodes(self) -> int:
        return len(self.steps)


def augment_once(graph: ReplenishmentGraph, violation: FeasibilityViolation) -> AugmentationStep:
    """Split ``violation.node`` and rewire its options as described above.

    Raises ``LotpathError`` if the violation no longer matches the graph
    (both its arcs must still be present).
    """
    v = violation.node
    inbound = violation.inbound
    if graph.get_arc(inbound.u, inbound.v) is not inbound:
        raise LotpathError(f"stale violation: inbound arc {inbound} is gone")
    if graph.get_arc(violation.outbound.u, violation.outbound.v) is not violation.outbound:
        raise LotpathError(f"stale violation: outbound arc {violation.outbound} is gone")
    matrix = graph.matrix
    if matrix is None:
        raise LotpathError("graph carries no connection matrix; cannot augment")

    start = inbound.cycle.start
    absorbed = inbound.cycle.absorbed + (v.period,)
    closing = inbound.cycle.closing
    K = matrix.instance.K

    # furthest span starting here whose level the carried stock still exceeds;
    # every such span becomes a merged cycle, never a duplicate that would
    # violate the same pairing. The matrix row holds every span, including
    # those whose arcs earlier splits removed from node v.
    row = v.period - 1
    ends = v.period + np.flatnonzero(matrix.level[row, row:] < closing - FEAS_TOL)
    j = max(violation.effective_end, *ends.tolist())

    w = graph.new_virtual(v.period)
    step = AugmentationStep(node=v, new_node=w, gap=violation.gap, redirected_from=inbound.u)

    graph.remove_arc(inbound)
    graph.add_arc(Arc(inbound.u, w, inbound.kind, inbound.cycle))

    # any other inbound carrying the same cycle span from the same start pairs
    # with this node's options identically but at equal or higher cost; the
    # fresh copy's arcs supersede it, so drop it rather than split it later
    for other in graph.in_arcs(v):
        oc = other.cycle
        if (
            oc.start == inbound.cycle.start
            and oc.end == inbound.cycle.end
            and oc.cost >= inbound.cycle.cost - 1e-12
        ):
            graph.remove_arc(other)

    for k in range(v.period + 1, j + 2):
        if not graph.has_node(NodeId(k)):
            continue
        info = CycleInfo(
            start=start,
            end=k - 1,
            order_up_to=float(matrix.level[start - 1, k - 2]),
            closing=float(matrix.closing[start - 1, k - 2]),
            cost=float(matrix.cost[start - 1, k - 2]) + K * len(absorbed),
            absorbed=absorbed,
        )
        graph.add_arc(Arc(w, NodeId(k), "recomputed", info))
        step.recomputed_targets.append(k)

    for x in range(j + 2, graph.horizon + 2):
        if not graph.has_node(NodeId(x)):
            continue
        info = CycleInfo(
            start=v.period,
            end=x - 1,
            order_up_to=float(matrix.level[row, x - 2]),
            closing=float(matrix.closing[row, x - 2]),
            cost=float(matrix.cost[row, x - 2]),
        )
        graph.add_arc(Arc(w, NodeId(x), "duplicated", info))
        step.duplicated_targets.append(x)

    graph.cleanup_isolated()
    return step


def repetitive_augment(
    graph: ReplenishmentGraph, max_iterations: Optional[int] = None
) -> Tuple[PathSolution, AugmentationTrace]:
    """Re-solve and repair until the shortest path carries no violations.

    Processes the earliest violation of each path and re-runs the shortest
    path search after every split, so an upstream pairing broken by a merge
    surfaces on the next round. Raises :class:`NonTerminationError` after
    ``max_iterations`` splits (default 10 * horizon).

    This is stage 2 of the repair, the paper's algorithm. Its plan is
    feasible but not always the cheapest feasible one; the solve takes its
    answer from :func:`lotpath.augment.reoptimise` (stage 3) instead.
    """
    cap = max_iterations if max_iterations is not None else 10 * graph.horizon
    steps: List[AugmentationStep] = []
    while True:
        path = shortest_path(graph)
        violations = path_violations(path)
        if not violations:
            return path, AugmentationTrace(steps=steps)
        if len(steps) >= cap:
            raise NonTerminationError(
                f"feasibility repair did not terminate within {cap} splits",
                diagnostics={
                    "iterations": len(steps),
                    "cap": cap,
                    "introduced_nodes": len(steps),
                    "node_count": len(graph.nodes),
                    "arc_count": graph.arc_count,
                    "outstanding_violations": [str(v) for v in violations],
                },
            )
        steps.append(augment_once(graph, violations[0]))
