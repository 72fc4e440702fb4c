"""Replenishment-cycle graph: construction, shortest path, CSV dump.

Nodes 1..T+1 mark period starts (node T+1 is the sink). Arc (i, j) carries
the optimised cycle covering periods i..j-1, so every 1 -> T+1 path is a
review schedule partitioning the horizon. Every arc raises the period, so
one pass over the nodes in period order (the Wagner-Whitin recursion) finds
the minimum total expected cost schedule when order quantities are
unrestricted in sign.

The graph is the structure of the paper's split-and-re-solve loop
(:func:`lotpath.augment.repetitive_augment`), which the solve does not run.
The solve builds no graph: :func:`lotpath.augment.relaxed_path` finds the
same relaxed path over the matrix arrays, and the tests keep
:func:`shortest_path` on the complete graph as its reference.

The split loop adds virtual copies of nodes. A virtual node always has
exactly one inbound arc. Arcs come in three kinds:

* ``normal``: a cycle from the connection matrix (includes inbound arcs that
  were re-targeted to a virtual node, payload unchanged);
* ``duplicated``: a matrix cycle copied onto a virtual node's outbound side;
* ``recomputed``: a merged cycle replacing the inbound cycle of its origin
  node. Its ``cost`` is the full merged-cycle cost (n zero-quantity reviews
  pay n extra K), so when a path traverses it, the inbound arc it replaces
  must not be charged again: the traversal weight of a recomputed arc is
  ``cost`` minus the cost of its origin's single inbound arc.

The re-optimising stage returns its plan as a path of a fourth kind,
``reoptimised``: plain cycles whose levels may sit off their matrix values.
Those arcs, and the ``normal`` arcs of :func:`lotpath.augment.relaxed_path`,
belong to no graph.

The graph stores each arc's traversal weight when the arc is added. A
recomputed arc's weight depends on its origin's single inbound arc, which is
added before it and never replaced while the origin lives: splitting the
origin removes that arc, and :meth:`ReplenishmentGraph.cleanup_isolated` then
deletes the origin with its outbound arcs.

The graph also keeps the search's labels (distance and predecessor arc of
each node) and the earliest period whose inbound arcs changed since the last
search. Labels of earlier nodes depend only on arcs into earlier periods, so
:func:`shortest_path` resumes at that period: after a split it re-computes
only the nodes at or after the split node, and on an unchanged graph it does
no work.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .cycles import ConnectionMatrix
from .errors import LotpathError

__all__ = [
    "NodeId",
    "CycleInfo",
    "Arc",
    "PathSolution",
    "ReplenishmentGraph",
    "build_graph",
    "shortest_path",
    "graph_dump",
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
    kind: str  # normal | duplicated | recomputed | reoptimised
    cycle: CycleInfo
    anchor: Optional[NodeId] = None  # recomputed arcs: node whose inbound cycle was merged

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
        self._weight: Dict[NodeId, Dict[NodeId, float]] = {}  # head -> tail -> weight
        self._copies: Dict[int, int] = {}
        #: inbound arcs the search has examined, over all its passes
        self.arcs_relaxed = 0
        self._forget_labels()
        for p in range(1, horizon + 2):
            self.add_node(NodeId(p))

    # -- structure ---------------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        self._out.setdefault(node, {})
        self._in.setdefault(node, {})
        self._weight.setdefault(node, {})

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
        weight = self.effective_cost(arc)
        self._out[arc.u][arc.v] = arc
        self._in[arc.v][arc.u] = arc
        self._weight[arc.v][arc.u] = weight
        self._touch(arc.v.period)

    def remove_arc(self, arc: Arc) -> None:
        del self._out[arc.u][arc.v]
        del self._in[arc.v][arc.u]
        del self._weight[arc.v][arc.u]
        self._touch(arc.v.period)

    def remove_node(self, node: NodeId) -> None:
        for arc in list(self._out[node].values()):
            self.remove_arc(arc)
        for arc in list(self._in[node].values()):
            self.remove_arc(arc)
        del self._out[node]
        del self._in[node]
        del self._weight[node]
        self._dist.pop(node, None)
        self._pred.pop(node, None)

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
        """Traversal weight: recomputed arcs absorb their origin's inbound cycle.

        Computed from the live graph. :meth:`add_arc` stores this value, and
        the search reads the stored one.
        """
        if arc.kind == "recomputed":
            return arc.cycle.cost - self.single_inbound(arc.u).cycle.cost
        return arc.cycle.cost

    # -- search labels -------------------------------------------------------

    def _forget_labels(self) -> None:
        """Drop every label but the source's; the next search is a full pass."""
        self._dist: Dict[NodeId, float] = {self.source: 0.0}
        self._pred: Dict[NodeId, Arc] = {}
        self._dirty: Optional[int] = self.source.period + 1

    def _touch(self, period: int) -> None:
        """Mark the labels of nodes from ``period`` on as stale."""
        if self._dirty is None or period < self._dirty:
            self._dirty = period

    def _relax(self) -> None:
        """Re-compute the labels of every node at or after the dirty period.

        Nodes are visited in (period, copy) order and every arc raises the
        period, so each node's inbound tails are final when it is reached. A
        node takes the cheapest reachable tail's distance plus the arc's
        weight; among equal distances the smallest tail wins (the strict
        ``<`` of a push pass scanning tails in node order).
        """
        if self._dirty is None:
            return
        nodes = self.nodes
        dist, pred = self._dist, self._pred
        examined = 0
        for v in nodes[bisect_left(nodes, (self._dirty,)):]:
            weights = self._weight[v]
            examined += len(weights)
            best = best_u = None
            for u, w in weights.items():
                du = dist.get(u)
                if du is None:
                    continue
                if w < -NEGATIVE_WEIGHT_TOL:
                    raise LotpathError(f"negative traversal weight on {self._in[v][u]}")
                nd = du + w
                if best is None or nd < best or (nd == best and u < best_u):
                    best, best_u = nd, u
            if best is None:
                dist.pop(v, None)
                pred.pop(v, None)
            else:
                dist[v] = best
                pred[v] = self._in[v][best_u]
        self.arcs_relaxed += examined
        self._dirty = None

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
    """Cheapest source -> sink path over the stored traversal weights.

    Every arc raises the period, so one pass over the nodes in (period, copy)
    order is exact (the Wagner-Whitin recursion). The pass resumes at the
    earliest period whose inbound arcs changed since the previous search on
    ``graph``, so the search after a split re-computes only the nodes at or
    after the split period; the first search, and a search resumed at period
    2, is the full pass. Among equal-cost predecessors the smallest node
    wins, which keeps reported paths deterministic.

    Raises ``LotpathError`` on a negative traversal weight or an unreachable
    sink; the graph then keeps no labels, and the next search is a full pass.
    """
    try:
        graph._relax()
        if graph.sink not in graph._dist:
            raise LotpathError("sink unreachable; graph is corrupt")
    except LotpathError:
        graph._forget_labels()
        raise
    arcs: List[Arc] = []
    node = graph.sink
    while node != graph.source:
        arc = graph._pred[node]
        arcs.append(arc)
        node = arc.u
    arcs.reverse()
    nodes = [graph.source] + [a.v for a in arcs]
    return PathSolution(nodes=nodes, arcs=arcs, total_cost=graph._dist[graph.sink])


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
