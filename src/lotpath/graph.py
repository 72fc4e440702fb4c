"""Replenishment-cycle graph: construction, redundancy filter, shortest path.

Nodes 1..T+1 mark period starts (node T+1 is the sink). Arc (i, j) carries
the optimised cycle covering periods i..j-1, so every 1 -> T+1 path is a
review schedule partitioning the horizon and Dijkstra returns the minimum
total expected cost schedule when order quantities are unrestricted in sign.

Feasibility repair (see :mod:`lotpath.augment`) later adds virtual copies of
nodes. A virtual node always has exactly one inbound arc. Arcs come in three
kinds:

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

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .cycles import ConnectionMatrix
from .errors import LotpathError

__all__ = [
    "NodeId",
    "CycleInfo",
    "Arc",
    "PathSolution",
    "ReplenishmentGraph",
    "build_graph",
    "filter_arcs",
    "shortest_path",
    "graph_dump",
]

FILTER_TOL = 1e-9


@dataclass(frozen=True, order=True)
class NodeId:
    """Graph node: a period plus a copy counter (0 for the original node)."""

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

    def copy(self) -> "ReplenishmentGraph":
        g = ReplenishmentGraph(self.horizon, self.matrix)
        for node in self._out:
            g.add_node(node)
        g._copies = dict(self._copies)
        for node in self._out:
            for arc in self._out[node].values():
                g.add_arc(arc)
        return g

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
    """Complete cycle graph: one arc (i, j+1) per matrix entry (i, j)."""
    T = matrix.horizon
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


def filter_arcs(graph: ReplenishmentGraph, tol: float = FILTER_TOL) -> ReplenishmentGraph:
    """Drop arcs that a chain of shorter arcs covers at no extra cost.

    Arc (a, b) is redundant when the shortest a -> b distance over arcs of
    strictly smaller span does not exceed its own cost. Runs in O(T^3) by
    optimality of sub-paths, mutates the graph in place and returns it.
    Intended for the freshly built graph (period nodes only); never changes
    the shortest-path cost.
    """
    T1 = graph.horizon + 1
    INF = float("inf")
    dist = [[INF] * (T1 + 1) for _ in range(T1 + 1)]
    doomed: List[Arc] = []
    for span in range(1, T1):
        for a in range(1, T1 - span + 1):
            b = a + span
            arc = graph.get_arc(NodeId(a), NodeId(b))
            direct = arc.cycle.cost if arc is not None else INF
            via = min(
                (dist[a][m] + dist[m][b] for m in range(a + 1, b)),
                default=INF,
            )
            dist[a][b] = min(direct, via)
            if arc is not None and via <= direct + tol:
                doomed.append(arc)
    for arc in doomed:
        graph.remove_arc(arc)
    return graph


def shortest_path(graph: ReplenishmentGraph) -> PathSolution:
    """Dijkstra from node 1 to the sink over effective arc weights.

    Ties on distance break toward the lexicographically smaller predecessor
    node, which keeps reported paths deterministic.
    """
    dist: Dict[NodeId, float] = {graph.source: 0.0}
    pred: Dict[NodeId, Arc] = {}
    done = set()
    heap: List[Tuple[float, Tuple[int, int], NodeId]] = [
        (0.0, (graph.source.period, graph.source.copy), graph.source)
    ]
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == graph.sink:
            break
        for arc in graph.out_arcs(u):
            w = graph.effective_cost(arc)
            if w < -FILTER_TOL:
                raise LotpathError(f"negative traversal weight on {arc}")
            nd = d + w
            v = arc.v
            old = dist.get(v)
            if old is None or nd < old:
                dist[v] = nd
                pred[v] = arc
                heapq.heappush(heap, (nd, (v.period, v.copy), v))
            elif nd == old and v in pred:
                cur = pred[v]
                if (arc.u.period, arc.u.copy) < (cur.u.period, cur.u.copy):
                    pred[v] = arc
    if graph.sink not in done:
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


def shortest_path_bellman(graph: ReplenishmentGraph) -> float:
    """Distance to the sink by dynamic programming in period order.

    Independent cross-check of the Dijkstra result: every arc strictly
    increases the period, so scanning nodes by period is a topological order.
    """
    INF = float("inf")
    dist = {n: INF for n in graph.nodes}
    dist[graph.source] = 0.0
    for u in sorted(graph.nodes, key=lambda n: (n.period, n.copy)):
        if dist[u] == INF:
            continue
        for arc in graph.out_arcs(u):
            nd = dist[u] + graph.effective_cost(arc)
            if nd < dist[arc.v]:
                dist[arc.v] = nd
    return dist[graph.sink]


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
