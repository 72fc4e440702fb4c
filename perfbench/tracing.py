"""Span recording around the lotpath layers, installed from outside the package.

Each lotpath module imports its collaborators with ``from .x import y``, so a
call made inside ``solver`` or ``augment`` looks the name up in the caller's
own namespace.  The wrappers are therefore installed on those caller modules
(``lotpath.solver.shortest_path``, ``lotpath.augment.shortest_path`` ...),
not on the module that defines the function.  Names a later version of the
package no longer has are skipped, so the layers they stood for read zero.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# (caller module, attribute, span name)
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("lotpath.solver", "build_connection_matrix", "cycles.matrix"),
    ("lotpath.solver", "build_graph", "graph.build"),
    ("lotpath.solver", "filter_arcs", "graph.filter"),
    ("lotpath.solver", "shortest_path", "graph.search"),
    ("lotpath.solver", "check_feasibility", "augment.check"),
    ("lotpath.solver", "repetitive_augment", "augment.repair"),
    ("lotpath.augment", "shortest_path", "graph.search"),
    ("lotpath.augment", "check_feasibility", "augment.check"),
    ("lotpath.augment", "augment_once", "augment.split"),
)


def _counts(name: str, args: tuple, result) -> Dict[str, int]:
    """Work counters read off a layer call's arguments and result."""
    if name == "cycles.matrix":
        return {"spans": len(result)}
    if name == "graph.build":
        return {"arcs": result.arc_count}
    if name == "graph.filter":
        return {"arcs": args[0].arc_count}
    if name == "augment.repair":
        graph = args[0]
        return {"nodes": len(graph.nodes), "arcs": graph.arc_count}
    if name.startswith("simulate."):
        return {"reps": result.n_reps}
    return {}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, Callable]] = []
        self.patched: List[str] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
        span.counts = _counts(name, args, result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every wrapped name that exists; ``patched`` lists them."""
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
            self.patched.append(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the union of its direct children's intervals."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.duration - covered
        return out

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None]

    def descendants(self, root: Span) -> List[Span]:
        """``root`` and every span below it (spans are stored in start order)."""
        inside = {root.id}
        out = [root]
        for s in self.spans[root.id + 1 :]:
            if s.parent is None:
                break
            if s.parent in inside:
                inside.add(s.id)
                out.append(s)
        return out

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer totals over every recorded span.

        Times are summed durations (``repair_self_s`` and ``self_s`` are
        self times); counts are summed, except ``nodes_final`` and
        ``arcs_final``, which are means over repair calls.
        """
        self_t = self.self_times()
        dur: Dict[str, float] = {}
        own: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        totals: Dict[Tuple[str, str], int] = {}
        for s in self.spans:
            dur[s.name] = dur.get(s.name, 0.0) + s.duration
            own[s.name] = own.get(s.name, 0.0) + self_t[s.id]
            calls[s.name] = calls.get(s.name, 0) + 1
            for k, v in s.counts.items():
                totals[(s.name, k)] = totals.get((s.name, k), 0) + v
        discarded = repaired = 0
        for root in self.roots():
            if root.name != "solver.solve":
                continue
            names = [s.name for s in self.descendants(root)]
            discarded += names.count("graph.build") >= 2 and "graph.filter" in names
            repaired += "augment.split" in names
        repairs = calls.get("augment.repair", 0)
        matrix_s = dur.get("cycles.matrix", 0.0)
        spans = totals.get(("cycles.matrix", "spans"), 0)
        return {
            "cycles.matrix_s": matrix_s,
            "cycles.spans": spans,
            "cycles.spans_per_s": spans / matrix_s if matrix_s > 0 else 0.0,
            "graph.build_s": dur.get("graph.build", 0.0),
            "graph.builds": calls.get("graph.build", 0),
            "graph.filter_s": dur.get("graph.filter", 0.0),
            "graph.arcs_built": totals.get(("graph.build", "arcs"), 0),
            "graph.arcs_kept": totals.get(("graph.filter", "arcs"), 0),
            "graph.filter_discarded": discarded,
            "graph.search_s": dur.get("graph.search", 0.0),
            "graph.searches": calls.get("graph.search", 0),
            "augment.repair_s": dur.get("augment.repair", 0.0),
            "augment.repair_self_s": own.get("augment.repair", 0.0),
            "augment.split_s": dur.get("augment.split", 0.0),
            "augment.splits": calls.get("augment.split", 0),
            "augment.check_s": dur.get("augment.check", 0.0),
            "augment.repaired": repaired,
            "augment.nodes_final": totals.get(("augment.repair", "nodes"), 0) / repairs if repairs else 0.0,
            "augment.arcs_final": totals.get(("augment.repair", "arcs"), 0) / repairs if repairs else 0.0,
            "solver.solve_s": dur.get("solver.solve", 0.0),
            "solver.self_s": own.get("solver.solve", 0.0),
            "simulate.setpoint_s": dur.get("simulate.setpoint", 0.0),
            "simulate.clipped_s": dur.get("simulate.clipped", 0.0),
            "simulate.reps": totals.get(("simulate.setpoint", "reps"), 0)
            + totals.get(("simulate.clipped", "reps"), 0),
        }

    def accounting_gap(self) -> float:
        """Largest share of a root span's time its spans' self times miss."""
        self_t = self.self_times()
        worst = 0.0
        for root in self.roots():
            covered = sum(self_t[s.id] for s in self.descendants(root))
            if root.duration > 0:
                worst = max(worst, abs(covered - root.duration) / root.duration)
        return worst

    def to_json(self) -> List[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "counts": s.counts,
            }
            for s in self.spans
        ]
