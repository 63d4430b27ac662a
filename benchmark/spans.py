"""Layer spans recorded from outside the program, and the oracle counter.

instrument() replaces the public entry points of each mspp layer with
wrappers that record a span per call, and restores the originals on exit.
The wrapped names are the ones the planner resolves at call time: the
mspp.search bindings of refresh, find_neighbors, astar_lazy and
grid_connected, the ValueEstimator, OccupancyTree, CellTracker and
PlannerSession methods, mspp.tree.build_from_grid, and mspp.reduced.RTNode,
which is swapped for a subclass that counts allocations.

A span records its name, start, end, parent span and query id.  Spans are
kept in flat arrays and written out once, at the end of the run.  Work
done only for the trace (counting view leaves) runs with the clock
paused, so it lands in no span.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

import mspp.reduced as mreduced
import mspp.search as msearch
import mspp.tree as mtree
from mspp import CellTracker, OccupancyTree, PlannerSession, ValueEstimator
from mspp.neighbors import collect_leaves

# Span names, grouped by the layer their self time is charged to.
LAYER_SPANS = {
    "tree": ("tree.build", "tree.connected", "tree.value"),
    "reduced": ("reduced.refresh", "reduced.cells"),
    "neighbors": ("neighbors.find",),
    "search": ("query", "search.init", "search.run", "search.astar"),
    "sampling": ("sampling.estimate", "sampling.exact"),
    "predicates": ("predicates.call", "predicates.batch"),
}
SPAN_NAMES = tuple(name for names in LAYER_SPANS.values() for name in names)


class CountingPredicate:
    """Scalar oracle wrapper counting the points it is asked about."""

    def __init__(self, predicate, tracer: "Tracer"):
        self._predicate = predicate
        self._tracer = tracer
        self.points = 0
        self.scalar_calls = 0
        self.batch_calls = 0

    def __call__(self, point):
        self.points += 1
        self.scalar_calls += 1
        i = self._tracer.open("predicates.call")
        try:
            return self._predicate(point)
        finally:
            self._tracer.close(i)


class CountingBatchPredicate(CountingPredicate):
    """CountingPredicate for oracles that also answer a batch of points."""

    def batch(self, points):
        self.points += len(points)
        self.batch_calls += 1
        i = self._tracer.open("predicates.batch")
        try:
            return self._predicate.batch(points)
        finally:
            self._tracer.close(i)


def counting(predicate, tracer: "Tracer") -> CountingPredicate:
    """Counting wrapper with a `batch` method exactly when the predicate has one.

    ValueEstimator picks its code path by the presence of `batch`, so the
    wrapper must not add or hide it.
    """
    if hasattr(predicate, "batch"):
        return CountingBatchPredicate(predicate, tracer)
    return CountingPredicate(predicate, tracer)


class Tracer:
    """In-memory span store with a clock that can be paused."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("b")
        self.parent = array("l")
        self.qid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.query = -1
        self.paused = 0.0
        # Work counters gathered at the span boundaries.
        self.counts = {
            "view_leaves": 0,
            "neighbor_leaves": 0,
            "rtnodes": 0,
            "fresh_nodes": 0,
            "tree_nodes": 0,
        }

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.ids[name])
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.qid.append(self.query)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def pause(self):
        began = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - began

    def span(self, name: str, fn):
        """fn wrapped so that every call records a span."""

        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "qid": np.frombuffer(self.qid, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, queries_only: bool) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of a query's spans add up to the
        duration of its root span.  queries_only drops spans recorded
        outside any query (query id -1), such as a set-up build.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_t = dur - child
        out = {}
        for name, i in self.ids.items():
            sel = a["name"] == i
            if queries_only:
                sel &= a["qid"] >= 0
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


_RTNode = mreduced.RTNode


class _CountingRTNode(_RTNode):
    __slots__ = ()
    tracer: Tracer | None = None

    def __init__(self, scale, center2, children=None):
        _CountingRTNode.tracer.counts["rtnodes"] += 1
        _RTNode.__init__(self, scale, center2, children)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block."""
    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    refresh = msearch.refresh

    def traced_refresh(rtree, *args, **kwargs):
        i = tracer.open("reduced.refresh")
        try:
            refresh(rtree, *args, **kwargs)
        finally:
            tracer.close(i)
        with tracer.pause():
            tracer.counts["view_leaves"] += len(collect_leaves(rtree.root, sort=False))

    build = mtree.build_from_grid

    def traced_build(world):
        i = tracer.open("tree.build")
        try:
            tree = build(world)
        finally:
            tracer.close(i)
        tracer.counts["tree_nodes"] += tree.node_count
        return tree

    find_neighbors = msearch.find_neighbors

    def traced_neighbors(root, node, depth):
        i = tracer.open("neighbors.find")
        try:
            out = find_neighbors(root, node, depth)
        finally:
            tracer.close(i)
        tracer.counts["neighbor_leaves"] += len(out)
        return out

    def fresh_counting(name, method):
        def wrapper(self, idx):
            before = len(self)
            i = tracer.open(name)
            try:
                return method(self, idx)
            finally:
                tracer.close(i)
                tracer.counts["fresh_nodes"] += len(self) - before

        return wrapper

    _CountingRTNode.tracer = tracer
    try:
        replace(msearch, "refresh", traced_refresh)
        replace(msearch, "find_neighbors", traced_neighbors)
        replace(msearch, "astar_lazy", tracer.span("search.astar", msearch.astar_lazy))
        replace(msearch, "grid_connected", tracer.span("tree.connected", msearch.grid_connected))
        replace(mtree, "build_from_grid", traced_build)
        replace(OccupancyTree, "value", tracer.span("tree.value", OccupancyTree.value))
        replace(CellTracker, "add", tracer.span("reduced.cells", CellTracker.add))
        replace(CellTracker, "discard", tracer.span("reduced.cells", CellTracker.discard))
        replace(PlannerSession, "__init__", tracer.span("search.init", PlannerSession.__init__))
        replace(PlannerSession, "run", tracer.span("search.run", PlannerSession.run))
        replace(ValueEstimator, "estimate",
                fresh_counting("sampling.estimate", ValueEstimator.estimate))
        replace(ValueEstimator, "exact", fresh_counting("sampling.exact", ValueEstimator.exact))
        replace(mreduced, "RTNode", _CountingRTNode)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        _CountingRTNode.tracer = None
