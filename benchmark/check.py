"""Reference answers and the correctness gate.

Everything here runs outside the timed region and against the unwrapped
predicate, so neither the clock nor the oracle count sees it.

A query fails when its status disagrees with reference reachability, when
it hits the iteration budget, when its path fails verification, or when
its path repeats a cell.  Of those, a returned path that does not verify,
a success on an unreachable pair and an exact-mode "no path" on a
reachable pair are wrong answers: they make the run incorrect.  Budget
hits and repeating paths are bounded, valid outcomes that still count as
failures.  A map-free "no path" on a reachable pair is a failure the
paper's sampling bound allows, so it is counted, not treated as wrong.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from mspp import build_from_grid, uniform_astar, verify_path, verify_path_sampled
from mspp.search import BUDGET_EXCEEDED, SUCCESS, PlanResult

from workloads import Query, component_labels, connected


# Obstacle threshold of every query: PlannerSession's default.
EPS = 0.5


@dataclass
class Reference:
    """Reachability of one query and, when reachable, uniform A*'s answer."""

    reachable: bool
    steps: int | None = None
    seconds: float = 0.0
    expanded: int = 0


def references(queries: list[Query]) -> list[Reference]:
    """Reference answers; uniform A* runs only where the pair is connected.

    Labels decide reachability (a flood fill, so unreachable pairs cost
    one pass instead of an A* over a whole component); uniform A* gives the
    optimal step count of every reachable pair and must agree.
    """
    labels_of = {}
    out = []
    for q in queries:
        labels = labels_of.get(id(q.grid))
        if labels is None:
            labels = labels_of[id(q.grid)] = component_labels(q.grid)
        if not connected(q, labels):
            out.append(Reference(False))
            continue
        began = time.perf_counter()
        base = uniform_astar(q.grid, q.start_cell(), q.goal_cell())
        seconds = time.perf_counter() - began
        if not base.reachable:
            raise RuntimeError(f"uniform_astar disagrees with the flood fill on {q}")
        out.append(Reference(True, len(base.path) - 1, seconds, base.expanded))
    return out


def polyline_length(path) -> float:
    """Centre-to-centre Euclidean length of a node path, in unit cells."""
    return sum(0.5 * math.dist(u.center2, v.center2) for u, v in zip(path, path[1:]))


@dataclass
class Verdict:
    """Gate outcome of one query; length is set on passing successes only."""

    failed: bool = False
    wrong: bool = False
    reason: str | None = None
    length: float | None = None


class Gate:
    """Checks results against references; builds check trees on demand."""

    def __init__(self, queries: list[Query], refs: list[Reference], trees=()):
        self.queries = queries
        self.refs = refs
        self.trees = trees

    def _verify(self, q: Query, path) -> tuple[bool, str | None]:
        if q.predicate is not None:
            return verify_path_sampled(q.predicate, path, q.depth, q.start, q.goal)
        tree = build_from_grid(q.grid) if q.shared is None else self.trees[q.shared]
        return verify_path(tree, path, EPS, q.start, q.goal)

    def check(self, i: int, result: PlanResult) -> Verdict:
        q, ref = self.queries[i], self.refs[i]
        if result.status == BUDGET_EXCEEDED:
            return Verdict(True, False, "budget_exceeded")
        if result.status != SUCCESS:
            if ref.reachable:
                return Verdict(True, q.predicate is None, f"{result.status} on a reachable pair")
            return Verdict()
        if not ref.reachable:
            return Verdict(True, True, "success on an unreachable pair")
        ok, why = self._verify(q, result.path)
        if not ok:
            return Verdict(True, True, f"path fails verification: {why}")
        if len(set(result.path)) != len(result.path):
            return Verdict(True, False, "path repeats a cell")
        return Verdict(length=polyline_length(result.path))

    def path_len_ratio(self, verdicts: list[Verdict]) -> float:
        """mspp polyline length over uniform A* steps, on pairs both solve.

        Solving means passing the gate.  A looping path is a failed query,
        counted as such, and is left out here: one such path can be ten
        times the optimum and would make the ratio a count of loops rather
        than a measure of path quality.
        """
        num = den = 0.0
        for v, ref in zip(verdicts, self.refs):
            if v.length is not None:
                num += v.length
                den += ref.steps
        if den == 0:
            raise RuntimeError("no query was solved by both planners")
        return num / den


def same_result(a: PlanResult, b: PlanResult) -> bool:
    """Equal outcome, path, iteration count and search counters."""
    return (
        a.status == b.status
        and a.path == b.path
        and a.iterations == b.iterations
        and a.blocked == b.blocked
        and a.stats == b.stats
    )
