"""Multiscale planning loop and the lazy A* it runs each iteration.

The planner repeatedly refreshes the reduced view around its current cell
(the view decides its nodes lazily, as the search reaches them), searches
that view for a vertex path to the goal, and commits the found path's
leading fine hops before re-planning: the first hop, which the view makes
fine (every view leaf beside the focus is fine, see refresh), then every
following hop up to the first coarse node or the goal.  A fine node is a
stored map leaf, or map-free a unit cell or a block proven free: a node
the finished path may hold as it is.  A hop between fine nodes is
therefore an exact move, and only the cost-to-go past the first coarse
node is approximate.  When a search fails, the walk backtracks along its
own trail, one cell per failed search; the cell it leaves is blocked.

Every cell the walk enters stays visited: on the trail, or blocked once
the walk backs out of it.  Later views keep visited cells as leaves, and
the search never enters one.  A fine view leaf overlaps a visited cell
only by being it, so no committed hop lands on one: the trail is a simple
path, and the walk is a depth-first search whose finished set is the
blocked cells.  A cell leaves the trail only by being blocked, so a
(current, successor) pair is never committed twice.
Every iteration commits at least one hop or blocks a cell, and each
blocked cell was committed once, so the iterations number at most twice
the distinct commitments, which bounds them.

With the exact map at hand, whether the goal is reachable at all is
decidable: two component labels, which the tree computes once and keeps
(grid_connected).  An exact walk asks them only when it would first stop
short of the goal: at a failed search, before it backtracks, or when it
runs out of budget.  If they put the goal out of reach, the walk ends
no_path there; otherwise it goes on unchanged, and never asks again.  A
walk that reaches the goal without a dead end never labels the map.
Until its first failed search every iteration commits a hop, and the
trail is a simple path inside the start's component, so that search
comes within the component's size in iterations.  Without the labels the
walk would reach the same verdict by exhausting its alternatives, only
much slower: coarse nodes that are not full keep suggesting optimistic
routes, so the walk visits a large share of the free component before
its backtracking stack drains.

The A* is lazy in two ways matching the planner's cost structure: a
vertex's neighbors are computed only when it is popped from the open
queue, and occupancy values (map lookups in exact mode, cached sampling
estimates in map-free mode) are evaluated per vertex only when first
needed for a g-value.  A run keeps its per-vertex state on the view nodes
it reaches (see RTNode): the g-value, and a fresh stamp object marking
the nodes it has reached and closed, so the loop hashes no key to find
them, and a stamp left by an earlier run reads as unreached.  Only the
predecessors go in a dict of the run's own, keyed by node identity.

The search is guided by the L1 center distance to the goal leaf: a
route of face moves, which is what the walk commits, is as long as its
L1 displacement.  On a view whose leaves are all of one scale every hop
is such a move and costs at least its length, so L1 is consistent there,
and a search with nothing learned returns the view's cheapest path.  A
hop between nodes of different scales is shorter than its L1
displacement, so on a mixed-scale view L1 can overestimate.  The
Euclidean distance would not, but it is loose by up to sqrt(dim) on
every fine route, and a search guided by it pops most of the view off
the route.

A session's searches share what they learn (Adaptive A*, Koenig &
Likhachev 2005): each one that reaches the goal raises the cost-to-go
of the vertices it expanded, keyed by (scale, center2), and later
searches take the larger of that and the L1 distance as their
heuristic.  A far coarse node keeps its key from one view to the next,
so most of what a search learned carries over.  A finer view can open a
shorter route than the one a value was learned on, so a learned value
may overestimate too.  The walk does not rest on an admissible
heuristic: an A* with any finite one finds a path whenever the view
holds one, so the depth-first argument above holds unchanged.

Map-free, a view decides a node of at most `samples` cells (at or below
exact_scale_cutoff) the way it decides a map node, from the node's
enumeration: a full block is removed before the search reaches it, a
free block stays whole, and only a mixed block splits.  A larger node
splits unless the search has flagged it.  The search classifies the
sampled nodes it reaches: a flagged vertex reads the value inf and gets
the g-value inf, so it is counted as touched, but it never enters the
queue and is never expanded or routed through.

The search reads values from a mapping keyed by (scale, center2) that
must answer for every vertex it reaches.  A session hands it its own
memo, which computes each node's value on first lookup and keeps it for
the rest of the session, so every such fact is computed once per
session.  The memo is also the one record of which nodes are flagged,
and the estimator's cache the one record of each node's enumeration: the
session's views and its commit test read both live, through one per-node
state source.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from math import inf, sqrt
from operator import sub

import numpy as np

from .neighbors import are_neighbors, find_containing, find_neighbors
from .predicates import batch_of
from .reduced import CellTracker, ReducedTree, RTNode, refresh
from .sampling import ValueEstimator, check_samples
from .tree import (
    MAX_DEPTH,
    NodeIndex,
    OccupancyTree,
    grid_connected,
    valid_index,
)

__all__ = [
    "BUDGET_EXCEEDED",
    "GOAL_BLOCKED",
    "NO_PATH",
    "PlanResult",
    "PlannerSession",
    "START_BLOCKED",
    "SUCCESS",
    "SearchStats",
    "astar_lazy",
    "verify_path",
    "verify_path_sampled",
]

SUCCESS = "success"
NO_PATH = "no_path"
START_BLOCKED = "start_blocked"
GOAL_BLOCKED = "goal_blocked"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass
class SearchStats:
    """Work counters for one or more A* runs.

    pops counts unique vertex expansions, each of which computes the
    popped vertex's neighbors once; lazy-deletion duplicates and the final
    goal pop are not expansions.
    touched is the number of vertices ever given a g-value (open or
    closed).  new_samples counts, map-free, the node values the runs
    computed: the fills of the session's value memo, one per node and
    session (0 in exact mode).  The view's own decisions fill no memo
    entry, so it reads the same however much of each view is resolved.
    """

    pops: int = 0
    touched: int = 0
    new_samples: int = 0

    def add(self, other: "SearchStats") -> None:
        self.pops += other.pops
        self.touched += other.touched
        self.new_samples += other.new_samples


def node_contains(idx: NodeIndex, point, depth: int) -> bool:
    """Half-open cube membership, closed on the world's upper boundary."""
    half = 1 << idx.scale
    top = 2 << depth
    for c, x in zip(idx.center2, point):
        x2 = 2.0 * x
        hi = c + half
        if not (c - half <= x2 < hi or (hi == top and x2 == hi)):
            return False
    return True


def astar_lazy(
    rtree: ReducedTree,
    start: RTNode,
    goal: RTNode,
    weight: float,
    values,
    excluded=frozenset(),
    stats: SearchStats | None = None,
    learned: dict | None = None,
) -> list[NodeIndex] | None:
    """Vertex path from the start leaf to the goal leaf, or None.

    start and goal are leaves of the view rtree.  An edge costs the center
    distance times 1 + weight * (the target's occupancy value).  values
    maps a vertex's (scale, center2) key to its occupancy value, read with
    [] for every vertex the search reaches; a PlannerSession passes a memo
    that computes each entry on first lookup, once per session.  A value
    of inf marks a vertex that must not be routed through (map-free, a
    node flagged as an obstacle): it gets the g-value inf, so the touched
    count reflects it, but it never enters the queue and is never
    expanded.  excluded is a container of vertex keys the path never
    enters (the start excepted), asked once per vertex the run reaches.
    Any neighbor of the start may be the first hop: on a view refreshed
    around the start, every one of them is fine.
    A vertex's neighbors come from the tree lookup find_neighbors, read
    as a module global at call time, once per expansion.

    learned maps vertex keys to learned cost-to-go values (Adaptive A*,
    Koenig & Likhachev 2005), read and updated in place; None stands for
    a fresh empty dict.  A queued vertex's heuristic is the larger of its
    L1 center distance to the goal leaf and its learned value (0 when it
    has none).  A search that reaches the goal at cost C raises the
    learned value of every vertex it expanded, the start included, to at
    least C minus that vertex's g-value; a failed search learns nothing.
    On a view whose leaves are all of one scale the L1 distance is
    consistent, and the returned path has minimal cost while the learned
    values are admissible: with an empty mapping, or one filled only by
    searches of the same graph and goal.  On a mixed-scale view a
    cross-scale hop is shorter than its L1 displacement, so the path is
    one the view holds, not necessarily its cheapest.
    """
    if stats is None:
        stats = SearchStats()
    if learned is None:
        learned = {}
    root, depth = rtree.root, rtree.depth
    goal_center2 = goal.center2

    # The run's vertex state lives on the view nodes (see the module
    # docstring): run is this run's stamp.  values and learned are keyed
    # by node.key.  Heap entries are (f, h, key, node): within one run a
    # key always comes with the same node, so ties never compare nodes.
    run = object()
    dist = math.dist
    heappush, heappop = heapq.heappush, heapq.heappop

    goal_key = goal.key
    start.reached = run
    start.g = 0.0
    touched = 1
    # Predecessors, keyed by node identity; no node refers to another.
    parent: dict = {}
    learned_get = learned.get
    # The vertices this run expands, in order; a found path raises their
    # learned values.
    expanded: list = []
    expand = expanded.append
    h0 = 0.5 * sum(map(abs, map(sub, start.center2, goal_center2)))
    heap: list[tuple] = [(h0, h0, start.key, start)]
    found = None

    while heap:
        _, _, v, v_node = heappop(heap)
        if v_node.closed is run:
            continue
        if v == goal_key:
            found = v_node
            break
        v_node.closed = run
        expand(v_node)
        nbrs = find_neighbors(root, v_node, depth)
        gv = v_node.g
        vc2 = v_node.center2
        for node in nbrs:
            if node.reached is not run:
                # First reach in this run: excluded vertices start out
                # closed, never queued, never expanded.
                node.reached = run
                if node.key in excluded:
                    node.closed = run
                    continue
                node.g = inf
                touched += 1
            elif node.closed is run:
                continue
            w = node.key
            value = values[w]
            if value == inf:
                continue
            nc2 = node.center2
            tentative = gv + 0.5 * dist(vc2, nc2) * (1.0 + weight * value)
            if tentative < node.g:
                node.g = tentative
                parent[node] = v_node
                hw = 0.5 * sum(map(abs, map(sub, nc2, goal_center2)))
                lw = learned_get(w, 0.0)
                if lw > hw:
                    hw = lw
                heappush(heap, (tentative + hw, hw, w, node))

    stats.pops += len(expanded)
    stats.touched += touched
    if found is None:
        return None
    cost = found.g
    for v_node in expanded:
        left = cost - v_node.g
        v = v_node.key
        if left > learned_get(v, 0.0):
            learned[v] = left
    path = [found]
    while path[-1] is not start:
        path.append(parent[path[-1]])
    path.reverse()
    return [NodeIndex(*node.key) for node in path]


@dataclass
class PlanResult:
    """Outcome of one planning session.

    iterations counts the A* runs (one per iteration), not path steps: an
    iteration may commit several hops, or none when it backtracks.  cost
    is the path's centre-to-centre length: its nodes are all free, so the
    occupancy weight adds nothing to it.
    """

    status: str
    path: list[NodeIndex] | None
    cost: float | None
    iterations: int
    stats: SearchStats
    blocked: int

    @property
    def success(self) -> bool:
        return self.status == SUCCESS


class _Memo(dict):
    """Node facts by (scale, center2) key, each filled on first lookup.

    fill gets the key as it was looked up, a plain (scale, center2) tuple
    or a NodeIndex.  It must not hold the session that owns the memo (a
    bound method would): the two would form a reference cycle, which only
    the cyclic garbage collector frees.
    """

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        got = self[key] = self.fill(key)
        return got


def _node_facts(tree, estimator, eps, gamma):
    """A session's value memo and the per-node state its views read.

    The memo holds each node's value, inf for a flagged one.  Node values
    never change once known (exact map values are fixed, estimator
    results are cached), and eps and gamma are fixed for the session, so
    each value is computed once.  Exact values come from the unchecked
    tree.lookup: every key the search reaches is a view node, a valid
    address.  A map-free fill makes one classify call per node.

    state(scale, center2) is the (obstacle, splits) pair refresh takes.
    With the map it is tree.state: a node is an obstacle when it is full
    and splits when it is internal.  Map-free, a node the memo holds inf
    for is an obstacle.  Any other node at or below the enumeration
    cutoff is decided as a map node would be, from its enumeration
    (estimator.exact, cached, at most `samples` oracle points): an
    obstacle when full, split when mixed, a leaf when free.  Above the
    cutoff a node that is not flagged splits.  state fills no memo entry,
    so the memo stays the one record of flags.
    """
    if tree is not None:
        lookup = tree.lookup
        return _Memo(lambda idx: lookup(idx[0], idx[1])[0]), tree.state

    def value(idx) -> float:
        flagged, est = estimator.classify(idx, eps, gamma)
        return inf if flagged else est.value

    values = _Memo(value)
    known = values.get
    exact = estimator.exact
    cutoff = estimator.exact_cutoff

    def state(k: int, c2: tuple[int, ...]) -> tuple[bool, bool]:
        if known((k, c2)) == inf:
            return True, False
        if k > cutoff:
            return False, True
        est = exact((k, c2))
        hits = est.hits
        return hits == est.n, 0 < hits < est.n

    return values, state


class PlannerSession:
    """One multiscale planning run from a start point to a goal point.

    Exactly one of tree (exact mode: occupancy values come from the map)
    or predicate (map-free mode: values are estimated by sampling) must be
    given.  Map-free mode needs dim and depth; exact mode takes them from
    the tree and refuses different ones.  eps, gamma, samples, seed and
    cell_picks act only map-free: a map node is an obstacle exactly when
    every cell of it is occupied.  eps, gamma and samples are range-checked
    in both modes.  weight scales how much a node's
    occupancy value adds to the cost of entering it.  The session exposes
    its iteration pieces (goal_reached, refresh_view, advance) so a caller
    can drive and inspect single iterations; run() drives to completion.

    An exact session asks the map's component labels whether the goal is
    reachable the first time its walk would stop short of the goal (a
    failed search, or the budget), and ends no_path there if it is not;
    it asks at most once.  So an unreachable exact query never ends
    budget_exceeded, and a walk with no dead end never labels the map.

    The walk is recorded in trail, and every cell it has entered in
    visited.  Each advance() commits the leading fine hops of one search,
    all of them exact moves.  The search routes around visited cells, so
    no hop lands on one: trail is a simple path from the start, and a
    successful result's path repeats no node.
    """

    def __init__(
        self,
        *,
        tree: OccupancyTree | None = None,
        predicate=None,
        dim: int | None = None,
        depth: int | None = None,
        start,
        goal,
        eps: float = 0.5,
        gamma: float = 0.1,
        samples: int = 256,
        alpha: float = 1.0,
        weight: float = 1.0,
        seed: int = 0,
        budget: int | None = None,
        cell_picks: bool = False,
    ):
        if (tree is None) == (predicate is None):
            raise ValueError("give exactly one of tree or predicate")
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        for name, value in (("weight", weight), ("alpha", alpha), ("gamma", gamma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        samples = check_samples(samples)
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        if tree is not None:
            if dim not in (None, tree.dim) or depth not in (None, tree.depth):
                raise ValueError(
                    f"dim {dim}, depth {depth} differ from the tree's "
                    f"{tree.dim}, {tree.depth}"
                )
            dim, depth = tree.dim, tree.depth
        elif dim is None or depth is None:
            raise ValueError("map-free mode needs dim and depth")
        # Map-free mode builds no GridWorld to check these.
        elif dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        elif not 0 <= depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")
        # A path has at most 2**(dim * depth) hops, each costing at most the
        # world's diagonal times 1 + weight, and the heuristic adds at most
        # as much again.  A learned value is a found path's cost less a
        # g-value, so at most a path cost.  The L1 center distance is at
        # most dim * 2**depth: at depth >= 1, 2**(dim * depth) >= sqrt(dim),
        # so that is at most the hop count times the diagonal,
        # sqrt(dim) * 2**depth; at depth 0 the world is one cell, and it is
        # 0.  A finite bound keeps every A* key finite, so no edge is
        # dropped as if it were blocked.
        try:
            cost_bound = 2 * (1 + weight) * sqrt(dim) * 2.0 ** (depth * (dim + 1))
        except OverflowError:
            cost_bound = inf
        if not math.isfinite(cost_bound):
            raise ValueError(
                f"weight {weight} lets path costs overflow in a {dim}-D "
                f"depth-{depth} world"
            )
        self.tree = tree
        self.dim = dim
        self.depth = depth
        self.alpha = alpha
        self.weight = weight
        self.budget = budget if budget is not None else 4 * (1 << (dim * depth))
        side = 1 << depth
        for name, point in (("start", start), ("goal", goal)):
            if len(point) != dim or any(not 0.0 <= x <= side for x in point):
                raise ValueError(f"{name} point {tuple(point)} outside the world box")
        self.estimator = None
        if predicate is not None:
            self.estimator = ValueEstimator(
                predicate, dim, depth, samples, seed, cell_picks=cell_picks
            )

        start_v = self._locate(start)
        goal_v = self._locate(goal)
        self._cells = (self._cell(start), self._cell(goal))
        # Exact mode: whether the labels join the two cells, once asked.
        self._reachable: bool | None = None
        # The goal cell's doubled center.  An exact walk stands only on
        # stored leaves, and the view never splits one, so the node that
        # holds the goal cell is the one that holds the goal leaf.
        self.goal_center2 = tuple(2 * c + 1 for c in self._cells[1])
        self.current = start_v
        self.trail: list[NodeIndex] = [start_v]
        self.visited = CellTracker(dim, depth)
        self.visited.add(start_v)
        self.blocked = 0
        # Map-free, a view decides a node small enough to enumerate as a map
        # would (a free block stays whole, a full one is removed, a mixed
        # one splits), and splits a larger one unless the search flagged
        # it; refresh prunes flagged nodes from later views so A* stops
        # re-touching them.  The views read the memo and the estimator
        # live; a search classifies only view leaves that its generation
        # has already decided, so the flags it learns show from the next
        # refresh on.
        self._values, self._state = _node_facts(tree, self.estimator, eps, gamma)
        # Cost-to-go learned by this session's searches, all toward the
        # goal point; it must not outlive the session or reach another one.
        self._learned: dict = {}
        self.rtree = ReducedTree(dim, depth)
        self.stats = SearchStats()
        self.iterations = 0
        self.status: str | None = None
        if self._is_obstacle(start_v):
            self.status = START_BLOCKED
        elif self._is_obstacle(goal_v):
            self.status = GOAL_BLOCKED

    def _cell(self, point) -> tuple[int, ...]:
        side = 1 << self.depth
        return tuple(min(int(x), side - 1) for x in point)

    def _locate(self, point) -> NodeIndex:
        """Finest planning cell for a point: map leaf or unit cell."""
        cell2 = tuple(2 * c + 1 for c in self._cell(point))
        if self.tree is not None:
            return self.tree.leaf_at(tuple(c / 2.0 for c in cell2))
        return NodeIndex(0, cell2)

    def _is_obstacle(self, idx: NodeIndex) -> bool:
        if self.tree is not None:
            return self.tree.is_obstacle(idx)
        return self._values[idx] == inf

    def _cut_off(self) -> bool:
        """Exact mode: the map's labels put the goal out of reach.

        Asked where the walk would first stop short of the goal, so the
        labels are computed only then; the answer is kept.  Map-free
        there is no map to label, and the walk decides alone.
        """
        if self.tree is None:
            return False
        if self._reachable is None:
            # grid_connected is read as a module global, so a caller can wrap it.
            self._reachable = grid_connected(self.tree, *self._cells)
        return not self._reachable

    def _is_fine(self, idx) -> bool:
        # A node is fine when the view would not split it: a map leaf, or
        # map-free a unit cell or a block proven fully free.
        return not self._state(idx[0], idx[1])[1]

    def goal_reached(self) -> bool:
        half = 1 << self.current.scale
        return all(
            abs(c - g) < half for c, g in zip(self.current.center2, self.goal_center2)
        )

    def refresh_view(self) -> None:
        refresh(self.rtree, self._state, self.current, self.visited, self.alpha)

    def advance(self) -> str | None:
        """Run one A* attempt, then commit its leading fine hops or backtrack.

        The view makes every leaf beside the current cell fine, so the
        first hop is committed (a coarse one raises RuntimeError, as a
        non-adjacent one does); the following hops are committed while the
        next node is fine.  With no path, an exact walk whose labels put
        the goal out of reach ends no_path; otherwise the last trail cell
        is blocked and the walk steps back to the one before it.  The
        blocked cell stays visited, so later views keep it as a leaf and
        later searches never enter it.
        """
        run = SearchStats()
        goal_node = find_containing(self.rtree.root, self.goal_center2)
        start_node = self.rtree.find_vertex(self.current)
        path = None
        if goal_node is not None and start_node is not None:
            before = len(self._values)
            path = astar_lazy(
                self.rtree,
                start_node,
                goal_node,
                self.weight,
                self._values,
                excluded=self.visited.cells(),
                stats=run,
                learned=self._learned,
            )
            if self.estimator is not None:
                run.new_samples = len(self._values) - before
                assert run.new_samples <= run.touched
            self.stats.add(run)
        if path is None:
            if self._cut_off() or len(self.trail) == 1:
                self.status = NO_PATH
                return self.status
            self.trail.pop()
            self.blocked += 1
            self.current = self.trail[-1]
            return None
        # Only the path's last node, the view leaf holding the goal point,
        # contains it, so the walk stops at the goal at the latest.
        for hop, step in enumerate(path[1:]):
            if not self._is_fine(step):
                if hop == 0:
                    raise RuntimeError(
                        f"the view left a coarse first hop {self.current} -> {step}"
                    )
                break
            if not are_neighbors(self.current, step):
                raise RuntimeError(
                    f"planner committed a non-adjacent step {self.current} -> {step}"
                )
            self.trail.append(step)
            self.visited.add(step)
            self.current = step
        return None

    def step(self) -> str | None:
        """One planner iteration; returns the terminal status or None."""
        if self.status is not None:
            return self.status
        if self.goal_reached():
            self.status = SUCCESS
            return self.status
        if self.iterations >= self.budget:
            self.status = NO_PATH if self._cut_off() else BUDGET_EXCEEDED
            return self.status
        self.iterations += 1
        self.refresh_view()
        return self.advance()

    def run(self) -> PlanResult:
        while self.status is None:
            self.step()
        return self.result()

    def result(self) -> PlanResult:
        if self.status is None:
            raise RuntimeError("session still running")
        path = cost = None
        if self.status == SUCCESS:
            path = list(self.trail)
            cost = 0.0
            for u, v in zip(path, path[1:]):
                s = sum((a - b) * (a - b) for a, b in zip(u.center2, v.center2))
                cost += 0.5 * sqrt(s)
        return PlanResult(
            self.status, path, cost, self.iterations, self.stats, self.blocked
        )


def _check_path(path, dim, depth, covers_obstacle, start, goal):
    """The path rule both checks apply, with their obstacle clause."""
    if not path:
        return False, "empty path"
    for i, idx in enumerate(path):
        if not valid_index(idx, dim, depth):
            return False, f"node {i} is not a node of the world"
    for i, idx in enumerate(path):
        if covers_obstacle(idx):
            return False, f"node {i} covers an obstacle cell"
    for i, (u, v) in enumerate(zip(path, path[1:])):
        if not are_neighbors(u, v):
            return False, f"nodes {i} and {i + 1} are not neighbors"
    if start is not None and not node_contains(path[0], start, depth):
        return False, "first node does not contain the start point"
    if goal is not None and not node_contains(path[-1], goal, depth):
        return False, "last node does not contain the goal point"
    return True, None


def verify_path(
    tree: OccupancyTree,
    path: list[NodeIndex],
    eps=None,
    start=None,
    goal=None,
) -> tuple[bool, str | None]:
    """Check a path against the map: world, obstacles, adjacency, endpoints.

    A path is valid when it is not empty and, clause by clause over the
    whole path in this order: every node is a node of the world, no node
    covers an obstacle cell, consecutive nodes share a face, and the first
    and last nodes contain the start and goal points (when given).  A
    node covers an obstacle cell exactly when its value is nonzero: a
    stored leaf that is free, or a node under one, passes.  The rule is
    verify_path_sampled's.  Returns (True, None) or (False, description
    of the first violation).

    eps is ignored: a map node is an obstacle exactly when it is full,
    whatever eps is.  The parameter stays so that callers passing eps
    positionally before start and goal keep working.
    """
    return _check_path(
        path, tree.dim, tree.depth, lambda idx: tree.value(idx) != 0.0, start, goal
    )


def verify_path_sampled(
    predicate,
    path: list[NodeIndex],
    depth: int,
    start=None,
    goal=None,
) -> tuple[bool, str | None]:
    """Check a path against an obstacle predicate, with verify_path's rule.

    The clauses and their order are verify_path's: every node is a node
    of the world (of the first node's dimension), no node covers an
    obstacle cell, consecutive nodes share a face, then the endpoints.  A
    node covers an obstacle cell when the predicate holds at one of its
    unit-cell centers.  Each node's centers go to the predicate as one
    batch_of call, the call the planner's estimator asks, so the check
    and the planner read the same rule.
    Returns (True, None) or (False, description of the first violation).
    """
    dim = len(path[0].center2) if path else 0
    batch = batch_of(predicate)

    def covers_obstacle(idx) -> bool:
        k, c2 = idx
        cells = np.indices((1 << k,) * dim).reshape(dim, -1).T
        return bool(np.any(batch(cells + [((c - (1 << k)) >> 1) + 0.5 for c in c2])))

    return _check_path(path, dim, depth, covers_obstacle, start, goal)
