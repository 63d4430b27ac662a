"""Lazy A* over reduced views, walk-and-replan sessions, path verification."""

import contextlib
import gc
import math
import sys
import weakref
from collections import defaultdict
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_neighbor_pairs,
    dict_astar,
    dijkstra_vertex_costs,
    eager_view,
    full_rtree,
    interval_face_test,
    l1_distance,
    leaf_at_point,
    node_bounds2,
    random_world,
    realize_grid,
    same_world,
    snake_world,
    state_source,
    view_snapshot,
)
import mspp.search as msearch
import mspp.tree as mtree
from mspp.neighbors import (
    are_neighbors,
    collect_leaves,
    find_containing,
    find_neighbors,
)
from mspp.predicates import WallWithGap, batch_of, parse_predicate
from mspp.reduced import CellTracker, ReducedTree, RTNode, refresh, window_thresholds
from mspp.search import (
    BUDGET_EXCEEDED,
    GOAL_BLOCKED,
    NO_PATH,
    START_BLOCKED,
    SUCCESS,
    PlannerSession,
    SearchStats,
    astar_lazy,
    node_contains,
    verify_path,
    verify_path_sampled,
)
from mspp.tree import (
    MAX_DEPTH,
    GridWorld,
    NodeIndex,
    OccupancyTree,
    build_from_grid,
)
from mspp.sampling import exact_scale_cutoff, flag_band_end
from mspp.environments import grid_predicate, random_spheres, uniform_astar


@contextlib.contextmanager
def counted_neighbor_lookups():
    """Count the A*'s tree lookups; it reads mspp.search.find_neighbors per call."""
    calls = [0]
    lookup = msearch.find_neighbors

    def counting(*args):
        calls[0] += 1
        return lookup(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(msearch, "find_neighbors", counting)
        yield calls


@pytest.fixture
def labellings(monkeypatch):
    """The worlds the trees label, one per _component_labels call."""
    calls = []
    labeller = mtree._component_labels

    def counting(world):
        calls.append(world)
        return labeller(world)

    monkeypatch.setattr(mtree, "_component_labels", counting)
    return calls


def assert_no_path_at_first_failed_search(result, labellings):
    # An exact walk asks the labels the first time a search fails, and an
    # unreachable goal ends it there: no cell was blocked, one labelling.
    assert result.status == NO_PATH
    assert result.path is None
    assert result.iterations >= 1
    assert result.blocked == 0
    assert len(labellings) == 1


def corridor_world():
    # 4x4 box with only the bottom row free
    cells = np.ones(16, dtype=np.uint8)
    world = GridWorld(2, 2, cells)
    for x in range(4):
        cells[world.flat_index((x, 0))] = 0
    return GridWorld(2, 2, cells)


def free_map_free_session(depth: int, **kwargs) -> PlannerSession:
    """Map-free session on an empty 2-D world, corner to corner.

    With one sample per node no block above scale 0 is ever proven free,
    so every view splits as the fully subdivided free tree would.
    """
    world = GridWorld(2, depth, np.zeros(4**depth, dtype=np.uint8))
    side = 1 << depth
    return PlannerSession(
        predicate=grid_predicate(world), dim=2, depth=depth, samples=1,
        start=(0.5, 0.5), goal=(side - 0.5, side - 0.5), **kwargs,
    )


def test_cost_model_examples():
    # a hop costs half the centre distance in doubled units times
    # 1 + weight * (the target's value); the nodes of a finished path are
    # free, so the weight steers the search but adds nothing to its cost
    cells = np.zeros(16, dtype=np.uint8)
    world = GridWorld(2, 2, cells)
    cells[world.flat_index((0, 1))] = 1
    tree = build_from_grid(GridWorld(2, 2, cells))
    coarse = NodeIndex(1, (6, 2))
    for weight in (0.0, 1.0, 5.0):
        result = PlannerSession(
            tree=tree, start=(0.5, 0.5), goal=(3.5, 0.5), weight=weight
        ).run()
        assert result.path == [NodeIndex(0, (1, 1)), NodeIndex(0, (3, 1)), coarse]
        # one unit hop, then from (1.5, 0.5) to the block centre (3.0, 1.0)
        assert result.cost == pytest.approx(1.0 + math.hypot(1.5, 0.5))
    with pytest.raises(ValueError, match="weight"):
        PlannerSession(tree=tree, start=(0.5, 0.5), goal=(3.5, 0.5), weight=-0.5)


def test_exact_session_takes_dim_and_depth_from_the_tree():
    tree = build_from_grid(corridor_world())
    ends = dict(start=(0.5, 0.5), goal=(3.5, 0.5))
    assert PlannerSession(tree=tree, dim=2, depth=2, **ends).run().success
    for other in ({"dim": 3}, {"depth": 3}):
        with pytest.raises(ValueError, match="differ from the tree"):
            PlannerSession(tree=tree, **other, **ends)


def test_budget_counts_iterations_and_must_be_nonnegative():
    tree = build_from_grid(corridor_world())
    ends = dict(start=(0.5, 0.5), goal=(3.5, 0.5))
    # a zero budget is a valid limit: the walk ends before its first search
    result = PlannerSession(tree=tree, budget=0, **ends).run()
    assert (result.status, result.iterations) == (BUDGET_EXCEEDED, 0)
    for mode in ({"tree": tree}, {"predicate": lambda p: False, "dim": 2, "depth": 2}):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            PlannerSession(budget=-1, **mode, **ends)


@pytest.mark.parametrize("name", ["weight", "alpha", "gamma"])
def test_non_finite_settings_are_rejected(name):
    # an infinite weight would make every coarse edge cost inf, which the
    # A* drops, and an infinite alpha or gamma overflows Fraction
    tree = build_from_grid(corridor_world())
    ends = dict(start=(0.5, 0.5), goal=(3.5, 0.5))
    for mode in ({"tree": tree}, {"predicate": lambda p: False, "dim": 2, "depth": 2}):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                PlannerSession(**{name: value}, **mode, **ends)


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_non_positive_alpha_is_refused_up_front(alpha):
    # neither session reaches a refresh, which is where the window
    # thresholds would refuse alpha: start and goal share a cell, and the
    # component labels rule the goal out
    world = corridor_world()
    cells = world.cells.copy()
    cells[world.flat_index((2, 0))] = 1
    cut = build_from_grid(GridWorld(2, 2, cells))
    for tree, goal, status in (
        (build_from_grid(world), (0.7, 0.2), SUCCESS),
        (cut, (3.5, 0.5), NO_PATH),
    ):
        ends = dict(tree=tree, start=(0.5, 0.5), goal=goal)
        assert PlannerSession(**ends).run().status == status
        with pytest.raises(ValueError, match="alpha must be positive"):
            PlannerSession(alpha=alpha, **ends)


@pytest.mark.parametrize(
    "name,value", [("gamma", 0.0), ("gamma", -1.0), ("samples", 0), ("samples", 2.5)]
)
def test_sampling_settings_are_checked_in_both_modes(name, value):
    # exact mode stores these settings and never reads them, but a value
    # map-free mode refuses is refused there too
    tree = build_from_grid(corridor_world())
    ends = dict(start=(0.5, 0.5), goal=(3.5, 0.5))
    for mode in ({"tree": tree}, {"predicate": lambda p: False, "dim": 2, "depth": 2}):
        with pytest.raises(ValueError, match=f"{name} must be"):
            PlannerSession(**{name: value}, **mode, **ends, cell_picks=True)

def test_weights_that_overflow_path_costs_are_rejected():
    # the bound 2 * (1 + weight) * sqrt(dim) * 2**(depth * (dim + 1)) on a
    # search key must be finite, in both modes
    tree = build_from_grid(corridor_world())
    ends = dict(start=(0.5, 0.5), goal=(3.5, 0.5))
    for mode in ({"tree": tree}, {"predicate": lambda p: False, "dim": 2, "depth": 2}):
        with pytest.raises(ValueError, match="lets path costs overflow"):
            PlannerSession(weight=1e308, **mode, **ends)
        PlannerSession(weight=1e300, **mode, **ends)
        # at the refusal edge, where the bound, 2 * (1 + weight) * sqrt(2)
        # * 2**6 here, is about 0.7 and 1.4 times the largest float: the
        # accepted weight plans, its A* keys finite, and twice it is refused
        edge = sys.float_info.max / 256
        with pytest.raises(ValueError, match="lets path costs overflow"):
            PlannerSession(weight=2 * edge, **mode, **ends)
        assert PlannerSession(weight=edge, **mode, **ends).run().success
    # a world too large for the bound to be a float at all
    with pytest.raises(ValueError, match="lets path costs overflow"):
        PlannerSession(
            predicate=lambda p: False, dim=120, depth=10,
            start=(0.5,) * 120, goal=(1.5,) * 120,
        )


def test_node_contains_half_open():
    idx = NodeIndex(1, (2, 2))
    assert node_contains(idx, (0.0, 0.0), depth=2)
    assert node_contains(idx, (1.9, 0.5), depth=2)
    assert not node_contains(idx, (2.0, 0.5), depth=2)
    # the world's upper boundary closes the last cell
    top = NodeIndex(1, (6, 6))
    assert node_contains(top, (4.0, 4.0), depth=2)


def test_astar_start_equals_goal_expands_nothing():
    rtree = full_rtree(2, 2)
    stats = SearchStats()
    v = NodeIndex(0, (1, 1))
    leaf = rtree.find_vertex(v)
    with counted_neighbor_lookups() as lookups:
        path = astar_lazy(
            rtree, leaf, leaf, 1.0, values=defaultdict(float), stats=stats
        )
    assert path == [v]
    assert stats.pops == 0
    assert lookups == [0]


def test_astar_missing_start_vertex_raises():
    rtree = full_rtree(2, 1)
    with pytest.raises(ValueError, match="not a leaf"):
        astar_lazy(
            rtree,
            rtree.root,  # internal, not a vertex
            rtree.find_vertex(NodeIndex(0, (1, 1))),
            1.0,
            values=defaultdict(float),
        )


def test_astar_respects_excluded_first_hop():
    rtree = full_rtree(2, 2)
    start, goal = NodeIndex(0, (1, 1)), NodeIndex(0, (7, 1))
    away = NodeIndex(0, (3, 1))
    path = astar_lazy(
        rtree,
        rtree.find_vertex(start),
        rtree.find_vertex(goal),
        1.0,
        values=defaultdict(float),
        excluded={away},
    )
    assert path is not None
    assert away not in path


def test_advance_refuses_a_coarse_first_hop(monkeypatch):
    # The view makes every leaf beside the focus fine; a search that
    # still hands back a coarse first hop is a bug, not a step to skip.
    world = GridWorld(2, 3, np.zeros(64, dtype=np.uint8))
    world.cells[world.flat_index((7, 0))] = 1
    session = PlannerSession(
        tree=build_from_grid(world), start=(0.5, 0.5), goal=(6.5, 6.5)
    )
    coarse = NodeIndex(2, (12, 4))
    assert are_neighbors(session.current, coarse)
    assert not session._is_fine(coarse)
    monkeypatch.setattr(
        msearch, "astar_lazy", lambda *args, **kwargs: [session.current, coarse]
    )
    session.refresh_view()
    with pytest.raises(RuntimeError, match="coarse first hop"):
        session.advance()


def test_astar_never_enters_excluded_vertices():
    rtree = full_rtree(2, 2)
    start, goal = NodeIndex(0, (1, 1)), NodeIndex(0, (7, 1))
    wall = {NodeIndex(0, (3, y)) for y in (1, 3, 5)}
    start_leaf, goal_leaf = rtree.find_vertex(start), rtree.find_vertex(goal)
    path = astar_lazy(
        rtree, start_leaf, goal_leaf, 1.0, values=defaultdict(float),
        excluded=wall | {start},
    )
    assert path is not None and path[0] == start
    assert not wall & set(path)
    # excluding a full column cuts the start off
    wall.add(NodeIndex(0, (3, 7)))
    path = astar_lazy(
        rtree, start_leaf, goal_leaf, 1.0, values=defaultdict(float), excluded=wall
    )
    assert path is None


def test_plan_corridor_cost_three():
    tree = build_from_grid(corridor_world())
    result = PlannerSession(tree=tree, start=(0.5, 0.5), goal=(3.5, 0.5), eps=0.5).run()
    assert result.status == SUCCESS
    assert result.success
    assert len(result.path) == 4
    assert result.cost == pytest.approx(3.0)
    assert [p.scale for p in result.path] == [0, 0, 0, 0]
    ok, reason = verify_path(
        tree, result.path, start=(0.5, 0.5), goal=(3.5, 0.5)
    )
    assert ok, reason


def test_exact_mode_plans_the_same_at_eps_near_one():
    # two full 32x32 quadrants meet at a corner; freeing cell (32, 32) of
    # one joins the two free quadrants through it.  At eps = 1 - 2**-45 the
    # float threshold 1 - eps * 2**(-2k) rounds down to 1 - 2**(-2k) from
    # scale 5 on, so a threshold test counts the quadrant with the one free
    # cell as full, and the map as unreachable
    g = np.zeros((64, 64), dtype=np.uint8)  # g[y, x]
    g[:32, :32] = 1
    g[32:, 32:] = 1
    g[32, 32] = 0
    g[62, 1] = 1  # makes the start a unit cell
    tree = build_from_grid(GridWorld(2, 6, g.ravel()))
    start, goal = (0.5, 63.5), (63.5, 0.5)
    for eps in (1 - 2**-45, 0.5):
        result = PlannerSession(tree=tree, start=start, goal=goal, eps=eps).run()
        assert result.status == SUCCESS
        assert len(result.path) == 9
        ok, reason = verify_path(tree, result.path, start=start, goal=goal)
        assert ok, reason


def test_plan_start_equals_goal():
    tree = build_from_grid(corridor_world())
    result = PlannerSession(tree=tree, start=(1.5, 0.5), goal=(1.5, 0.5)).run()
    assert result.status == SUCCESS
    assert len(result.path) == 1
    assert result.cost == 0.0
    assert result.iterations == 0
    assert result.stats.pops == 0


def test_plan_collapsed_free_map_returns_single_node():
    world = GridWorld(2, 3, np.zeros(64, dtype=np.uint8))
    tree = build_from_grid(world)
    result = PlannerSession(tree=tree, start=(0.5, 0.5), goal=(7.5, 7.5)).run()
    assert result.status == SUCCESS
    assert result.path == [NodeIndex(3, (8, 8))]
    ok, reason = verify_path(
        tree, result.path, start=(0.5, 0.5), goal=(7.5, 7.5)
    )
    assert ok, reason


def test_plan_subdivided_free_map_matches_uniform_grid_length():
    # every view of this free map is subdivided to unit cells, so the walk
    # advances cell by cell and the zero-weight path length equals the
    # uniform-grid shortest path length
    depth = 3
    result = free_map_free_session(depth, weight=0.0).run()
    assert result.status == SUCCESS
    assert all(p.scale == 0 for p in result.path)
    world = GridWorld(2, depth, np.zeros(64, dtype=np.uint8))
    base = uniform_astar(world, (0, 0), (7, 7))
    assert base.reachable
    assert len(result.path) == len(base.path) == 2 * (2**depth - 1) + 1
    assert result.cost == pytest.approx(len(base.path) - 1)


def walled_world() -> GridWorld:
    # a full column of obstacles at x = 4 splits an 8x8 world in two
    cells = np.zeros(64, dtype=np.uint8)
    world = GridWorld(2, 3, cells)
    for y in range(8):
        cells[world.flat_index((4, y))] = 1
    return GridWorld(2, 3, cells)


def test_plan_walled_world_fails_like_grid_search(labellings):
    world = walled_world()
    tree = build_from_grid(world)
    result = PlannerSession(tree=tree, start=(0.5, 0.5), goal=(7.5, 7.5)).run()
    assert_no_path_at_first_failed_search(result, labellings)
    # one search commits hops toward the wall, the next finds no route
    assert result.iterations == 2
    base = uniform_astar(world, (0, 0), (7, 7))
    assert not base.reachable


def test_plan_blocked_endpoints_statuses():
    cells = np.zeros(16, dtype=np.uint8)
    world = GridWorld(2, 2, cells)
    cells[world.flat_index((0, 0))] = 1
    world = GridWorld(2, 2, cells)
    tree = build_from_grid(world)
    result = PlannerSession(tree=tree, start=(0.5, 0.5), goal=(3.5, 3.5)).run()
    assert result.status == START_BLOCKED
    result = PlannerSession(tree=tree, start=(3.5, 3.5), goal=(0.5, 0.5)).run()
    assert result.status == GOAL_BLOCKED


def test_plan_budget_exhaustion():
    result = free_map_free_session(3, budget=3).run()
    assert result.status == BUDGET_EXCEEDED
    assert result.iterations == 3


def make_refreshed_view(tree, start_cell, alpha=1.0):
    rtree = ReducedTree(tree.dim, tree.depth)
    path = CellTracker(tree.dim, tree.depth)
    path.add(start_cell)
    refresh(rtree, state_source(tree), start_cell, path, alpha=alpha)
    return rtree


def unit_cell_world(depth: int, density: float = 0.0, seed: int = 0) -> GridWorld:
    """A 2-D map with an obstacle in every 2x2 block, its corners free.

    Cell (1, 0) of each block is occupied, and with density > 0 random
    cells besides.  No block is free, so every stored leaf is a unit cell
    or full, and a view refreshed with alpha at least the world's side
    is uniform-scale: every hop is a unit face move, on which the L1
    heuristic is consistent.  At density 0 column 0 and the odd rows are
    free, so the corners are joined.
    """
    side = 1 << depth
    grid = np.zeros((side, side), dtype=np.uint8)  # grid[y, x]
    grid[0::2, 1::2] = 1
    if density:
        noise = random_world(2, depth, density, seed=seed, free_corners=True)
        grid |= noise.cells.reshape(side, side)
    return GridWorld(2, depth, grid)


def recorded_search(rtree, start, goal_node, weight, values, **kwargs):
    """astar_lazy from the view leaf at start: its path, SearchStats and
    expanded vertices, in order, recorded from its neighbor lookups."""
    stats, expanded = SearchStats(), []
    lookup = msearch.find_neighbors

    def recording(root, node, depth):
        expanded.append(NodeIndex(*node.key))
        return lookup(root, node, depth)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(msearch, "find_neighbors", recording)
        path = astar_lazy(
            rtree, rtree.find_vertex(start), goal_node, weight, values,
            stats=stats, **kwargs,
        )
    return path, stats, expanded


def check_against_dijkstra(rtree, start, goal_point, value_of, weight, seed, uniform):
    """One view's searches against Dijkstra on the view's materialized graph.

    uniform says the view is uniform-scale, where the L1 heuristic is
    consistent: the path is a cheapest one, and the learned values are
    exact.  On a mixed-scale view a cross-scale hop is shorter than its
    L1 displacement, so the path need only be valid.
    """
    depth = rtree.depth
    # the view is fine around the start and coarse far from it: the goal
    # is the view's leaf over the goal point, as in PlannerSession.advance
    goal_node = leaf_at_point(rtree, goal_point)
    assert rtree.find_vertex(start) is not None and goal_node is not None
    goal = NodeIndex(goal_node.scale, goal_node.center2)
    vertices = [NodeIndex(v.scale, v.center2) for v in collect_leaves(rtree.root)]
    if uniform:
        assert all(v.scale == 0 for v in vertices)
    edges = all_neighbor_pairs(rtree.root, depth)
    around = defaultdict(set)
    for a, b in edges:
        around[a].add(b)
        around[b].add(a)
    # flagged vertices read the value inf: none, a random fifth of the
    # others, and every neighbor of the goal, which leaves no route to it
    # unless the start is one of them.  Each set is searched with no
    # excluded vertices and with the start (as a session excludes its
    # current cell) and a random tenth of the others excluded.
    rng = np.random.default_rng(seed)
    drawn = {v for v in vertices if v not in (start, goal) and rng.random() < 0.2}
    ring = around[goal] - {start}
    some = {start} | {v for v in vertices if v != goal and rng.random() < 0.1}
    for flagged, excluded in product((set(), drawn, ring), (set(), some)):
        values = {v: math.inf if v in flagged else value_of(v) for v in vertices}
        learned = {}
        got, stats, expanded = recorded_search(
            rtree, start, goal_node, weight, values, excluded=excluded, learned=learned
        )
        shut = flagged | (excluded - {start})
        kept = [v for v in vertices if v not in shut]
        costs = dijkstra_vertex_costs(
            kept,
            [(a, b) for a, b in edges if a not in shut and b not in shut],
            value_of,
            weight,
            start,
        )
        expect = costs.get(goal)
        # laziness: one neighbor lookup per expansion, both within the
        # vertex budget; a flagged or excluded vertex is never expanded,
        # but every neighbor of an expanded vertex that is not excluded,
        # flagged or not, is touched
        assert len(expanded) == stats.pops <= len(kept)
        assert not shut & set(expanded)
        assert stats.touched == len(
            {start}.union(*(around[v] - excluded for v in expanded))
        )
        if flagged is ring and not excluded:
            assert (expect is None) == (start not in around[goal])
        # the search finds a path exactly when Dijkstra does
        assert (got is None) == (expect is None)
        if expect is None:
            # a failed search learns nothing, and leaves what it was
            # given as it was
            assert learned == {}
            before = {v: float(i) for i, v in enumerate(vertices)}
            filled = dict(before)
            assert astar_lazy(
                rtree, rtree.find_vertex(start), goal_node, weight, values,
                excluded=excluded, learned=filled,
            ) is None
            assert filled == before
            continue

        def cost_of(path):
            # a valid path: from the start to the goal over view edges,
            # clear of flagged and excluded vertices
            assert path[0] == start and path[-1] == goal
            assert not shut & set(path)
            assert all(b in around[a] for a, b in zip(path, path[1:]))
            return sum(
                0.5 * math.dist(a.center2, b.center2) * (1.0 + weight * value_of(b))
                for a, b in zip(path, path[1:])
            )

        cost = cost_of(got)
        assert cost >= expect * (1 - 1e-9)
        # the expanded vertices, the start included, and no others learn
        # C - g(v); the start's g-value is 0, so it learns the path's cost
        assert start in expanded
        assert set(learned) == set(expanded)
        assert learned[start] == pytest.approx(cost, rel=1e-9)
        if not uniform:
            continue
        # L1 is consistent on unit face moves, so g(v) is the least cost
        # from the start: the path is a cheapest one, and C - g(v) exact
        assert cost == pytest.approx(expect, rel=1e-9)
        for v in expanded:
            assert learned[v] == pytest.approx(expect - costs[v], rel=1e-9, abs=1e-9)
        # on the same graph the learned values stay consistent and are at
        # least the L1 ones: a search that reads them still finds a
        # cheapest path.  Each search expands only vertices whose least
        # cost from the start plus heuristic is at most C; how many of
        # those at exactly C it expands depends on ties, so the second
        # may expand more than the first
        before = dict(learned)
        again, _, expanded_again = recorded_search(
            rtree, start, goal_node, weight, values, excluded=excluded, learned=learned
        )
        assert cost_of(again) == pytest.approx(expect, rel=1e-9)
        for run, read in ((expanded, {}), (expanded_again, before)):
            for v in run:
                h = max(0.5 * l1_distance(v.center2, goal.center2), read.get(v, 0.0))
                assert costs[v] + h <= expect * (1 + 1e-9) + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 1.0]))
def test_astar_matches_dijkstra_on_materialized_graph(seed, weight):
    # views of two 16x16 maps, each refreshed around the start: a
    # mixed-scale one (alpha 1) of a random map, with the map's occupancy
    # values, and a uniform-scale one of a unit_cell_world, with random
    # values so the weight counts there too
    depth = 4
    side = 1 << depth
    goal_point = (side - 0.5,) * 2
    tree = build_from_grid(random_world(2, depth, 0.25, seed=seed, free_corners=True))
    start = tree.leaf_at((0.5, 0.5))
    rtree = make_refreshed_view(tree, start)
    check_against_dijkstra(
        rtree, start, goal_point, tree.value, weight, seed, uniform=False
    )
    tree = build_from_grid(unit_cell_world(depth, 0.1, seed))
    start = tree.leaf_at((0.5, 0.5))
    rtree = make_refreshed_view(tree, start, alpha=float(side))
    rng = np.random.default_rng(seed)
    drawn = {v.key: float(rng.random()) for v in collect_leaves(rtree.root)}
    check_against_dijkstra(
        rtree, start, goal_point, drawn.__getitem__, weight, seed, uniform=True
    )


@pytest.mark.parametrize("depth", [4, 5])
def test_l1_guides_a_uniform_scale_search_straight_to_the_goal(depth):
    # on a view of unit cells every hop is a face move, and the L1
    # distance is the cost-to-go of a free route that turns only toward
    # the goal: the search pops only the vertices of its path, a cheapest
    # one, and learns the exact cost-to-go of each
    tree = build_from_grid(unit_cell_world(depth))
    start = tree.leaf_at((0.5, 0.5))
    side = 1 << depth
    rtree = make_refreshed_view(tree, start, alpha=float(side))
    goal = leaf_at_point(rtree, (side - 0.5, side - 0.5))
    vertices = [NodeIndex(v.scale, v.center2) for v in collect_leaves(rtree.root)]
    assert all(v.scale == 0 for v in vertices)
    costs = dijkstra_vertex_costs(
        vertices, all_neighbor_pairs(rtree.root, depth), tree.value, 1.0, start
    )
    values = {v: tree.value(v) for v in vertices}
    stats, learned = SearchStats(), {}
    path = astar_lazy(
        rtree, rtree.find_vertex(start), goal, 1.0, values, stats=stats, learned=learned
    )
    hops = len(path) - 1
    assert hops == costs[path[-1]] == 2 * (side - 1)
    assert stats.pops == hops
    assert learned == {v: costs[path[-1]] - costs[v] for v in path[:-1]}


class _Flagged(dict):
    """Map values by key, a seeded share of the keys flagged (inf)."""

    def __init__(self, tree, seed, share):
        super().__init__()
        self.tree, self.seed, self.share = tree, seed, share

    def __missing__(self, key):
        rng = np.random.default_rng([self.seed, key[0], *key[1]])
        flagged = rng.random() < self.share
        got = self[key] = math.inf if flagged else self.tree.lookup(*key)[0]
        return got


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 4), (2, 5), (3, 3)]),
    st.sampled_from([0.0, 1.0, 5.0]),
    st.sampled_from([0.0, 0.1, 0.3]),
    st.integers(0, 2**32 - 1),
)
def test_astar_matches_the_dict_keyed_reference(shape, weight, share, seed):
    # a walk over refreshed views of one map, whose searches share one
    # learned dict per side; each view is searched twice, with two
    # excluded sets, so a second run must not read the first one's stamps
    dim, depth = shape
    tree = build_from_grid(random_world(dim, depth, 0.3, seed=seed, free_corners=True))
    rng = np.random.default_rng(seed)
    values = _Flagged(tree, seed, share)
    current = tree.leaf_at((0.5,) * dim)
    goal_point = ((1 << depth) - 0.5,) * dim
    visited = CellTracker(dim, depth)
    visited.add(current)
    rtree = ReducedTree(dim, depth)
    learned, learned_ref = {}, {}
    for _ in range(4):
        refresh(rtree, tree.state, current, visited, 1.0)
        start, goal = rtree.find_vertex(current), leaf_at_point(rtree, goal_point)
        if goal is None:
            break
        leaves = [v.key for v in collect_leaves(rtree.root, sort=False)]
        drawn = {v for v in leaves if rng.random() < 0.15}
        for excluded in (set(visited.cells()), drawn | visited.cells()):
            stats, stats_ref = SearchStats(), SearchStats()
            got = astar_lazy(rtree, start, goal, weight, values, excluded=excluded,
                             stats=stats, learned=learned)
            ref = dict_astar(rtree, start, goal, weight, values, excluded=excluded,
                             stats=stats_ref, learned=learned_ref)
            assert got == ref
            assert (stats.pops, stats.touched) == (stats_ref.pops, stats_ref.touched)
            assert learned == learned_ref
        # step to a random unvisited leaf beside the current cell
        beside = [v for v in find_neighbors(rtree.root, start, depth)
                  if v.key not in visited.cells()]
        if not beside:
            break
        current = NodeIndex(*beside[rng.integers(len(beside))].key)
        visited.add(current)


def test_a_search_reads_what_an_earlier_one_learned():
    # a uniform-scale view, with random values so that the first search
    # strays and no two routes tie: learned cost-to-go is exact on the
    # first search's expanded vertices, and every other vertex's least
    # cost plus L1 exceeds the path's, so a second search of the same
    # view expands only vertices the first one did, fewer of them, and
    # finds the same path
    tree = build_from_grid(unit_cell_world(4))
    start = tree.leaf_at((0.5, 0.5))
    rtree = make_refreshed_view(tree, start, alpha=16.0)
    goal = leaf_at_point(rtree, (15.5, 15.5))
    rng = np.random.default_rng(0)
    values = {v.key: float(rng.random()) for v in collect_leaves(rtree.root)}
    learned = {}
    path, first, expanded = recorded_search(rtree, start, goal, 1.0, values, learned=learned)
    again, second, expanded_again = recorded_search(
        rtree, start, goal, 1.0, values, learned=learned
    )
    assert again == path
    assert set(expanded_again) <= set(expanded)
    assert len(path) - 1 <= second.pops < first.pops


def test_finished_sessions_need_no_cycle_collection():
    # the session's memos and view must not refer back to the session, and
    # the searches keep no link from one view node to another, so a
    # finished session is freed as soon as its last reference goes, also
    # after a walk that backtracks: with the cycle collector off, nothing
    # is left for it to find
    blocked = []
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for depth, density, seed in ((4, 0.2, 1), (5, 0.3, 2)):
            world = random_world(2, depth, density, seed=seed, free_corners=True)
            side = 1 << depth
            for kwargs in (
                {"tree": build_from_grid(world)},
                {"predicate": grid_predicate(world), "dim": 2, "depth": depth},
            ):
                session = PlannerSession(
                    start=(0.5, 0.5), goal=(side - 0.5, side - 0.5), **kwargs
                )
                assert session.run().status == SUCCESS
                assert session.stats.touched > 0
                blocked.append(session.blocked)
                # no view node refers to another but through its child list
                stack = [session.rtree.root]
                while stack:
                    node = stack.pop()
                    assert not any(
                        isinstance(r, RTNode) for r in gc.get_referents(node)
                    )
                    stack.extend(c for c in node.children or () if c is not None)
                ref = weakref.ref(session)
                del session, node
                assert ref() is None
                assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert blocked[-2] > 0 and blocked[-1] > 0


def test_session_counters_stay_lazy():
    for seed in range(5):
        world = random_world(2, 4, 0.25, seed=seed, free_corners=True)
        tree = build_from_grid(world)
        with counted_neighbor_lookups() as lookups:
            session = PlannerSession(tree=tree, start=(0.5, 0.5), goal=(15.5, 15.5))
            result = session.run()
        assert lookups == [result.stats.pops]
        if result.status == SUCCESS:
            ok, reason = verify_path(
                tree, result.path, start=(0.5, 0.5), goal=(15.5, 15.5)
            )
            assert ok, reason


def test_sampling_session_counts_samples_lazily():
    world = random_world(2, 4, 0.2, seed=3, free_corners=True)
    with counted_neighbor_lookups() as lookups:
        result = PlannerSession(
            predicate=grid_predicate(world),
            dim=2,
            depth=4,
            start=(0.5, 0.5),
            goal=(15.5, 15.5),
            eps=0.5,
            gamma=0.05,
            samples=64,
        ).run()
    assert result.stats.new_samples <= result.stats.touched
    assert lookups == [result.stats.pops]


def test_verify_path_clause_order_and_messages():
    cells = np.zeros(16, dtype=np.uint8)
    world = GridWorld(2, 2, cells)
    cells[world.flat_index((3, 0))] = 1
    world = GridWorld(2, 2, cells)
    tree = build_from_grid(world)
    a, b = NodeIndex(0, (1, 1)), NodeIndex(0, (3, 1))
    diag = NodeIndex(0, (3, 3))
    obstacle = NodeIndex(0, (7, 1))
    internal = NodeIndex(1, (6, 2))

    ok, reason = verify_path(tree, [])
    assert not ok and "empty" in reason

    ok, reason = verify_path(tree, [a, diag])
    assert not ok and "neighbor" in reason

    ok, reason = verify_path(tree, [a, obstacle])
    assert (ok, reason) == (False, "node 1 covers an obstacle cell")

    ok, reason = verify_path(tree, [NodeIndex(0, (5, 1)), obstacle])
    assert not ok and "obstacle" in reason

    ok, reason = verify_path(tree, [internal, NodeIndex(0, (3, 5))])
    assert not ok and "covers an obstacle cell" in reason

    ok, reason = verify_path(tree, [a, b], start=(0.6, 0.6), goal=(3.9, 3.9))
    assert not ok and "goal" in reason
    ok, reason = verify_path(tree, [a, b], start=(3.0, 3.0), goal=(1.6, 0.5))
    assert not ok and "start" in reason

    ok, reason = verify_path(tree, [a, b], start=(0.6, 0.6), goal=(1.6, 0.5))
    assert ok and reason is None
    # an eps passed before start and goal is accepted and ignored
    for eps in (0.01, 0.5, 0.99):
        assert verify_path(tree, [a, b], eps, (0.6, 0.6), (1.6, 0.5)) == (True, None)
        ok, reason = verify_path(tree, [NodeIndex(0, (5, 1)), obstacle], eps)
        assert not ok and "obstacle" in reason


def test_verify_path_sampled_detects_covered_obstacles():
    cells = np.zeros(16, dtype=np.uint8)
    world = GridWorld(2, 2, cells)
    cells[world.flat_index((3, 0))] = 1
    world = GridWorld(2, 2, cells)
    from mspp.environments import grid_predicate

    pred = grid_predicate(world)
    good = [NodeIndex(0, (1, 1)), NodeIndex(0, (3, 1))]
    ok, reason = verify_path_sampled(pred, good, 2, (0.5, 0.5), (1.5, 0.5))
    assert ok, reason
    # a coarse node covering the obstacle cell fails the exhaustive check
    bad = [NodeIndex(0, (5, 1)), NodeIndex(1, (6, 2))]
    ok, reason = verify_path_sampled(pred, bad, 2, (2.5, 0.5), (3.5, 1.5))
    assert not ok and "obstacle" in reason
    # adjacency violations are still reported first
    ok, reason = verify_path_sampled(
        pred, [good[0], NodeIndex(0, (3, 3))], 2, (0.5, 0.5), (1.5, 1.5)
    )
    assert not ok and "neighbor" in reason


def test_verifiers_report_nodes_outside_the_world():
    from mspp.environments import grid_predicate

    world = corridor_world()
    tree = build_from_grid(world)
    pred = grid_predicate(world)
    a = NodeIndex(0, (1, 1))
    for bad in (NodeIndex(0, (9, 1)), NodeIndex(3, (8, 8)), NodeIndex(0, (2, 1))):
        ok, reason = verify_path(tree, [bad, a])
        assert not ok and "node 0" in reason and "world" in reason
        ok, reason = verify_path_sampled(pred, [a, bad], 2)
        assert not ok and "node 1" in reason and "world" in reason


def grid_path_rule(world: GridWorld, path, start, goal) -> bool:
    """The valid-path rule read cell by cell from the grid."""
    side = world.side
    grid = world.cells.reshape((side,) * world.dim)

    def in_world(idx) -> bool:
        k, c2 = idx
        return len(c2) == world.dim and 0 <= k <= world.depth and all(
            (c - (1 << k)) % (2 << k) == 0 and 0 <= c - (1 << k) < 2 * side
            for c in c2
        )

    def holds(idx, point) -> bool:
        lo, hi = node_bounds2(idx)
        return all(
            l <= 2 * x < h or 2 * x == h == 2 * side for l, h, x in zip(lo, hi, point)
        )

    if not path or not all(map(in_world, path)):
        return False
    for idx in path:
        lo, hi = node_bounds2(idx)
        # numpy axis a holds spatial axis dim - 1 - a
        cube = tuple(slice(l // 2, h // 2) for l, h in zip(lo[::-1], hi[::-1]))
        if grid[cube].any():
            return False
    return (
        all(interval_face_test(u, v) for u, v in zip(path, path[1:]))
        and (start is None or holds(path[0], start))
        and (goal is None or holds(path[-1], goal))
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_both_path_checks_apply_one_rule(data):
    # a random node list, mostly a walk over face neighbours of the same,
    # the next finer or the next coarser scale, so that the later clauses
    # are reached; a jump may leave the world, and now and then an
    # address is moved off its lattice
    draw = data.draw
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 4))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    world = random_world(dim, depth, density, seed=draw(st.integers(0, 2**16)))
    side = world.side
    sign = st.sampled_from([-1, 1])
    k, c2 = 0, []
    path = []
    for i in range(draw(st.integers(1, 5))):
        move = 0 if i == 0 else draw(st.integers(0, 7))
        if move == 0:
            k = draw(st.integers(0, depth + (i > 0)))
            top = max(depth - k, 0)
            low = -1 if i else 0
            c2 = [(2 * draw(st.integers(low, (1 << top) - 1 - low)) + 1) << k
                  for _ in range(dim)]
        else:
            a, s = draw(st.integers(0, dim - 1)), draw(sign)
            if not 0 < c2[a] + (s << k + 1) < 2 * side and draw(st.integers(0, 3)):
                s = -s
            c2[a] += s << k + 1
            if move == 1 and k > 0:
                # the neighbour's child on the shared face
                k -= 1
                face = c2[a] - (s << k)
                c2 = [c + (draw(sign) << k) for c in c2]
                c2[a] = face
            elif move == 2 and k < depth:
                # the neighbour's parent, which may hold the last node
                k += 1
                c2 = [c >> k + 1 << k + 1 | 1 << k for c in c2]
        bent = list(c2)
        bent[0] += draw(st.sampled_from([0] * 12 + [1, -2]))
        path.append(NodeIndex(k, tuple(bent)))

    def point(idx):
        lo, hi = node_bounds2(idx)
        return draw(st.sampled_from([
            None,
            tuple(c / 2 for c in idx.center2),
            tuple(c / 2 for c in lo),
            tuple(c / 2 for c in hi),
            tuple(draw(st.integers(0, 2 * side)) / 2 for _ in range(dim)),
        ]))

    start, goal = point(path[0]), point(path[-1])
    got = verify_path(build_from_grid(world), path, start=start, goal=goal)
    assert got == verify_path_sampled(grid_predicate(world), path, depth, start, goal)
    assert got[0] == grid_path_rule(world, path, start, goal)


@pytest.mark.parametrize("mode", ["exact", "map-free"])
def test_plan_returns_a_simple_path_on_a_looping_seed(mode):
    # on this map a planner that may step back onto its own trail returns
    # a path in which nearly half the nodes repeat earlier ones
    from mspp.environments import grid_predicate

    world = random_world(2, 3, 0.25, seed=13, free_corners=True)
    start, goal = (0.5, 0.5), (7.5, 7.5)
    if mode == "exact":
        tree = build_from_grid(world)
        result = PlannerSession(tree=tree, start=start, goal=goal).run()
        ok, reason = verify_path(tree, result.path, start=start, goal=goal)
    else:
        pred = grid_predicate(world)
        result = PlannerSession(
            predicate=pred, dim=2, depth=3, start=start, goal=goal
        ).run()
        ok, reason = verify_path_sampled(pred, result.path, 3, start, goal)
    assert result.status == SUCCESS
    assert len(set(result.path)) == len(result.path)
    assert ok, reason


def blocked_route_world():
    # 16x16 world: a wall across y=8 with a single gap at x=0
    cells = np.zeros(256, dtype=np.uint8)
    world = GridWorld(2, 4, cells)
    for x in range(1, 16):
        cells[world.flat_index((x, 8))] = 1
    return GridWorld(2, 4, cells)


def test_backtracking_recovers_from_seeded_false_flags():
    # seed the session's obstacle knowledge with a wrong coarse flag over
    # the wall gap; the walk must back out of dead ends, mark them blocked,
    # and still terminate
    world = blocked_route_world()
    from mspp.environments import grid_predicate

    session = PlannerSession(
        predicate=grid_predicate(world),
        dim=2,
        depth=4,
        start=(0.5, 0.5),
        goal=(15.5, 15.5),
        eps=0.5,
        gamma=0.05,
        samples=1024,
    )
    gap = NodeIndex(1, (2, 18))  # the block holding the only true gap
    session._values[gap] = math.inf
    result = session.run()
    assert result.status == NO_PATH
    assert result.blocked > 0
    # after exhausting every alternative the walk is back at the start
    assert len(session.trail) == 1


def test_backtracking_never_repeats_a_commitment():
    world = blocked_route_world()
    from mspp.environments import grid_predicate

    session = PlannerSession(
        predicate=grid_predicate(world),
        dim=2,
        depth=4,
        start=(0.5, 0.5),
        goal=(15.5, 15.5),
        eps=0.5,
        gamma=0.05,
        samples=1024,
    )
    session._values[NodeIndex(1, (2, 18))] = math.inf
    seen = set()
    while session.status is None:
        n = len(session.trail)
        session.step()
        # every hop a commit appends is a forward commitment; backtracks
        # revisit cells but never recommit
        for move in zip(session.trail[n - 1 :], session.trail[n:]):
            assert move not in seen
            seen.add(move)
    assert seen
    assert session.status == NO_PATH


def test_run_equals_stepping(capsys):
    world = random_world(2, 3, 0.2, seed=1, free_corners=True)
    tree = build_from_grid(world)
    a = PlannerSession(tree=tree, start=(0.5, 0.5), goal=(7.5, 7.5))
    b = PlannerSession(tree=tree, start=(0.5, 0.5), goal=(7.5, 7.5))
    ra = a.run()
    while b.status is None:
        b.step()
    rb = b.result()
    assert ra.status == rb.status
    assert ra.path == rb.path
    assert ra.cost == rb.cost
    assert ra.iterations == rb.iterations


@pytest.mark.parametrize("dim,depth", [(2, 4), (2, 5), (3, 3)])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "map-free"])
def test_lazy_lookups_plan_like_full_resolution(exact, dim, depth):
    # one session resolves its whole view through collect_leaves after
    # every refresh, the other only the nodes its descents reach
    side = 1 << depth
    for seed in range(6):
        world = random_world(dim, depth, 0.25, seed=seed, free_corners=True)
        kwargs = dict(start=(0.5,) * dim, goal=(side - 0.5,) * dim)
        if exact:
            kwargs["tree"] = build_from_grid(world)
        else:
            kwargs.update(
                predicate=grid_predicate(world), dim=dim, depth=depth, cell_picks=True
            )
        resolved = PlannerSession(**kwargs)
        lazy_refresh = resolved.refresh_view
        resolutions = []

        def refresh_and_resolve():
            lazy_refresh()
            resolutions.append(len(collect_leaves(resolved.rtree.root)))

        resolved.refresh_view = refresh_and_resolve
        while resolved.status is None:
            resolved.step()
        untouched = PlannerSession(**kwargs).run()
        assert len(resolutions) == untouched.iterations
        assert resolved.result() == untouched


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "map-free"])
def test_blocked_cells_stay_view_leaves(exact):
    # the walk backs out of dead ends; every cell it blocked stays visited,
    # so each later view holds it as a leaf (the search keeps out of it)
    blocked_total = 0
    for seed in (2, 4, 5):
        world = random_world(2, 4, 0.3, seed=seed, free_corners=True)
        kwargs = dict(start=(0.5, 0.5), goal=(15.5, 15.5))
        if exact:
            kwargs["tree"] = build_from_grid(world)
        else:
            kwargs.update(
                predicate=grid_predicate(world), dim=2, depth=4, cell_picks=True
            )
        session = PlannerSession(**kwargs)
        plain_refresh = session.refresh_view

        def refresh_and_check():
            plain_refresh()
            on_trail = set(session.trail)
            for key in session.visited.cells():
                cell = NodeIndex(*key)
                if cell not in on_trail:
                    assert session.rtree.find_vertex(cell) is not None, cell

        session.refresh_view = refresh_and_check
        result = session.run()
        blocked_total += result.blocked
        assert len(set(session.visited.cells())) == len(session.trail) + result.blocked
    assert blocked_total > 0


def test_map_free_classifications_wait_for_the_next_refresh():
    # With one sample a node, 2-D nodes above scale 0 are sampled: a
    # scale-1 node is flagged when its one sample hits.  Unit cells are
    # enumerated, so every view removes the occupied ones as a map would.
    # On this world the first search flags a scale-1 node.
    world = random_world(2, 4, 0.3, seed=4, free_corners=True)
    session = PlannerSession(
        predicate=grid_predicate(world),
        dim=2,
        depth=4,
        start=(0.5, 0.5),
        goal=(15.5, 15.5),
        samples=1,
        cell_picks=True,
    )
    occupied = {
        (0, tuple(2 * c + 1 for c in cell))
        for cell in product(range(16), repeat=2)
        if world.occupied(cell)
    }

    def flags():
        # flagged nodes read inf in the memo
        return {key for key, value in session._values.items() if value == math.inf}

    def view_of(flagged):
        # eps plays no part in a map-free view
        return eager_view(
            None, session.current, session.visited, 0.5, session.alpha,
            flagged | occupied,
        )

    session.refresh_view()
    flagged = flags()
    goal = find_containing(session.rtree.root, session.goal_center2)
    # the search advance() runs, without committing its step
    astar_lazy(
        session.rtree,
        session.rtree.find_vertex(session.current),
        goal,
        session.weight,
        session._values,
        excluded=session.visited.cells(),
    )
    learned_flags = flags()
    assert learned_flags > flagged
    assert {key[0] for key in learned_flags} == {1}
    learned = view_of(learned_flags)
    assert learned != view_of(flagged)
    # nodes decided after the search still follow what was known at refresh
    assert view_snapshot(session.rtree) == view_of(flagged)
    session.refresh_view()
    assert view_snapshot(session.rtree) == learned


class CountedPredicate:
    """A predicate that records every batch of points it is asked."""

    def __init__(self, predicate):
        self._batch = batch_of(predicate)
        self.asked = []

    def __call__(self, point) -> bool:
        return bool(self.batch(np.asarray([point], dtype=np.float64))[0])

    def batch(self, points):
        self.asked.append(np.array(points))
        return self._batch(points)


def test_map_free_draws_no_sample_that_cannot_change_the_plan():
    # At the defaults (weight 0, samples 256, eps 0.5, gamma 0.1) no
    # sampled 3-D scale can flag a node, and a node's value enters no
    # cost, so the session asks the predicate only about unit-cell centers
    # (enumeration) and keeps no estimate above the enumeration cutoff.
    # At weight 1 the values enter the cost, and the nodes above the
    # cutoff draw their samples.
    for weight in ({}, {"weight": 1.0}):
        counted = CountedPredicate(random_spheres(3, 5, 1))
        session = PlannerSession(
            predicate=counted, dim=3, depth=5, start=(0.5,) * 3, goal=(31.5,) * 3,
            **weight,
        )
        assert session.run().success
        estimator = session.estimator
        cutoff = estimator.exact_cutoff
        assert flag_band_end(3, 5, 256, 0.5, 0.1) == cutoff + 1
        assert any(k > cutoff for k, _ in session._values)
        sampled = [k for k, _ in estimator._cache if k > cutoff]
        points = np.concatenate(counted.asked)
        if weight:
            assert sampled
            assert not np.all(points % 1 == 0.5)
        else:
            assert not sampled
            assert np.all(points % 1 == 0.5)


def test_map_free_at_weight_0_still_samples_the_flag_band():
    # 4 samples, eps 0.9 and gamma 0.01 in 2-D: scales 2 and 3 lie in the
    # flag band (cutoff 1), so their nodes draw and can be flagged even at
    # weight 0, while the scale-4 nodes the search reaches draw nothing
    predicate = parse_predicate("spheres:8,8,6;24,20,7;10,26,5", 2, 32)
    session = PlannerSession(
        predicate=predicate, dim=2, depth=5, start=(0.5, 0.5), goal=(31.5, 31.5),
        samples=4, eps=0.9, gamma=0.01,
    )
    assert session.weight == 0.0
    assert session.run().success
    assert flag_band_end(2, 5, 4, 0.9, 0.01) == 4
    reached = {k for k, _ in session._values}
    assert {2, 3, 4} <= reached
    assert {k for k, _ in session.estimator._cache} == {0, 1, 2, 3}
    flagged = {k for k, value in session._values.items() if value == math.inf}
    assert flagged and {k for k, _ in flagged} <= {2, 3}


def current_leaf(rtree, key) -> bool:
    """The key is a leaf of the view decided in its current generation.

    Walks down from the root through current-generation children only, so
    it decides nothing.
    """
    scale, c2 = key
    node = rtree.root
    while node is not None and node.gen == rtree.root.gen:
        if node.scale == scale and node.center2 == c2:
            return node.children is None
        if node.children is None or node.scale <= scale:
            return False
        slot = 0
        for j, (c, n) in enumerate(zip(c2, node.center2)):
            if c >= n:
                slot |= 1 << j
        node = node.children[slot]
    return False


@pytest.mark.parametrize("dim,depth", [(2, 4), (3, 3)])
@pytest.mark.parametrize("cell_picks", [True, False], ids=["cells", "points"])
def test_map_free_fills_only_leaves_decided_this_generation(dim, depth, cell_picks):
    # The views read the memo live.  That is exact because every node the
    # memo learns about after the first refresh is a leaf the current
    # generation has already decided, which it never decides again.
    side = 1 << depth
    late = 0
    for seed in range(4):
        world = random_world(dim, depth, 0.3, seed=seed, free_corners=True)
        session = PlannerSession(
            predicate=grid_predicate(world),
            dim=dim,
            depth=depth,
            start=(0.5,) * dim,
            goal=(side - 0.5,) * dim,
            seed=seed,
            cell_picks=cell_picks,
        )
        fill = session._values.fill

        def checked_fill(idx):
            nonlocal late
            if session.rtree.root.gen:
                late += 1
                assert current_leaf(session.rtree, idx), idx
            return fill(idx)

        session._values.fill = checked_fill
        session.run()
    assert late


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([1, 4, 8, 64, 256]),
    st.sampled_from([0.1, 0.3, 0.5, 0.8]),
    st.integers(0, 2**16 - 1),
)
def test_map_free_decides_enumerable_nodes_as_the_map(dim, depth, samples, density, seed):
    # at or below the enumeration cutoff a map-free view reads a node the
    # way it reads the map's node: obstacle when full, split when mixed
    world = random_world(dim, depth, density, seed=seed)
    state = PlannerSession(
        predicate=grid_predicate(world),
        dim=dim,
        depth=depth,
        start=(0.5,) * dim,
        goal=(0.5,) * dim,
        samples=samples,
        cell_picks=True,
    )._state
    tree_state = OccupancyTree(world).state
    for k in range(min(exact_scale_cutoff(dim, samples), depth) + 1):
        for cell in product(range(1 << (depth - k)), repeat=dim):
            c2 = tuple((2 * i + 1) << k for i in cell)
            assert state(k, c2) == tree_state(k, c2), (k, c2)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 2), (3, 3)]),
    st.sampled_from(["bernoulli", "blobs"]),
    st.sampled_from([0.2, 0.3, 0.4]),
    st.integers(0, 2**16 - 1),
    st.sampled_from([0.0, 1.0]),
)
def test_plan_agrees_with_grid_search(shape, kind, density, seed, weight):
    # both modes, on small maps whose nodes the defaults classify exactly,
    # planning for length (the default weight 0) or with occupancy in the
    # cost: same reachability as uniform grid A*, simple verified paths,
    # and never a budget hit
    from mspp.environments import GeneratorSpec, generate_map

    dim, depth = shape
    side = 1 << depth
    world = generate_map(
        GeneratorSpec(
            dim, depth, density, kind=kind, seed=seed, free_start=True, free_goal=True
        )
    )
    reachable = uniform_astar(world, (0,) * dim, (side - 1,) * dim).reachable
    start, goal = (0.5,) * dim, (side - 0.5,) * dim
    tree = build_from_grid(world)
    pred = grid_predicate(world)
    for exact in (True, False):
        if exact:
            result = PlannerSession(
                tree=tree, start=start, goal=goal, weight=weight
            ).run()
        else:
            result = PlannerSession(
                predicate=pred, dim=dim, depth=depth, start=start, goal=goal,
                weight=weight, cell_picks=True,
            ).run()
        assert result.status != BUDGET_EXCEEDED
        assert result.success == reachable
        if result.success:
            assert len(set(result.path)) == len(result.path)
            if exact:
                ok, reason = verify_path(tree, result.path, start=start, goal=goal)
            else:
                ok, reason = verify_path_sampled(pred, result.path, depth, start, goal)
            assert ok, reason


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("dim,depth", [(1, 5), (2, 4), (3, 3)])
def test_small_alpha_agrees_with_grid_search(dim, depth, alpha):
    # Below alpha of about sqrt(dim) / 2 the far window can keep a node
    # beside the focus coarse; the view splits it all the same, so the walk
    # always has a fine first hop and never blocks a free cell for want
    # of one.
    side = 1 << depth
    start, goal = (0.5,) * dim, (side - 0.5,) * dim
    for seed in range(6):
        world = random_world(dim, depth, 0.25, seed=seed, free_corners=True)
        reachable = uniform_astar(world, (0,) * dim, (side - 1,) * dim).reachable
        for exact in (True, False):
            kwargs = mode_kwargs(world, exact)
            result = PlannerSession(start=start, goal=goal, alpha=alpha, **kwargs).run()
            assert result.success == reachable, (seed, exact, result.status)
            if not result.success:
                continue
            if exact:
                ok, reason = verify_path(kwargs["tree"], result.path, start=start, goal=goal)
            else:
                ok, reason = verify_path_sampled(
                    kwargs["predicate"], result.path, depth, start, goal
                )
            assert ok, reason


@pytest.mark.parametrize("exact", [True, False])
def test_sessions_at_two_alphas_interleaved_return_what_each_returns_alone(exact):
    # window thresholds are computed once per process and shared by every
    # view: two sessions stepping in turn, one at alpha 1 and one at 0.25,
    # each end as they do alone, from a cache emptied before each run
    world = random_world(2, 5, 0.25, seed=3, free_corners=True)
    kwargs = mode_kwargs(world, exact)
    ends = dict(start=(0.5, 0.5), goal=(31.5, 31.5))
    alphas = (1.0, 0.25)
    alone = []
    for alpha in alphas:
        window_thresholds.cache_clear()
        alone.append(PlannerSession(alpha=alpha, **ends, **kwargs).run())
    assert alone[0].iterations != alone[1].iterations
    window_thresholds.cache_clear()
    sessions = [PlannerSession(alpha=alpha, **ends, **kwargs) for alpha in alphas]
    assert_interleaved_end_as_alone(sessions, alone)
    # the shared result is one object per argument tuple, and read-only
    thresholds, _, beside = window_thresholds(2, 5, 0.25, 0)
    assert window_thresholds(2, 5, 0.25, 0)[0] is thresholds
    with pytest.raises(TypeError):
        thresholds[0] = 0
    with pytest.raises(TypeError):
        beside[0] = True


def assert_interleaved_end_as_alone(sessions, alone):
    """Step the sessions in turn to the end; each returns what it did alone."""
    while any(session.status is None for session in sessions):
        for session in sessions:
            session.step()
    for session, want in zip(sessions, alone):
        got = session.result()
        assert (got.status, got.path, got.cost, got.iterations, got.blocked, got.stats) == (
            want.status, want.path, want.cost, want.iterations, want.blocked, want.stats
        )


def test_sessions_toward_two_goals_on_one_tree_learn_apart():
    # each session learns cost-to-go toward its own goal: two sessions on
    # one shared tree (as local-exact shares its maps), stepped in turn,
    # each end as they do alone
    tree = build_from_grid(random_world(2, 5, 0.25, seed=3, free_corners=True))
    ends = [((0.5, 0.5), (31.5, 31.5)), ((31.5, 31.5), (0.5, 0.5))]
    alone = [PlannerSession(tree=tree, start=a, goal=b).run() for a, b in ends]
    assert all(result.success for result in alone)
    sessions = [PlannerSession(tree=tree, start=a, goal=b) for a, b in ends]
    assert_interleaved_end_as_alone(sessions, alone)


def mode_kwargs(world: GridWorld, exact: bool) -> dict:
    if exact:
        return {"tree": build_from_grid(world)}
    return {
        "predicate": grid_predicate(world),
        "dim": world.dim,
        "depth": world.depth,
        "cell_picks": True,
    }


@pytest.mark.parametrize("depth", [4, 5])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "map-free"])
def test_snake_maze_walks_the_shortest_corridor(exact, depth):
    world = snake_world(depth)
    side = 1 << depth
    start, goal = (0.5, 0.5), (side - 0.5, side - 0.5)
    base = uniform_astar(world, (0, 0), (side - 1, side - 1))
    assert base.reachable
    result = PlannerSession(start=start, goal=goal, **mode_kwargs(world, exact)).run()
    assert result.status == SUCCESS
    # one unit cell per grid step, plus the start
    assert len(result.path) == len(base.path)
    assert len(set(result.path)) == len(result.path)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "map-free"])
def test_sealed_wall_ends_in_no_path(exact, labellings):
    # a full plane of obstacles splits a 16^3 world in two
    wall = WallWithGap(0, 8.0, 0.0, (8.0,) * 3)
    start, goal = (0.5,) * 3, (15.5,) * 3
    if exact:
        tree = build_from_grid(realize_grid(wall, 3, 4))
        result = PlannerSession(tree=tree, start=start, goal=goal).run()
        assert_no_path_at_first_failed_search(result, labellings)
    else:
        session = PlannerSession(predicate=wall, dim=3, depth=4, start=start, goal=goal)
        result = session.run()
        # the walk exhausts its alternatives well within the budget
        assert result.iterations < session.budget
    assert result.status == NO_PATH


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "map-free"])
def test_five_dimensional_worlds_agree_with_grid_search(exact, depth):
    world = random_world(5, depth, 0.2, seed=0, free_corners=True)
    side = 1 << depth
    start, goal = (0.5,) * 5, (side - 0.5,) * 5
    reachable = uniform_astar(world, (0,) * 5, (side - 1,) * 5).reachable
    kwargs = mode_kwargs(world, exact)
    for weight in (0.0, 1.0):
        result = PlannerSession(start=start, goal=goal, weight=weight, **kwargs).run()
        assert result.success == reachable, weight
        if not result.success:
            continue
        if exact:
            ok, reason = verify_path(kwargs["tree"], result.path, start=start, goal=goal)
        else:
            ok, reason = verify_path_sampled(
                kwargs["predicate"], result.path, depth, start, goal
            )
        assert ok, reason


def test_map_free_query_at_max_depth():
    side = 1 << MAX_DEPTH
    wall = WallWithGap(0, 20.0, 4.0, (side / 2.0, 30.0))
    start, goal = (0.5, 0.5), (40.5, 33.5)
    result = PlannerSession(
        predicate=wall, dim=2, depth=MAX_DEPTH, start=start, goal=goal
    ).run()
    assert result.status == SUCCESS
    ok, reason = verify_path_sampled(wall, result.path, MAX_DEPTH, start, goal)
    assert ok, reason


@pytest.mark.parametrize("sealed", [False, True], ids=["gap", "sealed"])
def test_exact_query_at_max_depth(sealed, labellings):
    # The wall of the map-free test above, painted on a 2**MAX_DEPTH grid.
    # A sealed wall ends at the walk's first failed search, which labels
    # all 2**(2 * MAX_DEPTH) cells once.
    side = 1 << MAX_DEPTH
    cells = np.zeros((side, side), dtype=np.uint8)  # numpy axes: y, x
    cells[:, 20] = 1
    if not sealed:
        cells[28:32, 20] = 0
    world = GridWorld(2, MAX_DEPTH, cells)
    start, goal = (0.5, 0.5), (40.5, 33.5)
    tree = build_from_grid(world)
    result = PlannerSession(tree=tree, start=start, goal=goal).run()
    if sealed:
        assert_no_path_at_first_failed_search(result, labellings)
    else:
        assert result.status == SUCCESS
        ok, reason = verify_path(tree, result.path, start=start, goal=goal)
        assert ok, reason


def test_grid_connected_labels_each_tree_once(labellings):
    # A walk with no dead end never labels its map.
    free = build_from_grid(GridWorld(2, 4, np.zeros(256, dtype=np.uint8)))
    for start, goal in [((0.5, 0.5), (15.5, 15.5)), ((15.5, 0.5), (0.5, 9.5))]:
        result = PlannerSession(tree=free, start=start, goal=goal).run()
        assert result.status == SUCCESS
        assert result.blocked == 0
    assert labellings == []
    # Seed 2's walk from the origin backs out of dead ends, so each tree is
    # labelled at its first one, and only there.
    world = random_world(2, 4, 0.3, seed=2, free_corners=True)
    tree = build_from_grid(world)
    other = build_from_grid(world)
    blocked = []
    for start, goal in [((0.5, 0.5), (15.5, 15.5)), ((15.5, 15.5), (0.5, 0.5))] * 2:
        for t in (tree, other):
            result = PlannerSession(tree=t, start=start, goal=goal).run()
            assert result.status == SUCCESS
            blocked.append(result.blocked)
    assert blocked[0] > 0
    assert len(labellings) == 2
    assert all(same_world(call, world) for call in labellings)


@pytest.mark.parametrize("budget", [0, 1])
def test_unreachable_exact_query_out_of_budget_ends_in_no_path(budget, labellings):
    # The walled world's walk commits one search before its first dead
    # end, so both budgets run out first.  The labels are asked at the
    # budget instead; a reachable query still ends budget_exceeded.
    tree = build_from_grid(walled_world())
    result = PlannerSession(
        tree=tree, start=(0.5, 0.5), goal=(7.5, 7.5), budget=budget
    ).run()
    assert result.status == NO_PATH
    assert (result.iterations, result.blocked) == (budget, 0)
    assert len(labellings) == 1
    result = PlannerSession(
        tree=tree, start=(0.5, 0.5), goal=(3.5, 7.5), budget=0
    ).run()
    assert result.status == BUDGET_EXCEEDED
    assert len(labellings) == 1


def test_map_free_depth_past_the_key_range_is_rejected():
    wall = WallWithGap(0, 20.0, 4.0, (8.0, 30.0))
    with pytest.raises(ValueError, match="depth must be in"):
        PlannerSession(
            predicate=wall, dim=2, depth=MAX_DEPTH + 1, start=(0.5, 0.5), goal=(1.5, 1.5)
        )


@pytest.mark.parametrize("dim", [0, -1])
def test_map_free_dim_below_one_is_rejected(dim):
    # refused by the session itself: dim -1 would otherwise fail first in
    # the cost bound's square root
    with pytest.raises(ValueError, match="dim must be >= 1"):
        PlannerSession(predicate=lambda p: False, dim=dim, depth=3, start=(), goal=())


@pytest.mark.parametrize("maze", [True, False], ids=["snake", "backtracking"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "map-free"])
def test_each_iteration_commits_a_fine_prefix(exact, maze):
    # seed 2 is reachable, and its walk backs out of 18 dead ends
    world = snake_world(4) if maze else random_world(2, 4, 0.3, seed=2, free_corners=True)
    session = PlannerSession(
        start=(0.5, 0.5), goal=(15.5, 15.5), **mode_kwargs(world, exact)
    )
    hops = 0
    while session.status is None:
        before = list(session.trail)
        session.step()
        trail = session.trail
        if len(trail) <= len(before):
            continue
        # a commit keeps the old trail and appends fine, adjacent nodes
        assert trail[: len(before)] == before
        for prev, hop in zip(trail[len(before) - 1 :], trail[len(before) :]):
            assert session._is_fine(hop)
            assert are_neighbors(prev, hop)
            hops += 1
        assert len(set(trail)) == len(trail)
    assert session.status == SUCCESS
    assert maze or session.blocked > 0
    if maze:
        # the corridors lie on exact cells, so searches commit several hops
        assert session.iterations < hops
