"""Focus-window geometry, path tracking, and view refresh semantics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    covers,
    eager_view,
    full_rtree,
    has_node,
    interval_face_test,
    is_leaf,
    leaf_at_point,
    node_bounds2,
    parent_of,
    random_index,
    random_world,
    state_source,
    stored_nodes,
    view_snapshot,
    window_far_oracle,
)
from mspp.neighbors import are_neighbors, collect_leaves, find_neighbors
from mspp.search import astar_lazy
from mspp.reduced import (
    CellTracker,
    ReducedTree,
    refresh,
    window_thresholds,
)
from mspp.tree import GridWorld, NodeIndex, build_from_grid


def leaf_keys(rtree):
    return {NodeIndex(v.scale, v.center2) for v in collect_leaves(rtree.root)}


def fresh_equivalent(session):
    """Rebuild the session's view from scratch with identical inputs."""
    twin = ReducedTree(session.dim, session.depth)
    state = state_source(session.tree)
    refresh(twin, state, session.current, session.visited, session.alpha)
    return twin


def checkerboard_world(depth):
    side = 1 << depth
    cells = np.zeros(side * side, dtype=np.uint8)
    world = GridWorld(2, depth, cells)
    for x in range(side):
        for y in range(side):
            cells[world.flat_index((x, y))] = (x + y) & 1
    return GridWorld(2, depth, cells)


def window_far(idx, current, alpha):
    """The far test refresh makes, read off window_thresholds."""
    dim, depth = len(idx.center2), max(idx.scale, current.scale)
    thresholds, den_sq, _ = window_thresholds(dim, depth, alpha, current.scale)
    s = sum((a - b) ** 2 for a, b in zip(idx.center2, current.center2))
    return s * den_sq >= thresholds[idx.scale]


def test_window_far_examples():
    current = NodeIndex(0, (1, 1))
    # a unit node two cells away on one axis is outside the unit window
    assert window_far(NodeIndex(0, (9, 1)), current, 1.0)
    # the cell next door is not
    assert not window_far(NodeIndex(0, (3, 1)), current, 1.0)
    # larger nodes need proportionally more distance
    assert not window_far(NodeIndex(2, (4, 4)), current, 1.0)
    assert window_far(NodeIndex(2, (28, 4)), current, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0]),
    st.integers(0, 2**32 - 1),
)
def test_window_far_matches_exact_oracle(dim, depth, alpha, seed):
    rng = np.random.default_rng(seed)
    idx = random_index(rng, dim, depth)
    current = random_index(rng, dim, depth)
    assert window_far(idx, current, alpha) == window_far_oracle(idx, current, alpha)


def test_window_far_boundary_is_exact():
    # d=1, alpha=1: node at scale 0, current at scale 0, threshold is
    # 2 + 1 = 3 in doubled units; distance 3 is not far under >=? distance
    # must reach alpha * 2^(k+1) + sqrt(d) * 2^(k_i) = 2 + 1 = 3 exactly
    current = NodeIndex(0, (1,))
    assert window_far(NodeIndex(0, (5,)), current, 1.0) == window_far_oracle(
        NodeIndex(0, (5,)), current, 1.0
    )
    # alpha = 0.5 makes the d=1 threshold exactly 2; distance 2 is far
    assert window_far(NodeIndex(0, (3,)), current, 0.5)
    assert window_far_oracle(NodeIndex(0, (3,)), current, 0.5)
    # sqrt(d) is irrational for d=2, so equality never occurs; sweep a line
    current2 = NodeIndex(0, (1, 1))
    for x in range(1, 40, 2):
        idx = NodeIndex(0, (x, 1))
        assert window_far(idx, current2, 1.0) == window_far_oracle(
            idx, current2, 1.0
        )


def test_window_thresholds_reject_bad_alpha():
    with pytest.raises(ValueError):
        window_thresholds(2, 3, 0.0, 0)
    with pytest.raises(ValueError):
        window_thresholds(2, 3, -1.0, 0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
def test_beside_flag_is_off_only_where_no_adjacent_node_is_far(dim, alpha):
    # brute force over every node of a depth-4 world, against foci at the
    # corner and in the middle: wherever the flag is off at a scale, no
    # node of that scale that shares a face with the focus is far
    depth = 4
    for focus_scale in range(3):
        _, _, beside = window_thresholds(dim, depth, alpha, focus_scale)
        half = 1 << focus_scale
        foci = [
            NodeIndex(focus_scale, (half,) * dim),
            NodeIndex(focus_scale, ((1 << depth) + half,) * dim),
        ]
        for k in range(depth + 1):
            if beside[k]:
                continue
            axis = range(1 << k, 2 << depth, 2 << k)
            for c2 in itertools.product(axis, repeat=dim):
                node = NodeIndex(k, c2)
                for focus in foci:
                    if interval_face_test(node, focus):
                        assert not window_far_oracle(node, focus, alpha), (node, focus)


def test_cell_tracker_examples():
    tracker = CellTracker(2, 3)
    assert not tracker.cells()
    cell = NodeIndex(0, (5, 3))
    tracker.add(cell)
    assert NodeIndex(0, (5, 3)) in tracker.cells()
    # every ancestor region containing the member center reports coverage
    assert covers(tracker, NodeIndex(3, (8, 8)))
    assert covers(tracker, NodeIndex(1, (6, 2)))
    assert not covers(tracker, NodeIndex(1, (2, 2)))
    assert not covers(tracker, NodeIndex(0, (3, 3)))
    tracker.discard(cell)
    assert not tracker.cells()
    assert not covers(tracker, NodeIndex(3, (8, 8)))


def test_cell_tracker_set_semantics():
    tracker = CellTracker(2, 2)
    cell = NodeIndex(0, (1, 1))
    tracker.add(cell)
    tracker.add(cell)
    # a cell added twice is one member, and one discard removes it
    assert list(tracker.cells()) == [cell]
    assert covers(tracker, NodeIndex(2, (4, 4)))
    tracker.discard(cell)
    assert not tracker.cells()
    assert not covers(tracker, NodeIndex(2, (4, 4)))
    # discarding a cell that is not a member leaves the members as they are
    other = NodeIndex(0, (3, 3))
    tracker.add(other)
    tracker.discard(cell)
    assert set(tracker.cells()) == {other}
    assert covers(tracker, NodeIndex(1, (2, 2)))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_cell_tracker_matches_geometric_scan(dim, depth, seed):
    rng = np.random.default_rng(seed)
    tracker = CellTracker(dim, depth)
    members = [random_index(rng, dim, depth) for _ in range(8)]
    for m in members:
        tracker.add(m)
    gone = members[: len(members) // 2]
    for m in gone:
        tracker.discard(m)
    # a discarded cell is gone, also when it was added more than once
    assert set(tracker.cells()) == set(members) - set(gone)
    # with no node splitting on its own, refresh splits exactly the nodes
    # that hold a member's center and are not members themselves
    rtree = ReducedTree(dim, depth)
    focus = members[len(members) // 2]
    refresh(rtree, lambda k, c2: (False, False), focus, tracker, alpha=1.0)
    for idx, leaf in view_snapshot(rtree).items():
        assert (not leaf) == (covers(tracker, idx) and idx not in tracker.cells())


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.booleans(), st.integers(0, 5)), max_size=40),
)
def test_cell_tracker_ancestor_set_is_the_union_of_live_lineages(dim, depth, seed, ops):
    # add stops at the first ancestor key already recorded, which is sound
    # only while the set stays closed upward: after any add and discard
    # sequence, repeated cells, nested ones and discards of non-members
    # included, it holds exactly the live members and all their ancestors
    rng = np.random.default_rng(seed)
    pool = [random_index(rng, dim, depth) for _ in range(6)]
    tracker = CellTracker(dim, depth)
    live = set()
    for add, i in ops:
        cell = pool[i]
        if add:
            tracker.add(cell)
            live.add(cell)
        else:
            tracker.discard(cell)
            live.discard(cell)
        lineages = set()
        for key in live:
            lineages.add(key)
            while key.scale < depth:
                key = parent_of(key)
                lineages.add(key)
        assert tracker._anc == lineages
        assert set(tracker.cells()) == live


def test_refresh_uniform_free_world_keeps_single_leaf():
    world = GridWorld(2, 3, np.zeros(64, dtype=np.uint8))
    tree = build_from_grid(world)
    rtree = ReducedTree(2, 3)
    path = CellTracker(2, 3)
    current = tree.leaf_at((0.5, 0.5))
    path.add(current)
    refresh(rtree, state_source(tree), current, path, alpha=1.0)
    assert leaf_keys(rtree) == {(3, (8, 8))}


def window_stop_predicate(tree, rtree, current, path, alpha):
    """Independent restatement of the leaf condition for exact refreshes.

    A node may be a vertex only when it is a source-tree leaf, or it is far
    from the focus and carries no path member; internal vertices violate it.
    """
    ok = True
    for idx in leaf_keys(rtree):
        is_tree_leaf = is_leaf(tree, idx) if has_node(tree, idx) else True
        far = window_far_oracle(idx, current, alpha)
        has_path = covers(path, idx)
        if not (is_tree_leaf or (far and not has_path)):
            ok = False
    return ok


def test_refresh_vertices_satisfy_window_predicate():
    world = checkerboard_world(3)
    tree = build_from_grid(world)
    rtree = ReducedTree(2, 3)
    path = CellTracker(2, 3)
    current = NodeIndex(0, (1, 1))
    path.add(current)
    refresh(rtree, state_source(tree), current, path, alpha=1.0)
    assert window_stop_predicate(tree, rtree, current, path, 1.0)
    # near nodes got subdivided to source-tree leaves, far ones stayed coarse
    scales = {v.scale for v in leaf_keys(rtree)}
    assert 0 in scales and max(scales) >= 1
    # the focus cell itself is present at unit scale
    assert rtree.find_vertex(current) is not None


def test_refresh_near_region_reaches_tree_leaves():
    rng = np.random.default_rng(12)
    world = GridWorld(2, 4, (rng.random(256) < 0.3).astype(np.uint8))
    tree = build_from_grid(world)
    rtree = ReducedTree(2, 4)
    path = CellTracker(2, 4)
    current = tree.leaf_at((0.5, 0.5))
    path.add(current)
    refresh(rtree, state_source(tree), current, path, alpha=1.0)
    assert window_stop_predicate(tree, rtree, current, path, 1.0)
    for idx in leaf_keys(rtree):
        if not window_far_oracle(idx, current, 1.0):
            # near vertices are exactly the source-tree leaves there
            assert is_leaf(tree, idx)


def paint_cells(rtree, dim, depth):
    """Mark unit cells covered by vertices; verify pairwise disjointness."""
    side = 1 << depth
    painted = np.zeros((side,) * dim, dtype=np.int32)
    for v in leaf_keys(rtree):
        lo2, hi2 = node_bounds2(v)
        slices = tuple(slice(a // 2, b // 2) for a, b in zip(lo2, hi2))
        painted[slices] += 1
    return painted


def test_refresh_partition_and_obstacle_freeness():
    rng = np.random.default_rng(4)
    for seed in range(5):
        world = random_world(2, 4, 0.3, seed=seed, free_corners=True)
        tree = build_from_grid(world)
        rtree = ReducedTree(2, 4)
        path = CellTracker(2, 4)
        current = tree.leaf_at((0.5, 0.5))
        path.add(current)
        refresh(rtree, state_source(tree), current, path, alpha=1.0)
        painted = paint_cells(rtree, 2, 4)
        assert painted.max() <= 1
        # no vertex is an obstacle
        for v in leaf_keys(rtree):
            assert not tree.is_obstacle(v)
        # every unpainted cell lies under some obstacle ancestor
        for x, y in zip(*np.nonzero(painted == 0)):
            c2 = (2 * int(x) + 1, 2 * int(y) + 1)
            chain = NodeIndex(0, c2)
            covered = False
            for k in range(0, 5):
                step = 2 << k
                a2 = tuple(((c >> (k + 1)) << (k + 1)) + (1 << k) for c in c2)
                if tree.is_obstacle(NodeIndex(k, a2)):
                    covered = True
                    break
            assert covered


def test_refresh_keeps_blocked_cells_as_leaves():
    # a blocked cell stays visited: the view refines around it and keeps it
    # as a leaf, and the search, handed the visited cells, never enters it
    cells = np.zeros(64, dtype=np.uint8)
    world = GridWorld(2, 3, cells)
    cells[world.flat_index((0, 0))] = 1
    world = GridWorld(2, 3, cells)
    tree = build_from_grid(world)
    rtree = ReducedTree(2, 3)
    visited = CellTracker(2, 3)
    current = NodeIndex(0, (3, 3))
    dead = NodeIndex(0, (3, 1))
    visited.add(dead)
    visited.add(current)
    refresh(rtree, state_source(tree), current, visited, alpha=1.0)
    leaf = rtree.find_vertex(dead)
    assert leaf is not None and leaf_at_point(rtree, (1.5, 0.5)) is leaf
    start = rtree.find_vertex(current)
    assert start is not None
    values = {v: tree.value(v) for v in leaf_keys(rtree)}
    assert astar_lazy(rtree, start, leaf, 1.0, values) == [current, dead]
    assert astar_lazy(rtree, start, leaf, 1.0, values, excluded=visited.cells()) is None
    # map-free: a blocked cell is a leaf at whatever scale it was tried
    rtree2 = ReducedTree(2, 3)
    visited2 = CellTracker(2, 3)
    visited2.add(current)
    coarse_dead = NodeIndex(1, (6, 2))
    visited2.add(coarse_dead)
    refresh(rtree2, state_source(), current, visited2, alpha=1.0)
    leaf = rtree2.find_vertex(coarse_dead)
    assert leaf is not None and leaf_at_point(rtree2, (3.0, 1.0)) is leaf
    start = rtree2.find_vertex(current)
    values = dict.fromkeys(leaf_keys(rtree2), 0.0)
    assert astar_lazy(rtree2, start, leaf, 1.0, values) == [current, coarse_dead]
    excluded = visited2.cells()
    assert astar_lazy(rtree2, start, leaf, 1.0, values, excluded=excluded) is None


def test_refresh_prunes_known_obstacles_and_keeps_known_free():
    path = CellTracker(2, 3)
    current = NodeIndex(0, (1, 1))
    path.add(current)
    bad = NodeIndex(0, (3, 1))
    free_block = NodeIndex(1, (6, 2))
    obstacles = {bad}
    free = {free_block}
    rtree = ReducedTree(2, 3)
    refresh(rtree, state_source(None, obstacles, free), current, path, alpha=1.0)
    assert rtree.find_vertex(bad) is None
    assert leaf_at_point(rtree, (1.5, 0.5)) is None
    # known-free block stays a single vertex instead of splitting to units
    kept = rtree.find_vertex(free_block)
    assert kept is not None
    assert (kept.scale, kept.center2) == (1, (6, 2))
    # without the free mark the same block refines to unit cells
    rtree2 = ReducedTree(2, 3)
    refresh(rtree2, state_source(), current, path, alpha=1.0)
    assert rtree2.find_vertex(free_block) is None
    sub = leaf_at_point(rtree2, (3.0, 1.0))
    assert sub is not None and sub.scale == 0


def test_refresh_rejects_focus_outside_world():
    rtree = ReducedTree(2, 3)
    path = CellTracker(2, 3)
    world = GridWorld(2, 3, np.zeros(64, dtype=np.uint8))
    tree = build_from_grid(world)
    with pytest.raises(ValueError):
        refresh(rtree, state_source(tree), NodeIndex(0, (99, 1)), path, 1.0)


def test_refresh_incremental_matches_fresh_rebuild():
    from mspp.search import PlannerSession

    for seed in (0, 1, 2):
        world = random_world(2, 4, 0.25, seed=seed, free_corners=True)
        tree = build_from_grid(world)
        session = PlannerSession(
            tree=tree,
            start=(0.5, 0.5),
            goal=(15.5, 15.5),
            eps=0.5,
            alpha=1.0,
        )
        steps = 0
        while session.status is None and not session.goal_reached() and steps < 200:
            session.refresh_view()
            twin = fresh_equivalent(session)
            assert view_snapshot(session.rtree) == view_snapshot(twin)
            assert leaf_keys(session.rtree) == leaf_keys(twin)
            session.advance()
            steps += 1


def test_refresh_reuses_surviving_nodes_in_place():
    world = GridWorld(2, 4, np.zeros(256, dtype=np.uint8))
    cells = world.cells.copy()
    grid = GridWorld(2, 4, cells)
    # scatter obstacles away from the walk so the region subdivides
    for cell in [(9, 9), (10, 13), (13, 10)]:
        cells[grid.flat_index(cell)] = 1
    world = GridWorld(2, 4, cells)
    tree = build_from_grid(world)
    rtree = ReducedTree(2, 4)
    path = CellTracker(2, 4)
    first = NodeIndex(0, (1, 1))
    path.add(first)
    refresh(rtree, state_source(tree), first, path, alpha=1.0)
    # the quadrant away from both focus cells stays a single coarse vertex
    survivor = rtree.find_vertex(NodeIndex(3, (24, 24)))
    assert survivor is not None
    second = NodeIndex(0, (3, 1))
    path.add(second)
    refresh(rtree, state_source(tree), second, path, alpha=1.0)
    again = rtree.find_vertex(NodeIndex(3, (24, 24)))
    assert again is survivor


def test_vertices_single_leaf_and_full_subdivision():
    rtree = ReducedTree(2, 2)
    verts = collect_leaves(rtree.root)
    assert [(v.scale, v.center2) for v in verts] == [(2, (4, 4))]
    full = full_rtree(2, 2)
    keyed = [(v.scale, v.center2) for v in collect_leaves(full.root)]
    assert len(keyed) == 16
    assert keyed == sorted(keyed)
    assert all(k == 0 for k, _ in keyed)


def test_leaf_at_point_and_find_vertex():
    rtree = full_rtree(2, 2)
    node = leaf_at_point(rtree, (1.5, 0.5))
    assert (node.scale, node.center2) == (0, (3, 1))
    assert rtree.find_vertex(NodeIndex(0, (3, 1))) is node
    assert rtree.find_vertex(NodeIndex(1, (2, 2))) is None  # internal
    with pytest.raises(ValueError):
        leaf_at_point(rtree, (4.0, 1.0))
    with pytest.raises(ValueError):
        leaf_at_point(rtree, (-0.1, 1.0))


def decided_nodes(rtree):
    """Nodes stamped with the current generation, walked without deciding."""
    count = 0
    stack = [rtree.root]
    while stack:
        node = stack.pop()
        if node.gen != rtree.root.gen:
            continue
        count += 1
        if node.children is not None:
            stack.extend(child for child in node.children if child is not None)
    return count


def test_refresh_decides_only_the_root_and_lookups_their_own_path():
    world = random_world(2, 4, 0.3, seed=2, free_corners=True)
    tree = build_from_grid(world)
    rtree = ReducedTree(2, 4)
    path = CellTracker(2, 4)
    current = tree.leaf_at((0.5, 0.5))
    path.add(current)
    refresh(rtree, state_source(tree), current, path, alpha=1.0)
    assert rtree.root.children is not None
    assert decided_nodes(rtree) == 1
    assert rtree.find_vertex(current) is not None
    # one root-to-leaf descent decides one node per scale on its way
    assert decided_nodes(rtree) == 1 + rtree.depth - current.scale
    total = len(view_snapshot(rtree))
    refresh(rtree, state_source(tree), current, path, alpha=1.0)
    assert decided_nodes(rtree) == 1
    assert len(view_snapshot(rtree)) == total


@pytest.mark.parametrize("dim,depth", [(2, 4), (3, 3)])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "map-free"])
def test_lazy_view_matches_eager_rebuild(exact, dim, depth):
    """One view refreshed many times, resolved only in part between checks.

    Nodes left stale for several generations, None holes and internal nodes
    that lost every child must still resolve to the eager rebuild.  The
    rebuild removes a map leaf by the float eps rule; the view, which takes
    no eps, must match it at eps 0.01, 0.5 and 0.99.
    """
    side = 1 << depth
    eps_range = (0.01, 0.5, 0.99)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        # below about sqrt(dim) / 2, alpha makes far nodes beside the focus,
        # which split
        alpha = (0.1, 0.25, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0)[seed]
        world = random_world(dim, depth, 0.3, seed=seed)
        tree = build_from_grid(world) if exact else None
        if exact:
            # the visited cells of an exact walk are free map leaves
            cells = [
                idx for idx, v in stored_nodes(tree) if v == 0.0 and is_leaf(tree, idx)
            ]

            def pick():
                return cells[int(rng.integers(len(cells)))]
        else:
            # map-free cells at scales 0-2 also make coarse visited cells
            # that hold other visited cells, and blocked cells that rejoin
            # the trail

            def pick():
                return random_index(rng, dim, depth, scale=int(rng.integers(0, 3)))

        rtree = ReducedTree(dim, depth)
        visited = CellTracker(dim, depth)
        trail = [pick()]
        visited.add(trail[0])
        obstacles: set[NodeIndex] = set()
        free: set[NodeIndex] = set()
        state = state_source(tree, obstacles, free)
        for step in range(12):
            refresh(rtree, state, trail[-1], visited, alpha)
            if step % 3 == 2:
                for eps in eps_range:
                    want = eager_view(
                        tree, trail[-1], visited, eps, alpha, obstacles, free
                    )
                    assert view_snapshot(rtree) == want
                leaves = collect_leaves(rtree.root)
                assert {(v.scale, v.center2) for v in leaves} == {
                    key for key, leaf in want.items() if leaf
                }
                keyed = [(v.scale, v.center2) for v in leaves]
                assert keyed == sorted(keyed)
                # a new view decides every node afresh
                fresh = ReducedTree(dim, depth)
                refresh(fresh, state, trail[-1], visited, alpha)
                assert view_snapshot(fresh) == want
            else:
                # resolve only what a search would reach, and check the
                # neighbors found on the part-stale view against the eager
                # rebuild's leaves
                eager_leaves = [
                    NodeIndex(*key)
                    for key, leaf in eager_view(
                        tree, trail[-1], visited, eps_range[seed % 3], alpha,
                        obstacles, free,
                    ).items()
                    if leaf
                ]
                rtree.find_vertex(trail[-1])
                for _ in range(3):
                    point = tuple(rng.uniform(0.01, side - 0.01, dim))
                    leaf = leaf_at_point(rtree, point)
                    if leaf is not None:
                        got = find_neighbors(rtree.root, leaf, depth)
                        want = {
                            key for key in eager_leaves
                            if are_neighbors(leaf, key)
                        }
                        assert {(n.scale, n.center2) for n in got} == want
                        assert len(got) == len(want)
            if len(trail) == 1 or rng.random() < 0.6:
                cell = pick()
                if cell not in trail:
                    trail.append(cell)
                    visited.add(cell)
            else:
                # the dead cell stays visited
                trail.pop()
            if not exact:
                bad = random_index(rng, dim, depth, scale=int(rng.integers(0, 2)))
                obstacles.add(bad)
                ok = random_index(rng, dim, depth, scale=int(rng.integers(1, 3)))
                free.add(ok)


def test_blocked_cell_inside_a_stored_leaf_splits_it():
    # Exact mode, with a blocked cell that is not a stored leaf: the rule
    # refines around it as around any visited cell and keeps it as a leaf,
    # which the search, handed the visited cells, never enters.
    cells = np.zeros(64, dtype=np.uint8)
    cells[7 * 8 + 7] = 1
    tree = build_from_grid(GridWorld(2, 3, cells))
    visited = CellTracker(2, 3)
    start = NodeIndex(2, (4, 4))
    visited.add(start)
    dead = NodeIndex(0, (3, 11))
    visited.add(dead)
    rtree = ReducedTree(2, 3)
    refresh(rtree, state_source(tree), start, visited, alpha=1.0)
    leaves = leaf_keys(rtree)
    assert len(leaves) == 13
    assert NodeIndex(2, (4, 12)) not in leaves
    assert leaf_at_point(rtree, (1.5, 5.5)) is rtree.find_vertex(dead)
    assert leaves >= {dead} | {NodeIndex(0, c2) for c2 in [(1, 9), (1, 11), (3, 9)]}
    assert view_snapshot(rtree) == eager_view(tree, start, visited, 0.5, 1.0)
    # the cheapest way to the goal (1, (2, 14)) runs through the blocked cell
    goal = leaf_at_point(rtree, (0.5, 6.5))
    values = {v: tree.value(v) for v in leaves}
    start_leaf = rtree.find_vertex(start)
    assert dead in astar_lazy(rtree, start_leaf, goal, 1.0, values)
    around = astar_lazy(
        rtree, start_leaf, goal, 1.0, values, excluded=visited.cells()
    )
    assert around is not None and dead not in around


def test_view_refuses_to_resolve_after_its_trackers_change():
    world = random_world(2, 3, 0.3, seed=1, free_corners=True)
    tree = build_from_grid(world)
    rtree = ReducedTree(2, 3)
    path = CellTracker(2, 3)
    current = tree.leaf_at((0.5, 0.5))
    path.add(current)
    refresh(rtree, state_source(tree), current, path, alpha=1.0)
    assert rtree.root.children is not None
    step = tree.leaf_at((1.5, 0.5))
    path.add(step)
    with pytest.raises(RuntimeError):
        collect_leaves(rtree.root)
    refresh(rtree, state_source(tree), step, path, alpha=1.0)
    assert view_snapshot(rtree) == eager_view(tree, step, path, 0.5, 1.0)
    refresh(rtree, state_source(tree), step, path, alpha=1.0)
    path.discard(step)
    with pytest.raises(RuntimeError):
        leaf_at_point(rtree, (7.5, 7.5))


def test_view_whose_root_is_removed_keeps_an_empty_root():
    # a state source that reports every node an obstacle removes the root
    # itself: the view keeps it, stamped with the new generation, with
    # every slot empty, and no lookup finds a leaf
    rtree = ReducedTree(2, 3)
    path = CellTracker(2, 3)
    focus = NodeIndex(0, (1, 1))
    path.add(focus)
    for gen in (1, 2):
        refresh(rtree, lambda k, c2: (True, False), focus, path, 1.0)
        assert rtree.root.gen == gen
        assert rtree.root.children == [None] * 4
        assert leaf_at_point(rtree, (0.5, 0.5)) is None
        assert leaf_at_point(rtree, (7.5, 7.5)) is None
        assert rtree.find_vertex(focus) is None


def test_emptied_internal_nodes_answer_as_removed():
    # map-free, every unit cell of the block (1, (6, 2)) a known obstacle
    block = NodeIndex(1, (6, 2))
    obstacles = {NodeIndex(0, c2) for c2 in [(5, 1), (7, 1), (5, 3), (7, 3)]}
    path = CellTracker(2, 3)
    near = NodeIndex(0, (3, 1))
    path.add(near)
    rtree = ReducedTree(2, 3)
    refresh(rtree, state_source(None, obstacles), near, path, 1.0)
    # near the focus the block descends and loses all four children
    assert leaf_at_point(rtree, (2.5, 0.5)) is None
    assert rtree.find_vertex(block) is None
    beside = find_neighbors(rtree.root, rtree.find_vertex(near), 3)
    assert [(n.scale, n.center2) for n in beside] == [(0, (1, 1)), (0, (3, 3))]
    want = eager_view(None, near, path, 0.5, 1.0, obstacles)
    assert block not in want
    assert view_snapshot(rtree) == want
    # far from the next focus the same block is one unclassified vertex
    far = NodeIndex(0, (15, 15))
    path.add(far)
    refresh(rtree, state_source(None, obstacles), far, path, 1.0)
    assert rtree.find_vertex(block) is not None
    assert view_snapshot(rtree) == eager_view(None, far, path, 0.5, 1.0, obstacles)
