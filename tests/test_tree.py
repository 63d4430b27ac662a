"""Dyadic tree addressing, construction from grids, values, and map files."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    children_of,
    flood_labels,
    grid_bfs_reachable,
    has_node,
    is_leaf,
    node_bounds2,
    random_index,
    parent_of,
    random_world,
    root_of,
    same_world,
    snake_world,
    stored_nodes,
)
from mspp.sampling import is_flagged_obstacle
import mspp.tree as mtree
from mspp.tree import (
    GridWorld,
    NodeIndex,
    build_from_grid,
    grid_connected,
    map_text,
    parse_map_text,
    read_map,
    valid_index,
)


def brute_fraction(world: GridWorld, idx: NodeIndex) -> float:
    """Obstacle volume fraction by direct cell enumeration."""
    lo2, hi2 = node_bounds2(idx)
    ranges = [range(a // 2, b // 2) for a, b in zip(lo2, hi2)]
    total = 0
    hits = 0
    for cell in itertools.product(*ranges):
        total += 1
        hits += world.occupied(cell)
    return hits / total


def test_children_square_scale_one():
    kids = children_of(NodeIndex(1, (2, 2)))
    assert kids == [
        NodeIndex(0, (1, 1)),
        NodeIndex(0, (3, 1)),
        NodeIndex(0, (1, 3)),
        NodeIndex(0, (3, 3)),
    ]
    assert all(k.scale == 0 for k in kids)


def test_children_line_scale_two():
    kids = children_of(NodeIndex(2, (4,)))
    assert kids == [NodeIndex(1, (2,)), NodeIndex(1, (6,))]


def test_children_cube_tile_parent():
    parent = NodeIndex(1, (2, 2, 2))
    kids = children_of(parent)
    assert len(kids) == 8
    assert {k.center2 for k in kids} == {
        (x, y, z) for x in (1, 3) for y in (1, 3) for z in (1, 3)
    }
    # children cover disjoint unit cells whose union is the parent cube
    cells = set()
    for k in kids:
        lo2, hi2 = node_bounds2(k)
        cells.add(tuple(a // 2 for a in lo2))
        assert [b - a for a, b in zip(lo2, hi2)] == [2, 2, 2]
    assert len(cells) == 8
    plo2, phi2 = node_bounds2(parent)
    assert plo2 == (0, 0, 0) and phi2 == (4, 4, 4)


def test_children_of_unit_node_raises():
    with pytest.raises(ValueError):
        children_of(NodeIndex(0, (1, 1)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parent_child_round_trip(data):
    dim = data.draw(st.integers(1, 4))
    depth = data.draw(st.integers(1, 6))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = int(rng.integers(1, depth + 1))
    node = random_index(rng, dim, depth, scale=scale)
    kids = children_of(node)
    assert len(kids) == 1 << dim
    assert len(set(kids)) == 1 << dim
    for child in kids:
        assert parent_of(child) == node
        assert valid_index(child, dim, depth)
        # child interval sits inside the parent interval on every axis
        (clo, chi), (plo, phi) = node_bounds2(child), node_bounds2(node)
        assert all(p <= c and d <= q for c, d, p, q in zip(clo, chi, plo, phi))
    # volumes add up exactly
    assert sum(1 << dim * k.scale for k in kids) == 1 << dim * node.scale


def test_valid_index_accepts_every_node_of_small_world():
    dim, depth = 2, 3
    count = 0
    for k in range(depth + 1):
        step = 2 << k
        axis = range(1 << k, 1 << (depth + 1), step)
        for c2 in itertools.product(axis, repeat=dim):
            assert valid_index(NodeIndex(k, c2), dim, depth)
            count += 1
    # count of dyadic nodes: sum over scales of 4^(depth-k)
    assert count == sum(4 ** (depth - k) for k in range(depth + 1))


def test_build_all_free_collapses_to_root():
    world = GridWorld(2, 2, np.zeros(16, dtype=np.uint8))
    tree = build_from_grid(world)
    assert tree.node_count == 1
    assert is_leaf(tree, root_of(tree))
    assert tree.value(root_of(tree)) == 0.0


def test_build_single_obstacle_quadrant():
    world = GridWorld(2, 1, np.array([1, 0, 0, 0], dtype=np.uint8))
    tree = build_from_grid(world)
    assert tree.value(root_of(tree)) == 0.25
    assert tree.is_internal(root_of(tree))
    assert tree.node_count == 5
    assert tree.value(NodeIndex(0, (1, 1))) == 1.0
    for c2 in [(3, 1), (1, 3), (3, 3)]:
        assert tree.value(NodeIndex(0, c2)) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 4),
    st.sampled_from([0.05, 0.3, 0.7, 0.95]),
    st.integers(0, 2**32 - 1),
)
def test_node_count_matches_the_walk_from_the_root(dim, depth, density, seed):
    # node_count reads the internal masks; stored_nodes walks the tree
    # through is_internal and value
    rng = np.random.default_rng(seed)
    size = 1 << (dim * depth)
    world = GridWorld(dim, depth, (rng.random(size) < density).astype(np.uint8))
    tree = build_from_grid(world)
    assert tree.node_count == len(stored_nodes(tree))


def test_build_matches_brute_force_fractions():
    rng = np.random.default_rng(11)
    # dim 6 widens the count dtype by level: its root counts up to 2**12.
    for dim, depth in [(2, 3), (6, 2)]:
        size = 1 << (dim * depth)
        world = GridWorld(dim, depth, (rng.random(size) < 0.4).astype(np.uint8))
        tree = build_from_grid(world)
        assert tree.value(root_of(tree)) == world.cells.sum() / size
        for idx, val in stored_nodes(tree):
            expect = brute_fraction(world, idx)
            assert val == pytest.approx(expect, abs=1e-15)
            assert tree.value(idx) == val
            if is_leaf(tree, idx) and idx.scale > 0:
                assert expect in (0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_every_address_reads_its_brute_force_value(dim, depth, seed):
    # stored or not: a node under a uniform leaf reads the leaf's value
    rng = np.random.default_rng(seed)
    size = 1 << (dim * depth)
    world = GridWorld(dim, depth, (rng.random(size) < 0.35).astype(np.uint8))
    tree = build_from_grid(world)
    for k in range(depth + 1):
        axis = range(1 << k, 2 << depth, 2 << k)
        for c2 in itertools.product(axis, repeat=dim):
            idx = NodeIndex(k, c2)
            expect = brute_fraction(world, idx)
            assert tree.value(idx) == expect
            assert tree.is_internal(idx) == (0.0 < expect < 1.0)
            point = tuple(c / 2.0 for c in c2)
            leaf = tree.leaf_at(point)
            assert is_leaf(tree, leaf)
            lo2, hi2 = node_bounds2(leaf)
            assert all(a <= 2 * x < b for x, a, b in zip(point, lo2, hi2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 4),
    st.sampled_from([0.3, 0.7, 0.95]),
    st.floats(1e-6, 1 - 1e-6),
    st.integers(0, 2**32 - 1),
)
def test_eps_obstacles_are_the_fully_occupied_nodes(dim, depth, density, eps, seed):
    # is_obstacle holds exactly when every cell of the node is occupied, and
    # that is the paper's rule value >= 1 - eps * 2**(-dim * k) at any eps:
    # a scale-k value is a multiple of 2**(-dim * k), and the threshold lies
    # strictly between the largest such value below 1 and 1
    rng = np.random.default_rng(seed)
    size = 1 << (dim * depth)
    world = GridWorld(dim, depth, (rng.random(size) < density).astype(np.uint8))
    grid = world.cells.reshape((1 << depth,) * dim)  # axis a is spatial dim-1-a
    tree = build_from_grid(world)
    for k in range(depth + 1):
        axis = range(1 << k, 2 << depth, 2 << k)
        for c2 in itertools.product(axis, repeat=dim):
            idx = NodeIndex(k, c2)
            box = tuple(slice((c - (1 << k)) >> 1, (c + (1 << k)) >> 1) for c in c2)
            full = bool(grid[box[::-1]].all())
            assert tree.is_obstacle(idx) == full
            assert full == (tree.value(idx) >= 1.0 - math.ldexp(eps, -dim * k))


def test_value_three_sixteenths():
    cells = np.zeros(16, dtype=np.uint8)
    cells[[0, 5, 12]] = 1
    world = GridWorld(2, 2, cells)
    tree = build_from_grid(world)
    assert tree.value(root_of(tree)) == 0.1875


def test_value_inside_collapsed_leaf():
    # an all-obstacle quadrant collapses; descendants still report 1.0
    cells = np.zeros(16, dtype=np.uint8)
    world = GridWorld(2, 2, cells)
    for x in range(2):
        for y in range(2):
            cells[world.flat_index((x, y))] = 1
    world = GridWorld(2, 2, cells)
    tree = build_from_grid(world)
    quadrant = NodeIndex(1, (2, 2))
    assert is_leaf(tree, quadrant)
    assert tree.value(quadrant) == 1.0
    assert not has_node(tree, NodeIndex(0, (1, 1)))
    assert tree.value(NodeIndex(0, (1, 1))) == 1.0
    assert tree.value(NodeIndex(0, (3, 3))) == 1.0


def test_value_rejects_bad_index():
    world = GridWorld(2, 2, np.zeros(16, dtype=np.uint8))
    tree = build_from_grid(world)
    with pytest.raises(ValueError):
        tree.value(NodeIndex(0, (2, 1)))  # even coordinate is a boundary
    with pytest.raises(ValueError):
        tree.value(NodeIndex(0, (9, 1)))  # outside the box
    with pytest.raises(ValueError):
        tree.value(NodeIndex(3, (8, 8)))  # coarser than the root


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
)
def test_parent_value_is_mean_of_children(dim, depth, density, seed):
    rng = np.random.default_rng(seed)
    size = 1 << (dim * depth)
    world = GridWorld(dim, depth, (rng.random(size) < density).astype(np.uint8))
    tree = build_from_grid(world)
    for idx, _val in stored_nodes(tree):
        if tree.is_internal(idx):
            mean = sum(tree.value(c) for c in children_of(idx)) / (1 << dim)
            assert abs(tree.value(idx) - mean) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_leaves_tile_the_box(dim, depth, seed):
    rng = np.random.default_rng(seed)
    size = 1 << (dim * depth)
    world = GridWorld(dim, depth, (rng.random(size) < 0.3).astype(np.uint8))
    tree = build_from_grid(world)
    covered = 0
    for idx, _val in stored_nodes(tree):
        if is_leaf(tree, idx):
            covered += 1 << dim * idx.scale
    assert covered == 1 << (dim * depth)


def test_binary_maps_make_obstacles_exactly_full_nodes():
    # with cell values in {0,1}, the threshold only admits all-obstacle nodes
    rng = np.random.default_rng(5)
    world = GridWorld(2, 3, (rng.random(64) < 0.5).astype(np.uint8))
    tree = build_from_grid(world)
    for idx, val in stored_nodes(tree):
        assert tree.is_obstacle(idx) == (val == 1.0)


def test_eps_obstacle_examples():
    cells = np.array([1, 0, 0, 0], dtype=np.uint8)
    tree = build_from_grid(GridWorld(2, 1, cells))
    unit = NodeIndex(0, (1, 1))
    assert tree.is_obstacle(unit)  # the occupied cell
    assert not tree.is_obstacle(NodeIndex(0, (3, 3)))
    assert not tree.is_obstacle(root_of(tree))  # one cell of four occupied
    full = build_from_grid(GridWorld(2, 1, np.ones(4, dtype=np.uint8)))
    assert full.is_obstacle(root_of(full))
    # one free cell in 1024: no node holding it is an obstacle, however
    # close to 1 its value, and every other node is
    cells = np.ones(1024, dtype=np.uint8)
    cells[0] = 0
    nearly = build_from_grid(GridWorld(2, 5, cells))
    for idx, _val in stored_nodes(nearly):
        holds_free = all(c == 1 << idx.scale for c in idx.center2)
        assert nearly.is_obstacle(idx) != holds_free


def test_eps_threshold_monotone_in_eps():
    # a sampled estimate flagged at eps stays flagged at any larger eps
    flagged = 0
    for dim, scale in itertools.product((1, 2, 3), range(4)):
        for value in np.linspace(0.0, 1.0, 257).tolist():
            for gamma in (0.001, 0.01, 0.1):
                for lo, hi in [(0.2, 0.5), (0.5, 0.8), (0.3, 0.9)]:
                    if is_flagged_obstacle(value, scale, dim, lo, gamma):
                        flagged += 1
                        assert is_flagged_obstacle(value, scale, dim, hi, gamma)
    assert flagged


def test_leaf_at_free_map_returns_root():
    world = GridWorld(2, 2, np.zeros(16, dtype=np.uint8))
    tree = build_from_grid(world)
    assert tree.leaf_at((0.2, 0.3)) == root_of(tree)


def test_leaf_at_corner_uses_half_open_cells():
    # the four unit cells around (1, 1) are leaves; the corner point maps to
    # the cell whose lower corner it is
    cells = np.zeros(16, dtype=np.uint8)
    world = GridWorld(2, 2, cells)
    cells[world.flat_index((0, 0))] = 1
    world = GridWorld(2, 2, cells)
    tree = build_from_grid(world)
    assert tree.leaf_at((1.0, 1.0)) == NodeIndex(0, (3, 3))
    assert tree.leaf_at((0.999, 1.0)) == NodeIndex(0, (1, 3))
    assert tree.leaf_at((0.5, 0.5)) == NodeIndex(0, (1, 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_leaf_at_contains_query_point(dim, depth, seed):
    rng = np.random.default_rng(seed)
    size = 1 << (dim * depth)
    world = GridWorld(dim, depth, (rng.random(size) < 0.35).astype(np.uint8))
    tree = build_from_grid(world)
    side = 1 << depth
    for _ in range(50):
        point = tuple(rng.uniform(1e-9, side - 1e-9) for _ in range(dim))
        leaf = tree.leaf_at(point)
        assert is_leaf(tree, leaf)
        lo2, hi2 = node_bounds2(leaf)
        assert all(a <= 2 * x < b for x, a, b in zip(point, lo2, hi2))


def test_leaf_at_rejects_boundary_and_outside():
    world = GridWorld(2, 2, np.zeros(16, dtype=np.uint8))
    tree = build_from_grid(world)
    for point in [(0.0, 1.0), (4.0, 1.0), (1.0, -0.5), (1.0, 4.5)]:
        with pytest.raises(ValueError):
            tree.leaf_at(point)


def test_to_grid_round_trip():
    rng = np.random.default_rng(3)
    for dim, depth in [(1, 4), (2, 3), (3, 2)]:
        size = 1 << (dim * depth)
        world = GridWorld(dim, depth, (rng.random(size) < 0.4).astype(np.uint8))
        tree = build_from_grid(world)
        assert same_world(tree.to_grid(), world)


def test_tree_owns_its_level_zero():
    # neither the source grid nor the grid to_grid returns shares its
    # cells with the tree
    world = GridWorld(2, 2, np.zeros(16, dtype=np.uint8))
    tree = build_from_grid(world)
    world.cells[0] = 1
    assert tree.value(NodeIndex(0, (1, 1))) == 0.0
    assert tree.to_grid().cells[0] == 0
    with pytest.raises(ValueError, match="read-only"):
        tree.to_grid().cells[0] = 1
    assert tree.value(NodeIndex(0, (1, 1))) == 0.0


def test_map_text_round_trip_and_format():
    world = GridWorld(2, 1, np.array([1, 0, 0, 0], dtype=np.uint8))
    text = map_text(world)
    assert text == "2 1\n1000\n"
    assert same_world(parse_map_text(text), world)


def test_map_file_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    world = GridWorld(3, 2, (rng.random(64) < 0.5).astype(np.uint8))
    path = tmp_path / "maze.map"
    path.write_text(map_text(world))
    assert same_world(read_map(path), world)


def test_parse_map_text_rejects_garbage():
    for bad in [
        "",
        "2\n1000\n",
        "2 1\n10\n",  # wrong cell count
        "2 1\n10x0\n",  # non-binary cell
        "0 1\n1\n",  # dimension must be positive
    ]:
        with pytest.raises(ValueError):
            parse_map_text(bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_map_text_round_trip_random(dim, depth, seed):
    rng = np.random.default_rng(seed)
    size = 1 << (dim * depth)
    world = GridWorld(dim, depth, (rng.random(size) < 0.5).astype(np.uint8))
    assert same_world(parse_map_text(map_text(world)), world)


def test_grid_world_validation():
    with pytest.raises(ValueError):
        GridWorld(2, 1, np.zeros(5, dtype=np.uint8))  # wrong length
    with pytest.raises(ValueError):
        GridWorld(2, 1, np.array([0, 1, 2, 0], dtype=np.uint8))  # non-binary
    world = GridWorld(2, 1, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        world.flat_index((2, 0))
    with pytest.raises(ValueError, match="not 2-dimensional"):
        world.flat_index((0,))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_grid_connected_matches_flood_fill(dim, depth, seed):
    rng = np.random.default_rng(seed)
    size = 1 << (dim * depth)
    world = GridWorld(dim, depth, (rng.random(size) < 0.4).astype(np.uint8))
    tree = build_from_grid(world)
    side = 1 << depth
    for _ in range(6):
        a = tuple(int(rng.integers(0, side)) for _ in range(dim))
        b = tuple(int(rng.integers(0, side)) for _ in range(dim))
        assert grid_connected(tree, a, b) == grid_bfs_reachable(world, a, b)
        assert grid_connected(tree, a, a) == (not world.occupied(a))


# The deepest map the labelling test draws, per dimension (at most 4096
# cells): the flood fill it is checked against walks cell by cell.
LABEL_DEPTHS = {1: 10, 2: 6, 3: 4, 4: 3, 5: 2}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5), st.integers(0, 10), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)
)
@example(2, 3, 0.0, 0)  # all free: one component, label 0
@example(3, 2, 1.0, 0)  # all blocked: no run at all
@example(1, 0, 0.0, 0)  # depth 0: a single free cell
@example(4, 0, 1.0, 0)  # depth 0: a single blocked cell
@example(1, 10, 0.5, 0)  # 1-D: each run is its own component
def test_component_labels_match_a_flood_fill(dim, depth, density, seed):
    depth = min(depth, LABEL_DEPTHS[dim])
    rng = np.random.default_rng(seed)
    cells = (rng.random(1 << (dim * depth)) < density).astype(np.uint8)
    world = GridWorld(dim, depth, cells)
    labels = mtree._component_labels(world)
    expected = flood_labels(world)
    assert labels.dtype == expected.dtype
    assert np.array_equal(labels, expected)


def test_grid_connected_joins_long_winding_corridors():
    # A snake maze is one corridor that doubles back across the flat
    # order, so the labels need more than one hooking round to meet.
    world = snake_world(5)
    tree = build_from_grid(world)
    free = [c for c in np.ndindex(32, 32) if not world.occupied(c)]
    assert grid_connected(tree, free[0], free[-1])
    cells = world.cells.copy()
    cells[world.flat_index(free[len(free) // 2])] = 1
    cut = build_from_grid(GridWorld(2, 5, cells))
    probes = free[1::7]
    reach = [grid_bfs_reachable(cut.to_grid(), free[0], c) for c in probes]
    assert [grid_connected(cut, free[0], c) for c in probes] == reach
    assert any(reach) and not all(reach)


def test_generated_worlds_build_and_round_trip():
    for dim, depth in [(2, 4), (3, 3)]:
        world = random_world(dim, depth, 0.3, seed=2)
        tree = build_from_grid(world)
        assert same_world(tree.to_grid(), world)
        assert same_world(parse_map_text(map_text(world)), world)
