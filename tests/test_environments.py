"""Realizing a point oracle as a grid (the test helper), and the grid baseline."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_world, realize_grid
from mspp.environments import GeneratorSpec, uniform_astar
from mspp.predicates import Slab
from mspp.tree import MAX_DEPTH


def corner_block(point) -> bool:
    # asymmetric in every axis pair: only low x and high y are blocked
    return point[0] < 1.0 and point[1] > 2.0


@pytest.mark.parametrize("dim,depth", [(2, 2), (3, 2)])
@pytest.mark.parametrize(
    "predicate", [corner_block, Slab(0, 1.0), Slab(1, 3.0)],
    ids=["corner", "slab-axis0", "slab-axis1"],
)
def test_realize_grid_matches_predicate_at_every_cell(predicate, dim, depth):
    world = realize_grid(predicate, dim, depth)
    side = 1 << depth
    for cell in product(range(side), repeat=dim):
        centre = tuple(c + 0.5 for c in cell)
        assert world.occupied(cell) == predicate(centre), cell


def test_realize_grid_keeps_axis_order():
    world = realize_grid(Slab(0, 1.0), 2, 2)
    assert world.occupied((0, 1))
    assert not world.occupied((1, 0))


def bfs_steps(world, start, goal):
    """Fewest face moves over free cells from start to goal, or None."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for cell in frontier:
            for j in range(world.dim):
                for delta in (1, -1):
                    c = cell[j] + delta
                    nb = cell[:j] + (c,) + cell[j + 1:]
                    if not 0 <= c < world.side or nb in dist or world.occupied(nb):
                        continue
                    dist[nb] = dist[cell] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist.get(goal)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from([0.1, 0.3, 0.45]),
    st.integers(0, 2**32 - 1),
)
def test_uniform_astar_step_count_is_the_bfs_distance(dim, density, seed):
    depth = {1: 5, 2: 4, 3: 3}[dim]
    world = random_world(dim, depth, density, seed % 1000, free_corners=True)
    rng = np.random.default_rng(seed)
    cells = product(range(world.side), repeat=dim)
    free = [c for c in cells if not world.occupied(c)]
    start, goal = (free[int(i)] for i in rng.integers(len(free), size=2))
    base = uniform_astar(world, start, goal)
    steps = bfs_steps(world, start, goal)
    assert base.reachable == (steps is not None)
    if steps is None:
        assert base.path is None
        return
    assert len(base.path) - 1 == steps
    assert base.path[0] == start and base.path[-1] == goal
    for a, b in zip(base.path, base.path[1:]):
        assert sum(abs(x - y) for x, y in zip(a, b)) == 1
        assert not world.occupied(b)


def test_generator_spec_refuses_a_depth_beyond_max_depth():
    # refused by the spec, before generate_map would fill 2**(dim * depth)
    # cells for GridWorld to refuse
    GeneratorSpec(2, MAX_DEPTH, 0.3)
    for dim in (2, 3):
        with pytest.raises(ValueError, match="depth must be in"):
            GeneratorSpec(dim, MAX_DEPTH + 1, 0.3)
