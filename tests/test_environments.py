"""Environments: realizing a point oracle as a grid."""

from itertools import product

import pytest

from mspp.environments import realize_grid
from mspp.predicates import Slab


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
