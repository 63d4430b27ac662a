"""Obstacle predicates: each built-in's batch call against a per-point reference."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_world
from mspp.environments import GridPredicate, grid_predicate
from mspp.predicates import Checkerboard, Slab, SphereSet, WallWithGap, batch_of
from mspp.tree import GridWorld

DEPTH = 3
SIDE = 1 << DEPTH


def predicates(dim: int, rng: np.random.Generator) -> dict:
    """One of each built-in, with parameters drawn inside the world box.

    "spheres-80" is a scene of the benchmark's size, with small balls so
    that points fall both inside and outside.
    """
    axis = int(rng.integers(dim))
    position = float(rng.integers(SIDE)) if rng.random() < 0.5 else rng.uniform(0, SIDE)
    center = rng.uniform(0, SIDE, dim)
    return {
        "spheres": SphereSet(rng.uniform(0, SIDE, (3, dim)), rng.uniform(0.5, 3, 3)),
        "spheres-80": SphereSet(
            rng.uniform(0, SIDE, (80, dim)), rng.uniform(0.2, 1, 80)
        ),
        "checkerboard": Checkerboard(rng.uniform(0.5, 3)),
        "wall": WallWithGap(axis, position, 0.0, center),
        "wall-gap": WallWithGap(axis, position, rng.uniform(0.5, 4), center),
        "slab": Slab(axis, rng.uniform(0, SIDE)),
        "grid": grid_predicate(random_world(dim, DEPTH, 0.3, int(rng.integers(99)))),
    }


def broadcast_spheres(spheres: SphereSet, points: np.ndarray) -> np.ndarray:
    """The sphere test over one (n, m, d) array of differences.

    batch sums the axes in order; numpy sums a last axis shorter than
    eight in that order too, so below eight axes this answers bit for bit
    like batch.
    """
    diff = points[:, None, :] - spheres.centers[None, :, :]
    d2 = (diff**2).sum(axis=2)
    return np.any(d2 <= spheres.radii**2, axis=1)


def reference(predicate, point: tuple) -> bool:
    """Each built-in's rule for one point, written apart from its batch."""
    if isinstance(predicate, GridPredicate):
        world = predicate.world
        return world.occupied(tuple(min(int(x), world.side - 1) for x in point))
    if isinstance(predicate, Checkerboard):
        return sum(math.floor(x / predicate.period) for x in point) % 2 == 1
    if isinstance(predicate, WallWithGap):
        a = predicate.axis
        if not predicate.position <= point[a] < predicate.position + 1.0:
            return False
        rest = [abs(x - c) for j, (x, c) in enumerate(zip(point, predicate.gap_center)) if j != a]
        return max(rest, default=0.0) >= predicate.gap / 2.0
    assert isinstance(predicate, Slab)
    return point[predicate.axis] < predicate.limit


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_batch_matches_a_per_point_reference(dim, seed):
    rng = np.random.default_rng(seed)
    cells = np.array(list(itertools.product(range(SIDE), repeat=dim)))
    if len(cells) > 600:
        cells = cells[rng.choice(len(cells), 600, replace=False)]
    points = np.vstack([rng.uniform(0, SIDE, (200, dim)), cells + 0.5])
    for name, predicate in predicates(dim, rng).items():
        batch = predicate.batch(points)
        assert batch.dtype == bool
        if isinstance(predicate, SphereSet):
            expect = broadcast_spheres(predicate, points)
        else:
            expect = np.array([reference(predicate, tuple(p)) for p in points.tolist()])
        disagree = np.flatnonzero(batch != expect)
        assert not disagree.size, (name, points[disagree[:3]])
        # the scalar call is the batch on one point
        for p, flag in zip(points[:5], batch):
            assert predicate(tuple(p)) is bool(flag), name


# An 8-D sphere near whose surface a pairwise sum of the squared
# differences rounds the other way from batch's sum in axis order.
CENTER_8D = [1.499999988824129, 1.4999999925494194, 1.499999988824129, 1.4999999850988388,
             1.0, 1.4999999850988388, 0.75, 0.75]
RADIUS_8D = 1.1726039399558577


@pytest.mark.parametrize(
    "center,radius,point,inside",
    [
        (CENTER_8D, RADIUS_8D, (1.5,) * 8, False),
        ([2.5 - 1.0] + [2.5 - 2**-27] * 7, 1.0, (2.5,) * 8, True),
    ],
    ids=["batch-free", "batch-obstacle"],
)
def test_eight_axis_scalar_call_is_the_batch(center, radius, point, inside):
    spheres = SphereSet([center], [radius])
    assert spheres.batch(np.array([point]))[0] == inside
    assert spheres(point) is inside
    # the pairwise sum, which the scalar call once took, rounds otherwise
    assert broadcast_spheres(spheres, np.array([point]))[0] != inside


def test_grid_predicate_refuses_points_outside_the_box():
    predicate = grid_predicate(GridWorld(2, 1, np.array([0, 0, 0, 1], dtype=np.uint8)))
    # the upper faces clamp inward, onto the last cell
    assert predicate((2.0, 1.5)) and not predicate((0.0, 0.0))
    for point in [(-0.1, 0.5), (0.5, 2.5), (math.nan, 0.5), (0.5, math.nan)]:
        with pytest.raises(ValueError, match="outside the world box"):
            predicate(point)
        with pytest.raises(ValueError, match="outside the world box"):
            predicate.batch(np.array([[0.5, 0.5], point]))


def test_batch_of_falls_back_to_the_scalar_call():
    spheres = SphereSet([[4.0, 4.0]], [1.0])
    assert batch_of(spheres) == spheres.batch
    asked = []

    def scalar(point):
        asked.append(point)
        return point[0] > 2.0

    flags = batch_of(scalar)(np.array([[1.0, 0.0], [3.0, 0.0]]))
    assert flags.dtype == bool and flags.tolist() == [False, True]
    assert asked == [(1.0, 0.0), (3.0, 0.0)]
    assert batch_of(scalar)(np.zeros((0, 2))).shape == (0,)


# Integer legs whose squares sum to the square of the radius, per dim.
SURFACE_LEGS = {1: ([3.0], 3.0), 2: ([3.0, 4.0], 5.0), 3: ([1.0, 2.0, 2.0], 3.0), 4: ([1.0] * 4, 2.0)}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_sphere_pruning_keeps_every_answer(dim, seed):
    # Points exactly on the surfaces (legs scaled by a dyadic s, so d2 ==
    # r**2 in floats) and random points, asked whole, in chunks of about
    # three, and one at a time: a lone surface point's box touches its
    # sphere, so a sphere pruned on a tie would lose that hit.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    legs, radius = SURFACE_LEGS[dim]
    centers = rng.integers(0, 4 * SIDE, (m, dim)) / 4.0
    s = 2.0 ** rng.integers(-3, 2, (m, 1))
    spheres = SphereSet(centers, radius * s[:, 0])
    signs = rng.choice([-1.0, 1.0], (m, dim))
    surface = centers + rng.permuted(np.tile(legs, (m, 1)), axis=1) * s * signs
    assert np.all(((surface - centers) ** 2).sum(axis=1) == spheres.radii**2)
    points = np.vstack([surface, rng.uniform(-2, SIDE + 2, (60, dim))])
    rng.shuffle(points)
    dense = broadcast_spheres(spheres, points)
    assert np.array_equal(spheres.batch(points), dense)
    for chunk in np.array_split(np.arange(len(points)), len(points) // 3):
        assert np.array_equal(spheres.batch(points[chunk]), dense[chunk])
    for i in range(len(points)):
        assert spheres.batch(points[i : i + 1])[0] == dense[i]
    assert spheres.batch(np.zeros((0, dim))).shape == (0,)
