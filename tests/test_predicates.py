"""Obstacle predicates: the vectorized batch call answers like the scalar call."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_world
from mspp.environments import grid_predicate
from mspp.predicates import Checkerboard, Slab, SphereSet, WallWithGap

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
    """The sphere test over one (n, m, d) array of differences."""
    diff = points[:, None, :] - spheres.centers[None, :, :]
    d2 = (diff**2).sum(axis=2)
    return np.any(d2 <= spheres.radii**2, axis=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_batch_agrees_with_the_scalar_call(dim, seed):
    rng = np.random.default_rng(seed)
    cells = np.array(list(itertools.product(range(SIDE), repeat=dim)))
    if len(cells) > 600:
        cells = cells[rng.choice(len(cells), 600, replace=False)]
    points = np.vstack([rng.uniform(0, SIDE, (200, dim)), cells + 0.5])
    for name, predicate in predicates(dim, rng).items():
        batch = predicate.batch(points)
        scalar = np.array([predicate(tuple(p)) for p in points])
        assert batch.dtype == bool
        disagree = np.flatnonzero(batch != scalar)
        assert not disagree.size, (name, points[disagree[:3]])
        if isinstance(predicate, SphereSet):
            assert np.array_equal(batch, broadcast_spheres(predicate, points)), name


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
