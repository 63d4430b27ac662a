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
