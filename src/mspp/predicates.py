"""Obstacle predicates for map-free planning.

A predicate maps a d-dimensional point to True when the point lies inside
an obstacle.  Predicates must be pure: the same point always yields the
same answer.  Only the scalar call is required of user-supplied
predicates.  The program asks every predicate through one vectorized
call, batch_of(predicate), on an (n, d) float array: the predicate's own
`batch` method when it has one, else a per-point loop over the scalar
call.  Each built-in states its rule once, as `batch`; its scalar call
(BatchPredicate) is that batch asked about a single point, so the two
cannot disagree.

parse_predicate builds the built-ins from the compact command-line syntax
in SYNTAX.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SYNTAX",
    "BatchPredicate",
    "Checkerboard",
    "Slab",
    "SphereSet",
    "WallWithGap",
    "batch_of",
    "parse_predicate",
]


def batch_of(predicate):
    """The predicate's vectorized call on an (n, d) array of points.

    Its own `batch` method when present, else a per-point loop over the
    scalar call, which returns a boolean array.
    """
    batch = getattr(predicate, "batch", None)
    if batch is not None:
        return batch

    def batch(points: np.ndarray) -> np.ndarray:
        flags = [bool(predicate(tuple(p))) for p in points.tolist()]
        return np.array(flags, dtype=bool)

    return batch


class BatchPredicate:
    """A predicate whose one rule is its `batch`: the scalar call asks it
    about a single point."""

    def __call__(self, point) -> bool:
        return bool(self.batch(np.asarray(point, dtype=np.float64).reshape(1, -1))[0])


class SphereSet(BatchPredicate):
    """Union of balls.

    batch sums each point's squared distances to the centers axis by axis,
    on (points, spheres) arrays, in axis order: (d0 + d1) + d2 and so on;
    the scalar call is that batch on one point.  A sum over the (n, m, d)
    array of differences, as the tests' reference takes it, answers the
    same bit for bit only below eight axes: from eight on numpy sums the
    last axis pairwise, which rounds otherwise near a sphere's surface.

    batch first drops every sphere whose squared distance to the points'
    bounding box, summed the same way, exceeds its r**2.  That drops no
    sphere a point could lie in: rounding is monotone, so a point's
    rounded difference to a center is at least the rounded gap from the
    center to the box on that axis, its square at least the gap's square,
    and a same-order sum of larger terms at least as large.  The kept
    spheres' sums are computed exactly as before, so the answers keep
    their bits.  A NaN coordinate makes every gap NaN, which keeps every
    sphere.
    """

    def __init__(self, centers, radii):
        self.centers = np.asarray(centers, dtype=np.float64)
        self.radii = np.asarray(radii, dtype=np.float64)
        if self.centers.ndim != 2 or len(self.radii) != len(self.centers):
            raise ValueError("need one radius per center")
        if np.any(self.radii < 0):
            raise ValueError("radii must be nonnegative")
        self._r2 = self.radii**2

    def batch(self, points: np.ndarray) -> np.ndarray:
        if not len(points):
            return np.zeros(0, dtype=bool)
        gap = np.maximum(points.min(axis=0) - self.centers, self.centers - points.max(axis=0))
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        gap2 = np.zeros(len(gap))
        for column in gap.T:
            gap2 += column
        near = ~(gap2 > self._r2)
        columns, r2 = self.centers[near].T, self._r2[near]
        d2 = np.zeros((len(points), len(r2)))
        for j, column in enumerate(columns):
            d = points[:, j, None] - column
            d *= d
            d2 += d
        return np.any(d2 <= r2, axis=1)


class Checkerboard(BatchPredicate):
    """Alternating obstacle blocks of the given period."""

    def __init__(self, period: float):
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = float(period)

    def batch(self, points: np.ndarray) -> np.ndarray:
        blocks = np.floor(points / self.period).astype(np.int64)
        return (blocks.sum(axis=1) & 1) == 1


class WallWithGap(BatchPredicate):
    """Unit-thickness wall across one axis with a cubical opening.

    Obstacle where position <= x_axis < position + 1 except within
    max-norm distance gap/2 of gap_center on the remaining axes.
    """

    def __init__(self, axis: int, position: float, gap: float, gap_center):
        if axis < 0:
            raise ValueError("axis must be nonnegative")
        if gap < 0:
            raise ValueError("gap must be nonnegative")
        self.axis = axis
        self.position = float(position)
        self.gap = float(gap)
        self.gap_center = np.asarray(gap_center, dtype=np.float64)

    def batch(self, points: np.ndarray) -> np.ndarray:
        x = points[:, self.axis]
        in_wall = (x >= self.position) & (x < self.position + 1.0)
        rest = np.delete(points, self.axis, axis=1)
        center = np.delete(self.gap_center, self.axis)
        # With no other axis the distance is 0: a gap > 0 opens the wall.
        in_gap = np.max(np.abs(rest - center), axis=1, initial=0.0) < self.gap / 2.0
        return in_wall & ~in_gap


class Slab(BatchPredicate):
    """Half-space obstacle x_axis < limit."""

    def __init__(self, axis: int, limit: float):
        if axis < 0:
            raise ValueError("axis must be nonnegative")
        self.axis = axis
        self.limit = float(limit)

    def batch(self, points: np.ndarray) -> np.ndarray:
        return points[:, self.axis] < self.limit


# Command-line syntax of each built-in predicate.
SYNTAX = {
    "spheres": "spheres:x1,..,xd,r[;x1,..,xd,r]...",
    "checkerboard": "checkerboard:period",
    "wall": "wall:axis,position,gap",
    "slab": "slab:axis,limit",
}


def parse_predicate(text: str, dim: int, side: int):
    """Build a predicate from its command-line description (see SYNTAX).

    The world box is [0, side]^dim; a wall's gap is centred in it.  An
    error names the predicate kind and its syntax.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"predicate {text!r} lacks parameters (expected kind:params)")
    if kind not in SYNTAX:
        raise ValueError(
            f"unknown predicate kind {kind!r} (one of {', '.join(SYNTAX)})"
        )

    def numbers(part: str, count: int) -> list[float]:
        try:
            nums = [float(v) for v in part.split(",")]
        except ValueError:
            nums = None
        if nums is None or len(nums) != count:
            what = "a number" if count == 1 else f"{count} comma-separated numbers"
            raise ValueError(f"{kind} needs {what} ({SYNTAX[kind]}), got {part!r}")
        if not all(map(math.isfinite, nums)):
            # NaN compares false with every point, so the obstacle would vanish.
            raise ValueError(f"{kind} needs finite numbers ({SYNTAX[kind]}), got {part!r}")
        return nums

    def axis(value: float) -> int:
        if not (value.is_integer() and 0 <= value < dim):
            raise ValueError(
                f"{kind} axis must be an integer in [0, {dim}) ({SYNTAX[kind]}), "
                f"got {value:g}"
            )
        return int(value)

    if kind == "spheres":
        spheres = [numbers(part, dim + 1) for part in rest.split(";")]
        make, args = SphereSet, ([s[:dim] for s in spheres], [s[dim] for s in spheres])
    elif kind == "checkerboard":
        make, args = Checkerboard, (numbers(rest, 1)[0],)
    elif kind == "wall":
        a, position, gap = numbers(rest, 3)
        make, args = WallWithGap, (axis(a), position, gap, [side / 2.0] * dim)
    else:
        a, limit = numbers(rest, 2)
        make, args = Slab, (axis(a), limit)
    try:
        return make(*args)
    except ValueError as err:
        # The constructors' own range checks, in the form of the errors above.
        raise ValueError(f"{kind} needs valid parameters ({SYNTAX[kind]}): {err}") from None
