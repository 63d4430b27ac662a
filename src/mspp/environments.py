"""Random test worlds, a uniform-grid A* baseline, and grid predicates.

Map generation is deterministic per seed and places an exact obstacle
count (round(density * cells)), so achieved density tracks the request
tightly for both scattered-cell and blob textures.  random_spheres builds
analytic ball-obstacle scenes for map-free planning.
The baseline planner runs plain A* over unit cells with face connectivity
and unit edge costs; it serves as the correctness oracle for reachability
and as the benchmark comparator.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from math import inf

import numpy as np

from .predicates import BatchPredicate, SphereSet
from .tree import MAX_DEPTH, GridWorld

__all__ = [
    "BaselineResult",
    "GeneratorSpec",
    "GridPredicate",
    "generate_map",
    "grid_predicate",
    "random_spheres",
    "uniform_astar",
]


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one random map.

    kind "bernoulli" scatters single obstacle cells; "blobs" paints random
    axis-aligned boxes (between blobs[0] and blobs[1] of them, sides drawn
    from blob_size), then trims or tops up random cells so both kinds hit
    the exact target count.  free_start/free_goal keep the first/last
    corner cell free.
    """

    dim: int
    depth: int
    density: float
    kind: str = "bernoulli"
    blobs: tuple[int, int] = (4, 12)
    blob_size: tuple[int, int] = (2, 6)
    seed: int = 0
    free_start: bool = False
    free_goal: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("need dim >= 1")
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [0, {MAX_DEPTH}]")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1]")
        if self.kind not in ("bernoulli", "blobs"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not (1 <= self.blobs[0] <= self.blobs[1]):
            raise ValueError("blob count range must be increasing and positive")
        if not (1 <= self.blob_size[0] <= self.blob_size[1]):
            raise ValueError("blob size range must be increasing and positive")


def generate_map(spec: GeneratorSpec) -> GridWorld:
    """Deterministic random occupancy grid with an exact obstacle count."""
    side = 1 << spec.depth
    total = side**spec.dim
    rng = np.random.default_rng(spec.seed)
    protected = []
    if spec.free_start:
        protected.append(0)
    if spec.free_goal:
        protected.append(total - 1)
    target = round(spec.density * total)
    if target > total - len(set(protected)):
        raise ValueError(
            f"cannot place {target} obstacles while keeping {protected} free"
        )
    cells = np.zeros(total, dtype=np.uint8)
    if spec.kind == "blobs" and target > 0:
        shape = (side,) * spec.dim
        grid = cells.reshape(shape)
        count = int(rng.integers(spec.blobs[0], spec.blobs[1] + 1))
        for _ in range(count):
            lo, hi = spec.blob_size
            sizes = rng.integers(lo, min(hi, side) + 1, size=spec.dim)
            corners = [int(rng.integers(0, side - s + 1)) for s in sizes]
            sel = tuple(slice(c, c + int(s)) for c, s in zip(corners, sizes))
            grid[sel] = 1
    cells[protected] = 0
    placed = int(cells.sum())
    open_slots = np.flatnonzero(cells == 0)
    open_slots = open_slots[~np.isin(open_slots, protected)]
    if placed < target:
        extra = rng.choice(open_slots, size=target - placed, replace=False)
        cells[extra] = 1
    elif placed > target:
        drop = rng.choice(np.flatnonzero(cells == 1), size=placed - target, replace=False)
        cells[drop] = 0
    return GridWorld(spec.dim, spec.depth, cells)


def random_spheres(
    dim: int, depth: int, seed: int, density: float = 0.3
) -> SphereSet:
    """Random union-of-balls obstacle scene with free world corners.

    The ball count is chosen so the expected covered volume fraction is
    about `density` (radii span side/16 to side/6.4); balls touching the
    first or last unit-cell center are redrawn so the usual corner start
    and goal stay free.  Deterministic per seed.
    """
    if dim < 1 or depth < 0:
        raise ValueError("need dim >= 1 and depth >= 0")
    if not 0.0 <= density < 1.0:
        raise ValueError("density must lie in [0, 1)")
    side = 1 << depth
    rng = np.random.default_rng(seed)
    r_lo, r_hi = side / 16.0, side / 6.4
    r_mean = (r_lo + r_hi) / 2.0
    ball = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * r_mean**dim
    frac = min(ball / float(side**dim), 0.5)
    count = max(1, round(math.log1p(-density) / math.log1p(-frac)))
    start = tuple(0.5 for _ in range(dim))
    goal = tuple(side - 0.5 for _ in range(dim))
    centers: list[np.ndarray] = []
    radii: list[float] = []
    attempts = 0
    while len(centers) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValueError("cannot place balls outside the protected corners")
        c = rng.uniform(0.0, side, size=dim)
        r = float(rng.uniform(r_lo, r_hi))
        if math.dist(c, start) <= r or math.dist(c, goal) <= r:
            continue
        centers.append(c)
        radii.append(r)
    return SphereSet(centers, radii)


@dataclass
class BaselineResult:
    """Outcome of the uniform-grid baseline search."""

    reachable: bool
    path: list[tuple[int, ...]] | None
    expanded: int
    elapsed: float


def uniform_astar(world: GridWorld, start, goal) -> BaselineResult:
    """Optimal unit-cost A* over free cells with face connectivity.

    start and goal are integer cell coordinates; ties are broken by
    (f, h, flat index) so runs are deterministic.  The heuristic is the
    integer L1 (Manhattan) distance to the goal cell, which is admissible
    and consistent on unit face moves and exact on an obstacle-free grid.
    The multiscale planner's searches take the same L1 distance, between
    node centres.  The Euclidean distance would be admissible here too,
    but loose: with it this search expands most of the map.
    """
    start = tuple(int(c) for c in start)
    goal = tuple(int(c) for c in goal)
    dim, side = world.dim, world.side
    for name, cell in (("start", start), ("goal", goal)):
        if len(cell) != dim or any(not 0 <= c < side for c in cell):
            raise ValueError(f"{name} cell {cell} outside the grid")
        if world.cells[world.flat_index(cell)]:
            raise ValueError(f"{name} cell {cell} is an obstacle")
    began = time.perf_counter()
    strides = [side**j for j in range(dim)]
    s_flat = world.flat_index(start)
    g_flat = world.flat_index(goal)
    occupied = world.cells

    def heuristic(flat: int) -> int:
        s = 0
        for j in range(dim - 1, -1, -1):
            c = flat // strides[j]
            flat -= c * strides[j]
            s += abs(c - goal[j])
        return s

    g = np.full(occupied.shape[0], inf)
    parent = np.full(occupied.shape[0], -1, dtype=np.int64)
    closed = np.zeros(occupied.shape[0], dtype=bool)
    g[s_flat] = 0.0
    heap = [(heuristic(s_flat), heuristic(s_flat), s_flat)]
    expanded = 0
    found = False
    while heap:
        f, h, flat = heapq.heappop(heap)
        if closed[flat]:
            continue
        if flat == g_flat:
            found = True
            break
        closed[flat] = True
        expanded += 1
        gv = g[flat]
        rest = flat
        for j in range(dim - 1, -1, -1):
            c = rest // strides[j]
            rest -= c * strides[j]
            for delta in (1, -1):
                nc = c + delta
                if not 0 <= nc < side:
                    continue
                nb = flat + delta * strides[j]
                if closed[nb] or occupied[nb]:
                    continue
                tentative = gv + 1.0
                if tentative < g[nb]:
                    g[nb] = tentative
                    parent[nb] = flat
                    hn = heuristic(nb)
                    heapq.heappush(heap, (tentative + hn, hn, nb))
    elapsed = time.perf_counter() - began
    if not found:
        return BaselineResult(False, None, expanded, elapsed)

    def coords(flat: int) -> tuple[int, ...]:
        out = []
        for _ in range(dim):
            out.append(flat % side)
            flat //= side
        return tuple(out)

    cells = [coords(g_flat)]
    at = g_flat
    while at != s_flat:
        at = int(parent[at])
        cells.append(coords(at))
    cells.reverse()
    return BaselineResult(True, cells, expanded, elapsed)


class GridPredicate(BatchPredicate):
    """Point-obstacle queries backed by a grid world (half-open cells).

    A point reads the unit cell floor(point), clamped inward on the
    world's upper faces.  A point outside the box [0, side]**dim, or with
    a NaN coordinate, raises ValueError.
    """

    def __init__(self, world: GridWorld):
        self.world = world
        self._strides = np.array(
            [world.side**j for j in range(world.dim)], dtype=np.int64
        )

    def batch(self, points: np.ndarray) -> np.ndarray:
        side = self.world.side
        # Written so that NaN, which compares false, fails it.
        if not np.all((points >= 0) & (points <= side)):
            raise ValueError("point outside the world box")
        cells = np.minimum(points.astype(np.int64), side - 1)
        flat = (cells * self._strides).sum(axis=1)
        return self.world.cells[flat].astype(bool)


def grid_predicate(world: GridWorld) -> GridPredicate:
    """Obstacle predicate reading the containing unit cell of each point."""
    return GridPredicate(world)
