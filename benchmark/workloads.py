"""Seeded query sets for the three benchmark workloads.

Every workload is a fixed list of queries drawn from the run's seed, plus
an optional shared set-up (the local workload builds its maps once).  A
query carries everything the planner receives and everything the
correctness gate needs: the unit-cell grid the reference search runs on
and the unwrapped obstacle predicate for map-free path checks.

Why each workload exists:

grid-exact      exact mode, opposite corners of small 2-D and 3-D maps.
                Long walks load refresh, neighbour lookup and the search
                loop; sampling and predicates stay idle.  The tree build is
                part of each query.
oracle-mapfree  map-free mode against point oracles: continuous sampling
                of 3-D sphere scenes, plus 2-D grids sampled through the
                cell memo.  The only workload where sampling and the
                predicates do real work.
local-exact     large 2-D maps built once in set-up and many short
                queries against them, so the build leaves the query clock
                while the up-front flood fill and a large view stay on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from mspp import GeneratorSpec, GridWorld, generate_map, grid_predicate
from mspp import tree as mtree
from mspp.environments import random_spheres
from mspp.search import PlannerSession, PlanResult

# Iteration budget of every local-exact query.  Without one a seeded
# stream of short queries can walk for minutes on a single pair.
LOCAL_BUDGET = 256
# Iteration budget of every map-free query, far above what the reachable
# queries need, so that a walk that cannot prove unreachability ends in a
# counted budget failure instead of running for minutes.
MAPFREE_BUDGET = 1024
LOCAL_QUERIES = 2000
LOCAL_REACH = 8
# Maps of the local workload.  Query cost depends on a map's clutter, so
# with a single map the percentiles moved by a fifth from seed to seed,
# and with four by a tenth; sixteen maps average most of that out.
LOCAL_MAPS = 16


@dataclass
class Query:
    """One planning problem and what the correctness gate checks it with.

    grid is the unit-cell map the reference search runs on: the map itself
    in exact mode, the realized oracle in map-free mode.  predicate is the
    map-free oracle (None in exact mode); sample_seed seeds its sampling.
    shared indexes the workload's set-up trees; an exact query without it
    builds its own tree on the query clock.
    """

    label: str
    dim: int
    depth: int
    start: tuple[float, ...]
    goal: tuple[float, ...]
    grid: GridWorld
    predicate: object = None
    cell_picks: bool = False
    sample_seed: int = 0
    budget: int | None = None
    shared: int | None = None

    def start_cell(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.start)

    def goal_cell(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.goal)


def _corners(dim: int, depth: int):
    side = 1 << depth
    return (0.5,) * dim, (side - 0.5,) * dim


def _draw(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def realize(scene, dim: int, depth: int) -> GridWorld:
    """Unit-cell grid of a point oracle, queried at every cell centre.

    One vectorized batch call in the grid's flat layout (axis 0 fastest).
    mspp.environments.realize_grid makes one scalar call per cell and
    fills the flat array with the last axis fastest, which reverses the
    axes; corner-to-corner reachability and path lengths do not depend on
    that, but cell lookups would.
    """
    side = 1 << depth
    axes = np.meshgrid(*[np.arange(side) + 0.5] * dim, indexing="ij")
    centres = np.stack([a.ravel(order="F") for a in axes], axis=1)
    return GridWorld(dim, depth, scene.batch(centres))


def component_labels(grid: GridWorld) -> np.ndarray:
    """Face-connected component id of every free cell, -1 on obstacles."""
    side = grid.side
    strides = [side**j for j in range(grid.dim)]
    occupied = grid.cells.tolist()
    labels = [-1] * len(occupied)
    next_id = 0
    for seed in range(len(occupied)):
        if occupied[seed] or labels[seed] >= 0:
            continue
        labels[seed] = next_id
        queue = deque([seed])
        while queue:
            flat = queue.popleft()
            for stride in strides:
                coord = (flat // stride) % side
                for nb, inside in ((flat + stride, coord + 1 < side), (flat - stride, coord > 0)):
                    if inside and not occupied[nb] and labels[nb] < 0:
                        labels[nb] = next_id
                        queue.append(nb)
        next_id += 1
    return np.array(labels, dtype=np.int64)


def connected(query: "Query", labels: np.ndarray) -> bool:
    flat = query.grid.flat_index
    a = labels[flat(query.start_cell())]
    return bool(a >= 0 and a == labels[flat(query.goal_cell())])


# Draws allowed per stratum before generation gives up.
MAX_DRAWS = 5000


def _stratified(rng, strata, reachable: int, unreachable: int, make) -> list["Query"]:
    """Queries with a fixed mix per stratum, interleaved across strata.

    make(stratum, seed) builds one query; draws continue until the stratum
    holds `reachable` connected and `unreachable` disconnected pairs, so
    every seed gets the same mix and only the maps themselves vary.
    Unreachable queries end in an early "no path" in exact mode and in a
    long walk map-free, so a mix left to chance would move the
    percentiles from seed to seed.
    """
    groups = []
    for stratum in strata:
        want = {True: reachable, False: unreachable}
        group = []
        for _ in range(MAX_DRAWS):
            q = make(stratum, _draw(rng))
            ok = connected(q, component_labels(q.grid))
            if want[ok]:
                want[ok] -= 1
                group.append(q)
                if not any(want.values()):
                    break
        else:
            raise RuntimeError(f"stratum {stratum} did not fill in {MAX_DRAWS} draws")
        groups.append(group)
    return [q for row in zip(*groups) for q in row]


def grid_exact_queries(seed: int) -> list[Query]:
    """Corner-to-corner exact queries on 2-D 32x32 and 3-D 16^3 maps.

    Eight strata (dimension x texture x density), each with 2 unreachable
    maps; 2-D strata add 6 reachable maps and 3-D strata 20: 120 queries.
    A reachable 3-D query takes about twice as long as a 2-D one, and the
    uneven split puts the median inside the 3-D group; with equal groups
    it fell where the two groups meet, on the slowest 2-D and the fastest
    3-D queries, and moved by a quarter from run to run.
    """
    rng = np.random.default_rng([seed, 1])

    def make(stratum, map_seed):
        dim, kind, density = stratum
        depth = 5 if dim == 2 else 4
        spec = GeneratorSpec(
            dim, depth, density, kind=kind, seed=map_seed,
            free_start=True, free_goal=True,
        )
        start, goal = _corners(dim, depth)
        label = f"{dim}d-{kind}-{density}"
        return Query(label, dim, depth, start, goal, generate_map(spec))

    def strata(dim):
        return [(dim, kind, density)
                for kind in ("blobs", "bernoulli") for density in (0.25, 0.3)]

    return (
        _stratified(rng, strata(2), 6, 2, make)
        + _stratified(rng, strata(3), 20, 2, make)
    )


def oracle_mapfree_queries(seed: int) -> list[Query]:
    """Map-free corner queries: 3-D 16^3 sphere oracles, 2-D 16x16 grid oracles.

    Spheres at densities 0.3 and 0.4 sampled with continuous points, 39
    reachable and 1 unreachable scene each; grids through grid_predicate
    with cell_picks=True, so the cell memo runs, 8 reachable and 2
    unreachable per texture.  100 queries.

    The grid oracles are 16x16 rather than 32x32 because a 32x32 map-free
    walk that ends in "no path" takes about 2600 iterations and 5 s; at
    16x16 it takes under half a second.
    """
    rng = np.random.default_rng([seed, 2])

    def sphere(density, scene_seed):
        dim, depth = 3, 4
        start, goal = _corners(dim, depth)
        scene = random_spheres(dim, depth, scene_seed, density)
        return Query(
            f"3d-spheres-{density}", dim, depth, start, goal,
            realize(scene, dim, depth), predicate=scene,
            sample_seed=scene_seed, budget=MAPFREE_BUDGET,
        )

    def grid(kind, map_seed):
        dim, depth = 2, 4
        start, goal = _corners(dim, depth)
        spec = GeneratorSpec(
            dim, depth, 0.25, kind=kind, seed=map_seed,
            free_start=True, free_goal=True,
        )
        world = generate_map(spec)
        return Query(
            f"2d-cellpicks-{kind}", dim, depth, start, goal, world,
            predicate=grid_predicate(world), cell_picks=True,
            sample_seed=map_seed, budget=MAPFREE_BUDGET,
        )

    return (
        _stratified(rng, (0.3, 0.4), 39, 1, sphere)
        + _stratified(rng, ("blobs", "bernoulli"), 8, 2, grid)
    )


def local_maps(seed: int) -> list[GridWorld]:
    """The 256x256 maps the local-exact queries share: 90 blobs plus scatter."""
    rng = np.random.default_rng([seed, 3])
    return [
        generate_map(GeneratorSpec(
            2, 8, 0.3, kind="blobs", blobs=(90, 90), blob_size=(4, 20),
            seed=_draw(rng),
        ))
        for _ in range(LOCAL_MAPS)
    ]


def local_exact_queries(seed: int, worlds: list[GridWorld]) -> list[Query]:
    """Short queries, round robin over the maps.

    Each goes from a random free cell to a free cell at most 8 cells away
    per axis.
    """
    rng = np.random.default_rng([seed, 4])
    free_cells = []
    for world in worlds:
        free = world.cells.reshape(world.side, world.side) == 0  # axes (y, x)
        free_cells.append((free, np.nonzero(free)))
    out = []
    while len(out) < LOCAL_QUERIES:
        m = len(out) % len(worlds)
        world = worlds[m]
        free, (ys, xs) = free_cells[m]
        i = int(rng.integers(0, len(xs)))
        sx, sy = int(xs[i]), int(ys[i])
        gx = sx + int(rng.integers(-LOCAL_REACH, LOCAL_REACH + 1))
        gy = sy + int(rng.integers(-LOCAL_REACH, LOCAL_REACH + 1))
        if not (0 <= gx < world.side and 0 <= gy < world.side) or not free[gy, gx]:
            continue
        if (gx, gy) == (sx, sy):
            continue
        out.append(Query(
            "2d-local", 2, 8, (sx + 0.5, sy + 0.5), (gx + 0.5, gy + 0.5),
            world, budget=LOCAL_BUDGET, shared=m,
        ))
    return out


def shared_worlds(name: str, seed: int) -> tuple[GridWorld, ...]:
    """The maps a workload's set-up builds into trees; only local-exact has any."""
    return tuple(local_maps(seed)) if name == "local-exact" else ()


@dataclass
class Workload:
    """A query list plus the maps that set-up builds into trees."""

    name: str
    seed: int
    queries: list[Query]
    shared_worlds: tuple[GridWorld, ...] = ()


def make_workload(name: str, seed: int) -> Workload:
    worlds = shared_worlds(name, seed)
    if name == "grid-exact":
        return Workload(name, seed, grid_exact_queries(seed))
    if name == "oracle-mapfree":
        return Workload(name, seed, oracle_mapfree_queries(seed))
    if name == "local-exact":
        return Workload(name, seed, local_exact_queries(seed, list(worlds)), worlds)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid-exact", "oracle-mapfree", "local-exact")


def prepare(worlds) -> list:
    """One-time preparation before the first query: the shared trees."""
    return [mtree.build_from_grid(world) for world in worlds]


def plan_query(query: Query, trees: list, predicate=None) -> PlanResult:
    """Hand one query to mspp and return its result.

    This is the timed region.  Exact queries without a shared tree build
    their own from the grid; map-free queries get `predicate`, which
    defaults to the query's own oracle (the traced run passes a counting
    wrapper instead).  The build goes through the module attribute so a
    traced run can wrap it.
    """
    if query.predicate is not None:
        session = PlannerSession(
            predicate=query.predicate if predicate is None else predicate,
            dim=query.dim,
            depth=query.depth,
            start=query.start,
            goal=query.goal,
            seed=query.sample_seed,
            cell_picks=query.cell_picks,
            budget=query.budget,
        )
    else:
        if query.shared is None:
            tree = mtree.build_from_grid(query.grid)
        else:
            tree = trees[query.shared]
        session = PlannerSession(
            tree=tree, start=query.start, goal=query.goal, budget=query.budget
        )
    return session.run()
