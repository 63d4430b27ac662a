"""Dyadic occupancy trees over unit-cell grids.

The world is the box [0, 2**depth]**dim partitioned into unit cells.  A node
of the tree is a cube of side 2**k (the scale) whose center sits on the
half-integer lattice for that scale.  To keep all geometry exact we store
centers in doubled coordinates: center2 = 2 * center, which is integral at
every scale.  A node at scale k has center2 components congruent to 2**k
modulo 2**(k + 1).

A tree is built from a grid of 0/1 unit cells (OccupancyTree(world), or
build_from_grid), the form perception maps come in.  It gives every node
its occupancy value: the fraction of obstacle volume inside the node's
cube.  A node is subdivided only when its value is strictly between 0
and 1, so uniformly free or uniformly blocked regions collapse into
single leaves.  Internal nodes always carry all 2**dim children.

The tree is stored as a count pyramid, one level per scale.  Level k holds
two arrays with one entry per scale-k node address: the number of
obstacle cells in the node's cube, and whether the node is internal.  A
node is stored when all its ancestors are internal.  The counts cover
every address, stored or not, so a node under a uniform leaf reads the
leaf's value without a search.  Each level is in the flat layout of the
map file, axis 0 fastest; as a numpy array, axis a holds spatial axis
dim - 1 - a.

Every module keys a node by its address, the (scale, center2) tuple.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "NodeIndex",
    "GridWorld",
    "OccupancyTree",
    "build_from_grid",
    "read_map",
    "parse_map_text",
    "map_text",
]

# The deepest world the package supports and tests (2**10 cells a side).
# GridWorld enforces it.  A map-free PlannerSession, which builds no grid,
# and GeneratorSpec, before a grid is filled, check it themselves.
MAX_DEPTH = 10


class NodeIndex(NamedTuple):
    """Address of a tree node: cube of side 2**scale centered at center2/2.

    It hashes and compares equal to the plain (scale, center2) tuple, so
    either form finds the same dict or set entry.
    """

    scale: int
    center2: tuple[int, ...]


def valid_index(idx: NodeIndex, dim: int, depth: int) -> bool:
    k, c2 = idx
    if len(c2) != dim or not 0 <= k <= depth:
        return False
    step = 1 << k
    top = 2 << depth
    for c in c2:
        if not step <= c <= top - step:
            return False
        if (c >> k) & 1 == 0 or c & (step - 1):
            return False
    return True


def _flat_index(dim: int, side: int, cell: Sequence[int]) -> int:
    """Position of a unit cell in the flat layout, axis 0 fastest."""
    if len(cell) != dim:
        raise ValueError(f"cell {tuple(cell)} is not {dim}-dimensional")
    flat = 0
    for i in reversed(cell):
        if not 0 <= i < side:
            raise ValueError(f"cell {tuple(cell)} outside the grid")
        flat = flat * side + i
    return flat


class GridWorld:
    """A binary occupancy grid over [0, 2**depth]**dim unit cells.

    Cells are stored in a flat array with axis 0 fastest, matching the map
    file layout, so cell (i_0, .., i_{d-1}) lives at sum_j i_j * side**j.
    """

    __slots__ = ("dim", "depth", "side", "cells")

    def __init__(self, dim: int, depth: int, cells: np.ndarray):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if not 0 <= depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [0, {MAX_DEPTH}]")
        side = 1 << depth
        cells = np.ascontiguousarray(cells, dtype=np.uint8).ravel()
        if cells.size != side**dim:
            raise ValueError(
                f"expected {side ** dim} cells for dim={dim} depth={depth}, "
                f"got {cells.size}"
            )
        if cells.max(initial=0) > 1:
            raise ValueError("cells must be 0 or 1")
        self.dim = dim
        self.depth = depth
        self.side = side
        self.cells = cells

    def flat_index(self, cell: Sequence[int]) -> int:
        return _flat_index(self.dim, self.side, cell)

    def occupied(self, cell: Sequence[int]) -> bool:
        return bool(self.cells[self.flat_index(cell)])


def map_text(world: GridWorld) -> str:
    """Serialize a world to the two-line map format."""
    body = np.char.mod("%d", world.cells)
    return f"{world.dim} {world.depth}\n" + "".join(body.tolist()) + "\n"


def parse_map_text(text: str) -> GridWorld:
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("map file needs a header line and a cell line")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("map header must be two integers: dim depth")
    dim, depth = int(head[0]), int(head[1])
    row = lines[1].strip()
    if set(row) - {"0", "1"}:
        raise ValueError("map cells must be characters 0 or 1")
    cells = np.frombuffer(row.encode("ascii"), dtype=np.uint8) - ord("0")
    return GridWorld(dim, depth, cells)


def read_map(path: str) -> GridWorld:
    with open(path, "r", encoding="ascii") as fh:
        return parse_map_text(fh.read())


def _child_sums(level: np.ndarray, k: int) -> np.ndarray:
    """Level k of a count pyramid from level k - 1, in the narrowest dtype
    that holds 2**(dim * k): exact when no level k - 1 count exceeds
    2**(dim * (k - 1)).  Adding even and odd slices one axis at a time is
    many times faster than one sum over a reshaped level's strided axes.
    """
    dtype = np.min_scalar_type(1 << (level.ndim * k))
    for ax in range(level.ndim):
        lead = (slice(None),) * ax
        even, odd = level[lead + (slice(0, None, 2),)], level[lead + (slice(1, None, 2),)]
        level = np.add(even, odd, dtype=dtype, casting="unsafe")
    return level


class OccupancyTree:
    """Pruned multiscale occupancy map of a grid, stored as a count pyramid.

    OccupancyTree(world) builds the tree of a GridWorld, whose cells are
    already checked to be 0 or 1.  Level 0 is a copy of the grid's cells
    and level k sums the children of each scale-k node, so values are
    exact dyadic rationals, counts[k] / 2**(dim * k), and a parent's value
    is exactly the mean of its children's.  A node is internal when its
    cube holds both free and obstacle cells, so uniform subtrees collapse
    into single leaves.  Every level is read-only: neither the source
    grid nor the grid to_grid returns can change the tree.
    """

    __slots__ = ("dim", "depth", "side", "_counts", "_internal", "_labels")

    def __init__(self, world: GridWorld):
        dim = world.dim
        counts = [world.cells.reshape((world.side,) * dim).copy()]
        for k in range(1, world.depth + 1):
            counts.append(_child_sums(counts[-1], k))
        internal = [(0 < c) & (c < (1 << (dim * k))) for k, c in enumerate(counts)]
        for level in counts + internal:
            level.flags.writeable = False
        self.dim = dim
        self.depth = world.depth
        self.side = world.side
        # Flat memoryviews: indexing one returns a Python int or bool, at
        # half the cost of reading a numpy element.
        self._counts = [memoryview(c.ravel()) for c in counts]
        self._internal = [memoryview(m.ravel()) for m in internal]
        # Component labels of the unit grid, computed on the first
        # grid_connected call.
        self._labels: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        """Stored nodes: the root and the children of every internal node."""
        inner = sum(np.count_nonzero(np.asarray(m)) for m in self._internal)
        return 1 + (inner << self.dim)

    def lookup(self, scale: int, center2: Sequence[int]) -> tuple[float, bool]:
        """Value and internal flag of a node address, without checking it.

        The address must be valid (valid_index); value and is_internal are
        the checked forms, and exact planning reads node values through it.
        """
        shift = scale + 1
        width = self.depth - scale
        i = 0
        for c in reversed(center2):
            i = (i << width) | (c >> shift)
        return self._counts[scale][i] / (1 << self.dim * scale), self._internal[scale][i]

    def state(self, scale: int, center2: Sequence[int]) -> tuple[bool, bool]:
        """Whether a node address is full and whether it is internal.

        The unchecked form of is_obstacle and is_internal in one call: the
        exact-mode state source a reduced view reads once per node it
        decides.  It repeats lookup's address arithmetic rather than wrap
        lookup: against a closure over lookup, the local-exact benchmark's
        plan_p50_ref reads 3.2% lower in the median and lower in 9 of 10
        alternating pairs of runs (seed 1, shared 2-vCPU Xeon).
        """
        shift = scale + 1
        width = self.depth - scale
        i = 0
        for c in reversed(center2):
            i = (i << width) | (c >> shift)
        return self._counts[scale][i] == 1 << self.dim * scale, self._internal[scale][i]

    def is_internal(self, idx: NodeIndex) -> bool:
        """True when the node has children; such a node is always stored."""
        if not valid_index(idx, self.dim, self.depth):
            raise ValueError(f"{idx} is not a node address of this tree")
        return self.lookup(idx.scale, idx.center2)[1]

    def value(self, idx: NodeIndex) -> float:
        """Occupancy fraction of the node's cube.

        Every node address has one, stored or not: a node under a uniform
        leaf has the leaf's value, so the pruned tree answers exactly like
        the unpruned one.
        """
        if not valid_index(idx, self.dim, self.depth):
            raise ValueError(f"{idx} is not a node address of this tree")
        return self.lookup(idx.scale, idx.center2)[0]

    def leaf_at(self, point: Sequence[float]) -> NodeIndex:
        """Deepest stored node whose cube contains the point.

        Containment is half-open: points on a shared face belong to the
        neighbor with the larger coordinate.  The point must be strictly
        inside the world box.  The node is the first ancestor of the unit
        cell floor(point) whose parent is internal, or the root: the walk
        goes up, as the planner's points mostly lie in fine leaves.
        """
        for x in point:
            if not 0.0 < x < self.side:
                raise ValueError(f"point {tuple(point)} not strictly inside")
        cell = [int(x) for x in point]

        def address(k: int) -> tuple[int, ...]:
            return tuple(((c >> k) << (k + 1)) | (1 << k) for c in cell)

        k = 0
        while k < self.depth and not self.lookup(k + 1, address(k + 1))[1]:
            k += 1
        return NodeIndex(k, address(k))

    def is_obstacle(self, idx: NodeIndex) -> bool:
        """Every cell of the node is occupied.

        The value is a count over a power of two, so the comparison with
        1.0 is exact (for any grid with fewer than 2**53 cells).
        """
        return self.value(idx) == 1.0

    def to_grid(self) -> GridWorld:
        """The unit-cell grid: level 0 of the pyramid, read-only."""
        return GridWorld(self.dim, self.depth, np.asarray(self._counts[0]))


def grid_connected(
    tree: OccupancyTree, a: Sequence[int], b: Sequence[int]
) -> bool:
    """True when two free unit cells join through face-adjacent free cells.

    Compares the cells' component labels.  Reachability is a fixed fact of
    the map, so the first call labels the whole grid of tree.to_grid() once
    (_component_labels) and keeps the labels on the tree; every later call
    costs two lookups.  An exact PlannerSession asks it only when its walk
    first stops short of the goal, so a walk that never does labels nothing.
    """
    labels = tree._labels
    if labels is None:
        labels = tree._labels = _component_labels(tree.to_grid())
    la = labels[_flat_index(tree.dim, tree.side, a)]
    return la >= 0 and la == labels[_flat_index(tree.dim, tree.side, b)]


def _component_labels(world: GridWorld) -> np.ndarray:
    """Face-connected component label of every cell, in the flat layout.

    A free cell's label is the smallest flat index in its component, an
    obstacle cell's is -1.  The labels go to runs, not cells (He, Chao &
    Suzuki, IEEE TIP 2008): a run is a maximal line of free cells along
    spatial axis 0, which is contiguous in the flat layout, and runs are
    numbered in flat order by a cumulative sum of run starts.  Two runs on
    lines that are neighbours along another axis overlap in one interval
    at most, so one joined pair per maximal stretch of free face pairs
    joins them.

    A vectorized union-find then runs over the runs.  Every run starts as
    its own root.  Each round hooks the larger root of every pair that
    still spans two roots under the smaller one (parents only ever point
    to smaller ids, so no cycle forms), then jumps pointers until every run
    points at its root.  A round with such a pair hooks at least one root,
    so the rounds end, at the latest when each component has one.  A
    cell's label is the first cell of its root run: the smallest cell of a
    component starts a run, and runs are numbered in flat order.
    """
    dim, side = world.dim, world.side
    n = world.cells.size
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    free = world.cells.reshape((side,) * dim) == 0
    # The last numpy axis is spatial axis 0.
    starts = free.copy()
    starts[..., 1:] &= ~free[..., :-1]
    first = np.flatnonzero(starts).astype(dtype)
    if not first.size:
        return np.full(n, -1, dtype=dtype)
    # Each cell's run, the last one started at or before it.
    run = np.cumsum(starts, axis=None, dtype=dtype) - 1
    # One joined pair per overlap; a 1-D map has none.
    lows, highs = [np.empty(0, dtype)], [np.empty(0, dtype)]
    full = slice(None)
    for ax in range(dim - 1):
        lead = tuple(slice(1, None) if i == ax else full for i in range(dim))
        trail = tuple(slice(None, -1) if i == ax else full for i in range(dim))
        pairs = np.zeros_like(free)
        pairs[trail] = free[lead] & free[trail]
        pairs[..., 1:] &= ~pairs[..., :-1]
        at = np.flatnonzero(pairs)
        lows.append(run[at])
        highs.append(run[at + side ** (dim - 1 - ax)])
    low, high = np.concatenate(lows), np.concatenate(highs)
    index = np.arange(first.size, dtype=dtype)
    parent = index.copy()
    roots = first.size
    while True:
        root_low, root_high = parent[low], parent[high]
        split = root_low != root_high
        if not split.any():
            break
        # A joined pair stays joined, so later rounds drop it.
        low, high = low[split], high[split]
        root_low, root_high = root_low[split], root_high[split]
        parent[np.maximum(root_low, root_high)] = np.minimum(root_low, root_high)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        left = np.count_nonzero(parent == index)
        if left >= roots:
            raise RuntimeError("component labelling hooked no root in a round")
        roots = left
    return np.where(free.ravel(), first[parent][run], -1).astype(dtype, copy=False)


# The name callers build a tree by.
build_from_grid = OccupancyTree
