"""Dyadic occupancy trees over unit-cell grids.

The world is the box [0, 2**depth]**dim partitioned into unit cells.  A node
of the tree is a cube of side 2**k (the scale) whose center sits on the
half-integer lattice for that scale.  To keep all geometry exact we store
centers in doubled coordinates: center2 = 2 * center, which is integral at
every scale.  A node at scale k has center2 components congruent to 2**k
modulo 2**(k + 1).

The tree itself maps each stored node to its occupancy value: the fraction
of obstacle volume inside the node's cube.  A node is subdivided only when
its value is strictly between 0 and 1, so uniformly free or uniformly
blocked regions collapse into single leaves.  Internal nodes always carry
all 2**dim children.

Nodes are keyed by one packed int (pack_index, unpack_index): the scale in
the top bits, then COORD_BITS bits per doubled center coordinate, axis 0
highest.  This module alone knows that layout; other modules build keys
through pack_index and treat them as opaque.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "NodeIndex",
    "GridWorld",
    "OccupancyTree",
    "build_from_grid",
    "children_of",
    "parent_of",
    "node_bounds2",
    "node_volume",
    "pack_index",
    "read_map",
    "unpack_index",
    "write_map",
    "parse_map_text",
    "map_text",
]

# Packed keys reserve a fixed number of bits per doubled coordinate, which
# caps the supported depth at 10 (center2 < 2**12 then).  Plenty for the
# grids this package targets.  GridWorld enforces it, and a map-free
# PlannerSession, which builds no grid, checks it itself.
COORD_BITS = 12
MAX_DEPTH = COORD_BITS - 2


class NodeIndex(NamedTuple):
    """Address of a tree node: cube of side 2**scale centered at center2/2."""

    scale: int
    center2: tuple[int, ...]


def pack_index(scale: int, center2: Sequence[int]) -> int:
    """Pack a node address into a single int key (fast dict/set member).

    Also packs elementwise when scale is an integer numpy array and center2
    holds one such array per axis.
    """
    key = scale
    for c in center2:
        key = (key << COORD_BITS) | c
    return key


def unpack_index(key: int, dim: int) -> NodeIndex:
    """The node address a pack_index key encodes."""
    mask = (1 << COORD_BITS) - 1
    coords = []
    for _ in range(dim):
        coords.append(key & mask)
        key >>= COORD_BITS
    return NodeIndex(key, tuple(reversed(coords)))


def node_bounds2(idx: NodeIndex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lower and upper cube corners in doubled coordinates."""
    half = 1 << idx.scale
    lo = tuple(c - half for c in idx.center2)
    hi = tuple(c + half for c in idx.center2)
    return lo, hi


def node_volume(idx: NodeIndex, dim: int) -> int:
    """Number of unit cells covered by the node."""
    return 1 << (dim * idx.scale)


def children_of(idx: NodeIndex) -> list[NodeIndex]:
    """The 2**dim children, axis 0 varying fastest, minus sign before plus.

    Children of a scale-k node live at scale k - 1 with centers offset by
    2**(k - 2) along every axis, which is 2**(k - 1) in doubled coordinates.
    """
    k, c2 = idx
    if k <= 0:
        raise ValueError("unit-scale node has no children")
    half = 1 << (k - 1)
    dim = len(c2)
    out = []
    for i in range(1 << dim):
        q2 = tuple(
            c2[j] + (half if (i >> j) & 1 else -half) for j in range(dim)
        )
        out.append(NodeIndex(k - 1, q2))
    return out


def parent_of(idx: NodeIndex) -> NodeIndex:
    """The scale k+1 node whose cube contains this node."""
    k, c2 = idx
    mask = ~((1 << (k + 2)) - 1)
    step = 1 << (k + 1)
    return NodeIndex(k + 1, tuple((c & mask) | step for c in c2))


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

    def cell_of(self, point: Sequence[float]) -> tuple[int, ...]:
        """Unit cell containing a point, half-open on upper faces."""
        cell = []
        for x in point:
            if not 0.0 <= x <= self.side:
                raise ValueError(f"point {tuple(point)} outside the world")
            cell.append(min(int(x), self.side - 1))
        return tuple(cell)

    def occupied(self, cell: Sequence[int]) -> bool:
        return bool(self.cells[self.flat_index(cell)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GridWorld)
            and self.dim == other.dim
            and self.depth == other.depth
            and bool(np.array_equal(self.cells, other.cells))
        )


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


def write_map(world: GridWorld, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(map_text(world))


def read_map(path: str) -> GridWorld:
    with open(path, "r", encoding="ascii") as fh:
        return parse_map_text(fh.read())


def _count_pyramid(world: GridWorld) -> list[np.ndarray]:
    """Per-scale obstacle-cell counts; level k has one entry per scale-k node."""
    dim, side = world.dim, world.side
    level = world.cells.astype(np.int64).reshape((side,) * dim)
    pyramid = [level]
    for _ in range(world.depth):
        half = level.shape[0] // 2
        shaped = level.reshape(sum(((half, 2),) * dim, ()))
        level = shaped.sum(axis=tuple(range(1, 2 * dim, 2)))
        pyramid.append(level)
    return pyramid


class OccupancyTree:
    """Pruned multiscale occupancy map backed by an explicit node store.

    Values are exact dyadic rationals (obstacle cells / total cells).  The
    store keeps every non-collapsed node; descendants of a collapsed leaf
    are addressable through value() and share the leaf's value.
    """

    __slots__ = ("dim", "depth", "side", "_values", "_internal", "world", "_labels")

    def __init__(
        self,
        dim: int,
        depth: int,
        values: dict[int, float],
        internal: set[int],
        world: GridWorld | None = None,
    ):
        self.dim = dim
        self.depth = depth
        self.side = 1 << depth
        self._values = values
        self._internal = internal
        self.world = world
        # Component labels of the unit grid, computed on the first
        # grid_connected call.
        self._labels: np.ndarray | None = None

    @property
    def values(self) -> dict[int, float]:
        """Packed key -> occupancy of every stored node; do not modify."""
        return self._values

    @property
    def internal(self) -> set[int]:
        """Packed keys of the stored nodes that have children; do not modify."""
        return self._internal

    @property
    def root(self) -> NodeIndex:
        return NodeIndex(self.depth, (self.side,) * self.dim)

    @property
    def node_count(self) -> int:
        return len(self._values)

    def _key(self, idx: NodeIndex) -> int:
        return pack_index(idx.scale, idx.center2)

    def has_node(self, idx: NodeIndex) -> bool:
        return self._key(idx) in self._values

    def is_leaf(self, idx: NodeIndex) -> bool:
        """True when the node is stored and carries no children."""
        key = self._key(idx)
        if key not in self._values:
            raise KeyError(f"node {idx} is not stored in the tree")
        return key not in self._internal

    def is_internal(self, idx: NodeIndex) -> bool:
        return self._key(idx) in self._internal

    def _stored_key(self, idx: NodeIndex) -> int:
        """Key of the first stored node at or above idx.

        Nothing is stored below a leaf, so for an unstored idx this is the
        stored leaf whose cube contains idx's cube.
        """
        values = self._values
        key = pack_index(idx.scale, idx.center2)
        while key not in values:
            idx = parent_of(idx)
            key = pack_index(idx.scale, idx.center2)
        return key

    def value(self, idx: NodeIndex) -> float:
        """Occupancy fraction of the node's cube.

        Descendants of a collapsed leaf resolve to the leaf's value, so the
        pruned tree answers exactly like the unpruned one.
        """
        if not valid_index(idx, self.dim, self.depth):
            raise ValueError(f"{idx} is not a node address of this tree")
        return self._values[self._stored_key(idx)]

    def leaf_at(self, point: Sequence[float]) -> NodeIndex:
        """Deepest stored node whose cube contains the point.

        Containment is half-open: points on a shared face belong to the
        neighbor with the larger coordinate.  The point must be strictly
        inside the world box.  The node is the first stored ancestor of
        the unit cell floor(point).
        """
        for x in point:
            if not 0.0 < x < self.side:
                raise ValueError(f"point {tuple(point)} not strictly inside")
        cell = NodeIndex(0, tuple(2 * int(x) + 1 for x in point))
        return unpack_index(self._stored_key(cell), self.dim)

    def is_eps_obstacle(self, idx: NodeIndex, eps: float) -> bool:
        """Scale-weighted obstacle test.

        A node of scale k counts as an obstacle when its occupancy reaches
        1 - eps / 2**(dim * k): the free volume it hides is below eps unit
        cells.
        """
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must be in (0, 1)")
        return self.value(idx) >= 1.0 - eps * 2.0 ** (-self.dim * idx.scale)

    def iter_nodes(self) -> Iterator[tuple[NodeIndex, float]]:
        for key, val in self._values.items():
            yield unpack_index(key, self.dim), val

    def to_grid(self) -> GridWorld:
        """The unit-cell grid the tree describes.

        Returns the source grid when one is attached; otherwise the grid is
        reconstructed by painting every leaf cube, which requires all leaf
        values to be binary.
        """
        if self.world is not None:
            return self.world
        shape = (self.side,) * self.dim
        cells = np.zeros(shape, dtype=np.uint8)
        for key, val in self._values.items():
            if key in self._internal or val == 0.0:
                continue
            if val != 1.0:
                raise ValueError("tree has fractional leaves; no grid exists")
            k, c2 = unpack_index(key, self.dim)
            half = 1 << k
            # A leaf cube spans unit cells [(c2-2**k)/2, (c2+2**k)/2); numpy
            # axis a holds spatial axis dim-1-a (flat layout, axis 0 fastest).
            sl = tuple(slice((c - half) >> 1, (c + half) >> 1) for c in reversed(c2))
            cells[sl] = 1
        return GridWorld(self.dim, self.depth, cells)


def grid_connected(
    tree: OccupancyTree, a: Sequence[int], b: Sequence[int]
) -> bool:
    """True when two free unit cells join through face-adjacent free cells.

    Compares the cells' component labels.  Reachability is a fixed fact of
    the map, so the first call labels the whole grid of tree.to_grid() once
    (_component_labels) and keeps the labels on the tree; every later call
    costs two lookups.
    """
    labels = tree._labels
    if labels is None:
        labels = tree._labels = _component_labels(tree.to_grid())
    la = labels[_flat_index(tree.dim, tree.side, a)]
    return la >= 0 and la == labels[_flat_index(tree.dim, tree.side, b)]


def _component_labels(world: GridWorld) -> np.ndarray:
    """Face-connected component label of every cell, in the flat layout.

    A free cell's label is the smallest flat index in its component, an
    obstacle cell's is -1.  A vectorized union-find over the free face pairs.  Every cell starts as
    its own root.  Each round hooks the larger root of every pair that
    still spans two roots under the smaller one (parents only ever point
    to smaller indices, so no cycle forms), then jumps pointers until every
    cell points at its root.  A round with such a pair hooks at least one
    root, so the rounds end, at the latest when each component has one.
    """
    dim, side = world.dim, world.side
    n = world.cells.size
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    free = world.cells.reshape((side,) * dim) == 0
    index = np.arange(n, dtype=dtype)
    flat = index.reshape(free.shape)
    lows, highs = [], []
    full = slice(None)
    for ax in range(dim):
        lead = tuple(slice(1, None) if i == ax else full for i in range(dim))
        trail = tuple(slice(None, -1) if i == ax else full for i in range(dim))
        both = free[lead] & free[trail]
        lows.append(flat[trail][both])
        highs.append(flat[lead][both])
    low, high = np.concatenate(lows), np.concatenate(highs)
    parent = index.copy()
    roots = n
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
    parent[~free.ravel()] = -1
    return parent


def build_from_grid(world: GridWorld) -> OccupancyTree:
    """Build the pruned occupancy tree of a grid.

    Every stored node is materialized explicitly; uniform subtrees collapse
    into single leaves.  Parent values are computed from unit-cell counts,
    so they are exactly the mean of their children's values.  Levels are
    processed top-down with vectorized key packing.
    """
    dim, depth = world.dim, world.depth
    values, internal = _build_levels(_count_pyramid(world), dim, depth)
    return OccupancyTree(dim, depth, values, internal, world)


def _build_levels(
    pyramid: list[np.ndarray], dim: int, depth: int
) -> tuple[dict[int, float], set[int]]:
    values: dict[int, float] = {}
    internal: set[int] = set()
    # Keys are packed as unsigned 64-bit words when they fit one (dim <= 5)
    # and as Python ints otherwise.
    fits = dim * COORD_BITS + max(depth, 1).bit_length() <= 64
    dtype = np.uint64 if fits else object
    mixed_prev: np.ndarray | None = None
    for k in range(depth, -1, -1):
        if mixed_prev is None:
            stored = np.ones((1,) * dim, dtype=bool)
        else:
            stored = mixed_prev
            for ax in range(dim):
                stored = stored.repeat(2, axis=ax)
        counts = pyramid[k]
        full = 1 << (dim * k)
        sel = np.nonzero(stored)
        cnt = counts[sel]
        # numpy axis a holds spatial axis dim-1-a, and keys pack spatial
        # axis 0 first, so read the numpy axes in reverse.
        center2 = [
            ((sel[a].astype(dtype) << 1) | 1) << k for a in reversed(range(dim))
        ]
        key = pack_index(np.full(cnt.shape, k, dtype=dtype), center2)
        values.update(zip(key.tolist(), (cnt / float(full)).tolist()))
        if k > 0:
            mixed = (cnt > 0) & (cnt < full)
            internal.update(key[mixed].tolist())
            grid_mixed = np.zeros(counts.shape, dtype=bool)
            grid_mixed[sel] = mixed
            mixed_prev = grid_mixed
    return values, internal
