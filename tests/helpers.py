"""Shared builders, independent oracles and view drivers for the test suite.

The oracles intentionally avoid the library's own code paths: neighbor
checks go through interval intersection, window tests through exact
integer arithmetic, connectivity through a set-based flood fill and
component labels through a cell-by-cell one, the stored nodes of a tree
through a walk over its public lookups, so tests compare two separately
derived answers.  The tree references
(parent_of, root_of, children_of, node_bounds2, has_node, is_leaf,
stored_nodes), covers, realize_grid, same_world and state_source are
written over public calls only.

view_snapshot and all_neighbor_pairs are drivers, not oracles: they run
the library's own lookups (collect_leaves, find_neighbors) over a whole
view, to be compared with eager_view or pairwise_edges.  leaf_at_point
finds a view leaf from a point through the library's find_containing.

root_descent_neighbors and dict_astar keep earlier forms of library
routines (the neighbor lookup and the A* loop), to be compared with the
current ones.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import product
from math import inf, ldexp

import numpy as np

from mspp.environments import GeneratorSpec, generate_map
from mspp.neighbors import (
    add_face_leaves,
    collect_leaves,
    find_containing,
    find_neighbors,
)
from mspp.reduced import ReducedTree, RTNode
from mspp.tree import GridWorld, NodeIndex, valid_index


def random_world(
    dim: int, depth: int, density: float, seed: int, free_corners: bool = False
) -> GridWorld:
    spec = GeneratorSpec(
        dim,
        depth,
        density,
        seed=seed,
        free_start=free_corners,
        free_goal=free_corners,
    )
    return generate_map(spec)


def random_index(rng, dim: int, depth: int, scale: int | None = None) -> NodeIndex:
    """Uniformly random valid node address."""
    k = int(rng.integers(0, depth + 1)) if scale is None else scale
    step = 2 << k
    per_axis = 1 << (depth - k)
    c2 = tuple(
        int(rng.integers(0, per_axis)) * step + (1 << k) for _ in range(dim)
    )
    return NodeIndex(k, c2)


def node_bounds2(idx: NodeIndex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lower and upper cube corners in doubled coordinates."""
    half = 1 << idx.scale
    lo = tuple(c - half for c in idx.center2)
    hi = tuple(c + half for c in idx.center2)
    return lo, hi


def parent_of(idx: NodeIndex) -> NodeIndex:
    """The scale k+1 node whose cube contains this node."""
    k, c2 = idx
    mask = ~((1 << (k + 2)) - 1)
    step = 1 << (k + 1)
    return NodeIndex(k + 1, tuple((c & mask) | step for c in c2))


def root_of(tree) -> NodeIndex:
    """The address of the root of an occupancy tree."""
    return NodeIndex(tree.depth, (tree.side,) * tree.dim)


def covers(tracker, idx: NodeIndex) -> bool:
    """Some member of a CellTracker, at idx's scale or finer, has its center
    strictly inside idx's cube: idx is a member or one of its ancestors."""
    lo2, hi2 = node_bounds2(idx)
    return any(
        k <= idx.scale and all(a < c < b for c, a, b in zip(c2, lo2, hi2))
        for k, c2 in tracker.cells()
    )


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


def has_node(tree, idx: NodeIndex) -> bool:
    """True when idx is a node address under internal ancestors only."""
    if not valid_index(idx, tree.dim, tree.depth):
        return False
    return idx.scale == tree.depth or tree.is_internal(parent_of(idx))


def is_leaf(tree, idx: NodeIndex) -> bool:
    """True when the node is stored and carries no children."""
    if not has_node(tree, idx):
        raise KeyError(f"node {idx} is not stored in the tree")
    return not tree.is_internal(idx)


def stored_nodes(tree) -> list[tuple[NodeIndex, float]]:
    """Every stored node with its value, coarse to fine, levels in flat order.

    A walk from the root through is_internal and value, so it reads no
    level of the pyramid.  Flat order puts axis 0 fastest.
    """
    out = []
    stack = [root_of(tree)]
    while stack:
        idx = stack.pop()
        out.append((idx, tree.value(idx)))
        if tree.is_internal(idx):
            stack.extend(children_of(idx))
    out.sort(key=lambda item: (-item[0].scale, item[0].center2[::-1]))
    return out


def same_world(a: GridWorld, b: GridWorld) -> bool:
    """The two grids have the same dim, depth and cells."""
    return (
        a.dim == b.dim and a.depth == b.depth and np.array_equal(a.cells, b.cells)
    )


def state_source(tree=None, obstacles=(), free=()):
    """A per-node state source for refresh, read off a map or key sets.

    With a tree, a node is an obstacle when its value is 1 and splits
    when it is internal.  Without one, a node is an obstacle when its key
    is in obstacles and splits when it is coarse and its key is not in
    free.  The sets are read live, so a caller may grow them between
    refreshes.
    """
    if tree is not None:

        def state(k, c2):
            idx = NodeIndex(k, c2)
            return tree.value(idx) == 1.0, tree.is_internal(idx)

    else:

        def state(k, c2):
            key = (k, c2)
            return key in obstacles, k > 0 and key not in free

    return state


def realize_grid(predicate, dim: int, depth: int) -> GridWorld:
    """Occupancy grid obtained by querying the predicate at every cell center.

    One predicate call per unit cell, which is what building a map from a
    point oracle costs.  Cells are filled in the grid's flat layout (axis 0
    fastest).
    """
    side = 1 << depth
    cells = np.empty(side**dim, dtype=np.uint8)
    for i, cell in enumerate(product(range(side), repeat=dim)):
        point = tuple(c + 0.5 for c in reversed(cell))
        cells[i] = 1 if predicate(point) else 0
    return GridWorld(dim, depth, cells)


def leaf_at_point(rtree: ReducedTree, point) -> RTNode | None:
    """The view leaf whose cube contains the point (half-open), None if removed.

    The leaf is the one containing the unit cell floor(point): on every
    axis the cell's odd doubled center lies on the same side of a coarser
    node's even center as the doubled point does.  A point not strictly
    inside the world box raises ValueError.
    """
    side = 1 << rtree.depth
    for x in point:
        if not 0.0 < x < side:
            raise ValueError(f"point {tuple(point)} not strictly inside")
    return find_containing(rtree.root, tuple(2 * int(x) + 1 for x in point))


def view_snapshot(rtree: ReducedTree) -> dict[tuple, bool]:
    """(scale, center2) -> is_leaf of a view, for structural equality checks.

    Resolves the whole view through collect_leaves.  The internal nodes
    are the leaves' ancestors, so internal nodes with no leaf below them
    are left out, as a rebuild from scratch would have removed them; the
    root is always present.
    """
    out: dict[tuple, bool] = {}
    depth = rtree.depth
    for leaf in collect_leaves(rtree.root, sort=False):
        key = NodeIndex(leaf.scale, leaf.center2)
        out[key] = True
        while key.scale < depth:
            key = parent_of(key)
            if key in out:
                break
            out[key] = False
    out.setdefault((rtree.root.scale, rtree.root.center2), False)
    return out


def all_neighbor_pairs(root, depth: int) -> set[tuple[NodeIndex, NodeIndex]]:
    """The complete neighbor edge set of a view's leaves.

    One find_neighbors call per leaf, so the pass costs O(V log V).  Each
    edge appears once, as the pair in (scale, center2) order.
    """
    edges: set[tuple[NodeIndex, NodeIndex]] = set()
    for node in collect_leaves(root, sort=False):
        me = NodeIndex(node.scale, node.center2)
        for other in find_neighbors(root, node, depth):
            you = NodeIndex(other.scale, other.center2)
            edges.add((me, you) if me <= you else (you, me))
    return edges


def interval_face_test(a, b) -> bool:
    """Neighbor oracle: the two cubes share a (d-1)-dimensional face.

    Per axis the closed intervals must intersect; the intersection must be
    a single point on exactly one axis and have positive length on all
    others.
    """
    touching = 0
    ra, rb = 1 << a.scale, 1 << b.scale
    for ca, cb in zip(a.center2, b.center2):
        lo = max(ca - ra, cb - rb)
        hi = min(ca + ra, cb + rb)
        if hi < lo:
            return False
        if hi == lo:
            touching += 1
    return touching == 1


def pairwise_edges(leaves) -> set[tuple[NodeIndex, NodeIndex]]:
    """Vectorized quadratic neighbor scan over leaf nodes.

    Runs the center-distance conditions on all pairs at once: every axis
    within the scale-sum threshold and exactly one axis attaining it.
    """
    idx = [NodeIndex(n.scale, n.center2) for n in leaves]
    centers = np.array([n.center2 for n in leaves], dtype=np.int64)
    spans = np.array([1 << n.scale for n in leaves], dtype=np.int64)
    diffs = np.abs(centers[:, None, :] - centers[None, :, :])
    thresh = (spans[:, None] + spans[None, :])[:, :, None]
    hit = diffs == thresh
    ok = (diffs <= thresh).all(axis=2) & (hit.sum(axis=2) == 1)
    out: set[tuple[NodeIndex, NodeIndex]] = set()
    for i, j in zip(*np.nonzero(ok)):
        if i < j:
            a, b = idx[i], idx[j]
            out.add((a, b) if a <= b else (b, a))
    return out


def random_rtree(rng, dim: int, depth: int, split_prob: float = 0.5,
                 hole_prob: float = 0.06) -> ReducedTree:
    """Random pruned tree with mixed-scale leaves and removed subtrees."""
    tree = ReducedTree(dim, depth)

    def split(node: RTNode) -> None:
        if node.scale == 0 or rng.random() >= split_prob:
            return
        half = 1 << (node.scale - 1)
        kids = []
        for slot in range(1 << dim):
            q2 = tuple(
                node.center2[j] + (half if (slot >> j) & 1 else -half)
                for j in range(dim)
            )
            if rng.random() < hole_prob:
                kids.append(None)
            else:
                kids.append(RTNode(node.scale - 1, q2))
        if all(k is None for k in kids):
            return
        node.children = kids
        for child in kids:
            if child is not None:
                split(child)

    split(tree.root)
    return tree


def full_rtree(dim: int, depth: int) -> ReducedTree:
    """Reduced tree subdivided to unit cells everywhere."""
    tree = ReducedTree(dim, depth)

    def split(node: RTNode) -> None:
        if node.scale == 0:
            return
        half = 1 << (node.scale - 1)
        node.children = []
        for slot in range(1 << dim):
            q2 = tuple(
                node.center2[j] + (half if (slot >> j) & 1 else -half)
                for j in range(dim)
            )
            child = RTNode(node.scale - 1, q2)
            node.children.append(child)
            split(child)

    split(tree.root)
    return tree


def snake_world(depth: int) -> GridWorld:
    # 2-D maze of one-cell corridors: a wall on every odd row, each open at
    # one end only, alternating sides, so the only route from the (0, 0)
    # corner to the opposite one sweeps every even row; every free block
    # is a unit cell
    side = 1 << depth
    cells = np.zeros(side * side, dtype=np.uint8)
    world = GridWorld(2, depth, cells)
    for y in range(1, side, 2):
        gap = side - 1 if (y // 2) % 2 else 0
        for x in range(side):
            if x != gap:
                cells[world.flat_index((x, y))] = 1
    return GridWorld(2, depth, cells)


def grid_bfs_reachable(world: GridWorld, a, b) -> bool:
    """Set-based breadth-first flood fill over free cells."""
    if world.occupied(a) or world.occupied(b):
        return False
    a, b = tuple(a), tuple(b)
    seen = {a}
    frontier = [a]
    while frontier:
        nxt = []
        for cell in frontier:
            if cell == b:
                return True
            for j in range(world.dim):
                for delta in (1, -1):
                    c = cell[j] + delta
                    if not 0 <= c < world.side:
                        continue
                    nb = cell[:j] + (c,) + cell[j + 1:]
                    if nb in seen or world.occupied(nb):
                        continue
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return b in seen


def flood_labels(world: GridWorld) -> np.ndarray:
    """Component labels cell by cell: a free cell's is the smallest flat
    index in its component, an obstacle's -1.

    Cells are taken in flat order, and each free cell not yet labelled
    floods its component with its own index, which is the component's
    smallest.  The dtype is the library's: int32 while the flat indices
    fit.
    """
    side, n = world.side, world.cells.size
    occupied = world.cells.tolist()
    strides = [side**j for j in range(world.dim)]
    labels = [-1] * n
    for seed in range(n):
        if occupied[seed] or labels[seed] >= 0:
            continue
        labels[seed] = seed
        frontier = [seed]
        while frontier:
            flat = frontier.pop()
            for stride in strides:
                coord = flat // stride % side
                for nb, inside in ((flat - stride, coord > 0), (flat + stride, coord < side - 1)):
                    if inside and not occupied[nb] and labels[nb] < 0:
                        labels[nb] = seed
                        frontier.append(nb)
    return np.array(labels, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)


def dijkstra_vertex_costs(vertices, edges, value_of, weight, start):
    """Eager shortest-path oracle over a fully materialized vertex graph.

    Edge cost is center distance times (1 + weight * value(target)).
    Returns the minimal cost from start to each vertex it reaches.
    """
    adjacency: dict[NodeIndex, list[NodeIndex]] = {v: [] for v in vertices}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)

    def edge_cost(u, v):
        s = sum((ca - cb) ** 2 for ca, cb in zip(u.center2, v.center2))
        return 0.5 * s**0.5 * (1.0 + weight * value_of(v))

    dist = {start: 0.0}
    done = set()
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in adjacency[u]:
            nd = d + edge_cost(u, v)
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def window_far_oracle(idx: NodeIndex, current: NodeIndex, alpha) -> bool:
    """Exact far-window test by squaring twice in rational arithmetic.

    The node is far when den * ||c2 - cur2|| >= num * 2^(k+1) + den * sqrt(d)
    * 2^(k_i), with alpha = num / den.  Both sides are nonnegative, so after
    moving the rational part left the comparison squares exactly.
    """
    frac = Fraction(alpha)
    num, den = frac.numerator, frac.denominator
    s = sum((a - b) ** 2 for a, b in zip(idx.center2, current.center2))
    dim = len(idx.center2)
    a = num << (idx.scale + 1)
    b = den << current.scale
    lhs = den * den * s - a * a - dim * b * b
    if lhs < 0:
        return False
    return lhs * lhs >= 4 * a * a * b * b * dim


def eager_view(tree, current, visited, eps, alpha, obstacles=(), free=()):
    """Reference reduced view: the eager rebuild from the root.

    Applies the decision rule to every node at once, the way refresh worked
    before the view became lazy, and returns (scale, center2) -> is_leaf in
    the format of view_snapshot: internal nodes left with no leaf
    below them are dropped, the root excepted.  The far test is the exact
    rational oracle, not the library's integer thresholds, and a node that
    shares a face with the focus (by the interval oracle) is never far.
    The rule is refresh's, stated per mode: a known obstacle is removed; a
    visited cell is a leaf and any other node holding one splits; else a
    map leaf (or, map-free, a unit cell or a known-free block) is a leaf
    and any other node is a leaf exactly when it is far.  With a map, a
    leaf is removed when its value reaches 1 - eps * 2**(-dim * scale), the
    float rule written out here, not the library's full-node test.
    """
    out: dict[tuple, bool] = {}

    def far(idx: NodeIndex) -> bool:
        # a node beside the focus splits even when it is far
        return window_far_oracle(idx, current, alpha) and not interval_face_test(
            idx, current
        )

    def visit(idx: NodeIndex) -> bool:
        if idx in obstacles:
            return False
        if covers(visited, idx):
            stop = idx in visited.cells()
        elif tree is not None:
            stop = not tree.is_internal(idx) or far(idx)
        else:
            stop = idx.scale == 0 or idx in free or far(idx)
        if stop:
            threshold = 1.0 - ldexp(eps, -dim * idx.scale)
            if tree is not None and tree.value(idx) >= threshold:
                return False
            out[idx] = True
            return True
        kept = [visit(child) for child in children_of(idx)]
        if any(kept):
            out[idx] = False
            return True
        return False

    depth, dim = visited.depth, visited.dim
    root = NodeIndex(depth, (1 << depth,) * dim)
    if not visit(root):
        out[root] = False
    return out


def root_descent_neighbors(root, node, depth: int) -> list:
    """Reference neighbor lookup: one root descent per direction.

    The lookup find_neighbors made before it became a mirror descent.
    Each direction's same-scale candidate center is found from the root
    by comparing centers level by level, deciding stale children through
    the view's settle step: a leaf result is the unique same-or-larger
    neighbor on that side, an internal result fans out into the smaller
    leaves on the shared face, through the library's add_face_leaves.
    Directions go by axis, + before -.
    """
    k = node.scale
    c2 = node.center2
    step = 2 << k
    lo = 1 << k
    hi = (2 << depth) - lo
    dim = len(c2)
    axes = range(dim)
    gen = root.gen
    settle = root.settle
    out: list = []
    for axis in axes:
        pre = c2[:axis]
        post = c2[axis + 1 :]
        base = c2[axis]
        for coord in (base + step, base - step):
            if not lo <= coord <= hi:
                continue
            target2 = pre + (coord,) + post
            found = root
            while True:
                fc2 = found.center2
                if fc2 == target2:
                    break
                kids = found.children
                if kids is None:
                    break
                slot = 0
                for j in axes:
                    if target2[j] >= fc2[j]:
                        slot |= 1 << j
                child = kids[slot]
                if child is not None and child.gen != gen:
                    child = settle(kids, slot)
                found = child
                if found is None:
                    break
            if found is None:
                continue
            if found.children is None:
                out.append(found)
            else:
                add_face_leaves(found, axis, 1 if coord < base else -1, out, settle)
    return out


def l1_distance(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def dict_astar(rtree, start, goal, weight, values, excluded=frozenset(),
               stats=None, learned=None) -> list | None:
    """Reference lazy A*: astar_lazy as it was before it kept its per-run
    vertex state on the view nodes.

    Vertices are keyed by (scale, center2) tuples: g-values, predecessors
    and the closed set are dicts and a set of the run's own, and the
    excluded keys are copied into the closed set up front.  It takes
    astar_lazy's arguments and keeps its contract, with the library's
    find_neighbors as the lookup and the same heuristic, the larger of
    the L1 center distance to the goal and the learned value; stats (a
    SearchStats) and learned are updated the same way.
    """
    if learned is None:
        learned = {}
    root, depth = rtree.root, rtree.depth
    goal_center2 = goal.center2
    start_key = (start.scale, start.center2)
    goal_key = (goal.scale, goal_center2)
    g = {start_key: 0.0}
    parent = {}
    closed = set(excluded)
    closed.discard(start_key)
    expanded = []
    h0 = 0.5 * l1_distance(start.center2, goal_center2)
    heap = [(h0, h0, start_key, start)]
    found = False
    while heap:
        _, _, v, v_node = heapq.heappop(heap)
        if v in closed:
            continue
        if v == goal_key:
            found = True
            break
        closed.add(v)
        expanded.append(v)
        for node in find_neighbors(root, v_node, depth):
            w = (node.scale, node.center2)
            if w in closed:
                continue
            value = values[w]
            if value == inf:
                g[w] = inf
                continue
            tentative = g[v] + 0.5 * math.dist(v[1], w[1]) * (1.0 + weight * value)
            if tentative < g.get(w, inf):
                g[w] = tentative
                parent[w] = v
                hw = max(0.5 * l1_distance(w[1], goal_center2), learned.get(w, 0.0))
                heapq.heappush(heap, (tentative + hw, hw, w, node))
    if stats is not None:
        stats.pops += len(expanded)
        stats.touched += len(g)
    if not found:
        return None
    cost = g[goal_key]
    for v in expanded:
        if cost - g[v] > learned.get(v, 0.0):
            learned[v] = cost - g[v]
    path = [goal_key]
    while path[-1] != start_key:
        path.append(parent[path[-1]])
    return [NodeIndex(k, c2) for k, c2 in reversed(path)]
