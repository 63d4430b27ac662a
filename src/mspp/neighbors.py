"""Neighbor relations between dyadic cells, and fast neighbor lookup.

Two cells are neighbors exactly when their cubes share a full
(dim-1)-dimensional face.  In doubled coordinates that is an integer test:
the Chebyshev distance of the centers equals 2**k_a + 2**k_b and exactly
one axis attains it.

The lookup routines walk a reduced view (mspp.reduced) and need its
root, a ViewRoot: nodes with ``scale``, ``center2``, ``children`` and
``gen`` attributes, children being None for leaves or a list with None
holes for removed subtrees, under a root that also carries the view's
decision step (``settle``).  The view is lazy, so a child may be stale;
every descent reads children through child_at, which has settle decide a
stale child first.  Only the nodes a lookup reaches are decided.
Each of the 2*dim same-scale candidate positions is resolved by a root
descent, so a full adjacency pass costs O(V log V) instead of the
quadratic pairwise scan.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .tree import NodeIndex

__all__ = [
    "are_neighbors",
    "find_containing",
    "add_face_leaves",
    "find_neighbors",
    "all_neighbor_pairs",
    "collect_leaves",
    "AllPairsResult",
]


def are_neighbors(a, b) -> bool:
    """Face-sharing test on node addresses (exact integer arithmetic)."""
    thresh = (1 << a.scale) + (1 << b.scale)
    hits = 0
    for ca, cb in zip(a.center2, b.center2):
        delta = ca - cb
        if delta < 0:
            delta = -delta
        if delta > thresh:
            return False
        if delta == thresh:
            hits += 1
    return hits == 1


def child_at(node, slot: int, settle):
    """The child in a slot of a decided node, itself decided first if stale.

    A child stamped with another generation than its parent is stale:
    settle (the view root's decision step) decides it for the current
    generation and returns it, or writes None into the slot and returns
    None when the child is removed.  find_neighbors inlines this step.
    """
    child = node.children[slot]
    if child is not None and child.gen != node.gen:
        child = settle(node, slot)
    return child


def find_containing(root, target2: Sequence[int]):
    """Deepest node on the path toward a same-or-finer-scale center.

    Descends from the root picking the child containing target2 until the
    current node is centered exactly at target2 or has no children.  A
    removed child slot on the way means the region was dropped from the
    tree; None is returned.
    """
    settle = root.settle
    node = root
    while True:
        c2 = node.center2
        if c2 == target2:
            return node
        if node.children is None:
            return node
        slot = 0
        for j, c in enumerate(c2):
            if target2[j] >= c:
                slot |= 1 << j
        node = child_at(node, slot, settle)
        if node is None:
            return None


def add_face_leaves(node, axis: int, sign: int, out: list, settle) -> None:
    """Append every leaf of the subtree touching the node's given face.

    Only the 2**(dim-1) children on that face are visited at each level.
    settle is the view root's decision step (None for a view that was
    never refreshed, which has nothing stale).
    """
    kids = node.children
    if kids is None:
        out.append(node)
        return
    want = 1 if sign > 0 else 0
    for slot in range(len(kids)):
        if (slot >> axis) & 1 == want:
            child = child_at(node, slot, settle)
            if child is not None:
                add_face_leaves(child, axis, sign, out, settle)


def find_neighbors(root, node, depth: int) -> list:
    """All leaves adjacent to a leaf of the same tree.

    Each direction resolves its candidate center by root descent (the
    find_containing loop, with child_at, inlined here as this is the
    planner's hottest path): a leaf result is the unique same-or-larger
    neighbor on that side, an internal result fans out into the smaller
    leaves on the shared face.
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
                    child = settle(found, slot)
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


def collect_leaves(root, sort: bool = True) -> list:
    """Leaves of the tree, by default in canonical (scale, center2) order.

    Resolves the whole view.
    """
    settle = root.settle
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        kids = node.children
        if kids is None:
            out.append(node)
        else:
            for slot in range(len(kids)):
                child = child_at(node, slot, settle)
                if child is not None:
                    stack.append(child)
    if sort:
        out.sort(key=lambda n: (n.scale, n.center2))
    return out


class AllPairsResult(NamedTuple):
    edges: set[tuple[NodeIndex, NodeIndex]]
    descent_steps: int


def all_neighbor_pairs(root, depth: int) -> AllPairsResult:
    """The complete neighbor edge set of the tree's leaves.

    Leaves are processed smallest scale first and only the same-or-larger
    neighbor in each direction is looked up, so every adjacency is charged
    to its smaller endpoint.  descent_steps witnesses the near-linear cost:
    it is bounded by 2 * dim * (depth + 1) per leaf.
    """
    leaves = collect_leaves(root, sort=True)
    edges: set[tuple[NodeIndex, NodeIndex]] = set()
    steps = 0
    top = 2 << depth
    root_scale = root.scale
    for node in leaves:
        k = node.scale
        c2 = node.center2
        step = 2 << k
        lo = 1 << k
        hi = top - lo
        me = NodeIndex(k, c2)
        for axis in range(len(c2)):
            for coord in (c2[axis] + step, c2[axis] - step):
                if not lo <= coord <= hi:
                    continue
                cand = c2[:axis] + (coord,) + c2[axis + 1 :]
                found = find_containing(root, cand)
                if found is None:
                    steps += root_scale - k
                    continue
                steps += root_scale - found.scale + 1
                if found.children is not None:
                    continue
                other = NodeIndex(found.scale, found.center2)
                edges.add((me, other) if me <= other else (other, me))
    return AllPairsResult(edges, steps)
