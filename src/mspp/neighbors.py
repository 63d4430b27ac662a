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
every descent decides a stale child through settle before reading it
(child_at states the step).  Only the nodes a lookup reaches are decided.

Every descent picks its child slots from the bits of the target center
(_descend), not by comparing centers.  find_neighbors descends once to
the node and resolves each of its 2*dim same-scale candidate positions
by mirror descent from the meet ancestor (Samet's neighbor finding for
quadtrees), so a full adjacency pass costs O(V log V) instead of the
quadratic pairwise scan.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "are_neighbors",
    "find_containing",
    "add_face_leaves",
    "find_neighbors",
    "collect_leaves",
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
    settle (the view root's decision step), given the parent's child list
    and the slot, decides it for the current generation and returns it,
    or writes None into the slot and returns None when the child is
    removed.  The descents inline this step.
    """
    kids = node.children
    child = kids[slot]
    if child is not None and child.gen != node.gen:
        child = settle(kids, slot)
    return child


def _descend(root, target2: Sequence[int], scale: int, nodes: list, slots: list):
    """Descend toward the center target2 of a node at the given scale.

    The slot taken at a node of scale s has bit j set exactly when bit s
    of target2[j] is set: inside the node's cube the doubled coordinate
    lies on the high side of the node's center exactly then.  The descent
    stops at the given scale or at a leaf and returns that node, or None
    where a removed child slot shows the region was dropped.  Each node
    it leaves is appended to nodes and its slot to slots, so both list
    the lineage root first.
    """
    settle = root.settle
    node = root
    add_node = nodes.append
    add_slot = slots.append
    for s in range(root.scale, scale, -1):
        kids = node.children
        if kids is None:
            break
        slot = 0
        bit = 1
        for c in target2:
            if c >> s & 1:
                slot |= bit
            bit <<= 1
        add_node(node)
        add_slot(slot)
        child = kids[slot]
        if child is not None and child.gen != node.gen:
            child = settle(kids, slot)
        if child is None:
            return None
        node = child
    return node


def find_containing(root, target2: Sequence[int]):
    """Deepest node on the path toward a same-or-finer-scale center.

    target2 is the doubled center of a node address: every coordinate an
    odd multiple of 2**t for the same scale t, which the lowest set bit
    of a coordinate gives.  The descent takes at a node of scale s the
    slot whose bit j is bit s of target2[j], and stops at scale t, where
    the node is centered at target2, or at a leaf.  A removed child slot
    on the way means the region was dropped from the tree; None is
    returned.
    """
    c = target2[0]
    return _descend(root, target2, (c & -c).bit_length() - 1, [], [])


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
    """All leaves adjacent to a leaf of the same tree, by mirror descent.

    One descent from the root to the node records its lineage: the
    ancestor at each scale and the slot taken there.  The same-scale
    position across the face in direction (axis, +-1) lies under the
    ancestor at the meet scale S, the highest bit where the two
    coordinates on that axis differ.  Below it the position's path
    mirrors the node's own: the same slots with the axis bit flipped,
    scale S down to the node's.  That mirror descent from the meet
    ancestor ends at a leaf, the unique same-or-larger neighbor on that
    side, or at a same-scale internal node, which fans out into the
    smaller leaves on the shared face; a removed slot means no neighbor.
    Directions go by axis, + before -, and the leaves of a face in
    add_face_leaves order.  depth is the root's scale.

    Raises ValueError when the descent does not end at node itself as a
    leaf: node is not a leaf of this view.
    """
    k = node.scale
    c2 = node.center2
    nodes: list = []
    slots: list = []
    if _descend(root, c2, k, nodes, slots) is not node or node.children is not None:
        raise ValueError(f"{node!r} is not a leaf of this view")
    step = 2 << k
    lo = 1 << k
    hi = (2 << depth) - lo
    last = depth - k
    gen = root.gen
    settle = root.settle
    out: list = []
    flip = 1
    for axis, base in enumerate(c2):
        for coord in (base + step, base - step):
            if not lo <= coord <= hi:
                continue
            # The lineages meet at scale (base ^ coord).bit_length() - 1;
            # nodes[i] and slots[i] belong to scale depth - i.
            i = depth + 1 - (base ^ coord).bit_length()
            parent = nodes[i]
            while True:
                slot = slots[i] ^ flip
                kids = parent.children
                child = kids[slot]
                if child is not None and child.gen != gen:
                    child = settle(kids, slot)
                if child is None:
                    break
                i += 1
                if child.children is None:
                    out.append(child)
                    break
                if i == last:
                    add_face_leaves(child, axis, 1 if coord < base else -1, out, settle)
                    break
                parent = child
        flip <<= 1
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

