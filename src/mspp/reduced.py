"""Reduced trees: the coarsened planning view around a focus cell.

Each planning iteration works on a view: a mutable tree whose leaves are
the graph vertices.  Far from the focus cell the view stops at coarse
nodes, close to it (and around every cell the walk has visited) it
refines to the finest stored resolution.  A node stops subdividing when

    ||center - focus_center||_2  >=  alpha * 2**scale + circumradius(focus)

which is evaluated exactly: alpha is a dyadic float, so both sides can be
squared into integer comparisons on doubled coordinates; the lone square
root of dim is eliminated by squaring twice with sign checks, folded into a
per-scale integer threshold.  The thresholds depend only on the dimension,
depth, alpha and focus scale, so they are computed once per process for
each such tuple (window_thresholds) and shared, read-only, by every view.

One rule decides every node in both modes (stated in refresh): obstacles
first, then the nodes holding a visited cell, then whether the node can
split and the far window.  Both per-node facts come from one state
source that the caller builds per mode.  A map node is an obstacle when
it is full and can split when it is internal.  Map-free, a node small
enough to enumerate is read the same way from its enumeration, and a
larger node is an obstacle when flagged and can split otherwise.  A node
that shares a face with the focus splits even when it is far, so every
view leaf beside the focus is fine (a map leaf, a unit cell or a block
proven free) at any alpha.  Only at the scales where an adjacent node
can be far (small alpha) does a far node need that face test, and only
there does it run.  Obstacles are removed entirely: a removed child
leaves a None hole in its parent's child list.  Visited cells stay in
the view as leaves; keeping the walk out of them is the search's job.

The view is lazy.  refresh() does O(1) work: it captures its inputs,
starts a new generation and decides the root.  Every node carries the
generation it was decided in (its stamp); a node with an older stamp is
stale, and a descent that reaches a stale child decides that one child
then, in one decision step (the view root's settle, which applies the
rule itself and reads the state source once), by the same rule an eager
rebuild would apply: removed (None is written into the parent's slot), a
leaf (its children are dropped) or internal (it keeps its child list, or
gets one of stale children).  Every lookup reads children through that
one step (neighbors.child_at), so after any sequence of refreshes the
resolved view equals a view rebuilt from scratch with the same inputs.
Two facts make that exact:

* A None hole is never stale.  Every removal is permanent: once the
  state source reports a node an obstacle, it always does, and every
  node below a full node is full too, so at any focus it is removed
  or keeps no leaf below it.
* A node that descends but loses every child stays in the view as an
  internal node with None slots.  Every lookup answers for it as if it
  were gone, as if a rebuild had dropped it; it is decided again in the
  next generation like any other node.

The visited cells of a generation are frozen until the next refresh:
deciding a node after the CellTracker has changed raises.  The state
source is read live.  What it reports for a node changes only when a
search learns a fact about it, and a search learns facts only about view
leaves it reached, which the current generation has already decided and
never decides again.  Each node's decision reads only its own facts, so
what a search learns shows in the view from the next refresh on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Callable

from .neighbors import are_neighbors, find_containing
from .tree import NodeIndex

__all__ = [
    "RTNode",
    "ReducedTree",
    "CellTracker",
    "ViewRoot",
    "refresh",
    "window_thresholds",
]


class RTNode:
    """One node of a reduced tree.

    children is None for a leaf (a graph vertex) or a list of length
    2**dim whose entries may be None where a subtree was removed.  gen is
    the generation the node was decided in; until a descent decides it
    again, a node stamped with an older generation than its parent's is
    stale and its children field is not to be read.  key is the node's
    (scale, center2) tuple, built once.

    The other fields belong to the search (astar_lazy): g is the node's
    g-value in the latest run that reached it, and reached and closed are
    that run's stamp once the run has reached, and closed, the node.  A
    field carrying another run's stamp says nothing about the current run.
    """

    __slots__ = ("scale", "center2", "children", "gen", "key", "g", "reached", "closed")

    def __init__(self, scale: int, center2: tuple[int, ...], children=None):
        self.scale = scale
        self.center2 = center2
        self.children = children
        self.gen = 0
        self.key = (scale, center2)
        self.g = 0.0
        self.reached = None
        self.closed = None

    def __repr__(self) -> str:
        kind = "leaf" if self.children is None else "internal"
        return f"RTNode({self.scale}, {self.center2}, {kind})"


class ViewRoot(RTNode):
    """Root of a reduced view; it also carries the view's decision step.

    settle(children, slot) decides the stale child in that slot of a
    decided node's child list for the current generation and returns it,
    or writes None into the slot and returns None when the child is
    removed.  A view that was never refreshed has nothing stale and no
    decision step.
    """

    __slots__ = ("settle",)

    def __init__(self, scale: int, center2: tuple[int, ...]):
        super().__init__(scale, center2)
        self.settle = None


class CellTracker:
    """Set of cells that refresh tests against tree nodes in O(1).

    The tracker keeps the set of its member cells' (scale, center2) keys,
    and a set of ancestor keys closed upward: every member's own key and
    the keys of its ancestors up to the root.  A node then holds some
    member's center strictly inside its cube exactly when its key is in
    that set.  As the set is closed upward, add stops at the first
    ancestor key already in it, so adding a cell beside earlier ones costs
    a key or two instead of the whole lineage.  Adding a member again
    changes neither set.  discard rebuilds the ancestor set from the
    remaining members, at O(members * depth).  version counts the calls
    of add and discard, so a view can tell that its inputs moved on.
    """

    __slots__ = ("dim", "depth", "version", "_anc", "_members")

    def __init__(self, dim: int, depth: int):
        self.dim = dim
        self.depth = depth
        self.version = 0
        self._anc: set[tuple] = set()
        self._members: set[tuple] = set()

    def _close(self, scale: int, c2: tuple[int, ...]) -> None:
        """Put the keys of a cell and of its ancestors into the ancestor
        set, up to the first key already there."""
        anc = self._anc
        for k in range(scale, self.depth + 1):
            # The scale-k ancestor, in closed form.
            up = k + 1
            step = 1 << k
            key = (k, tuple([((c >> up) << up) | step for c in c2]))
            if key in anc:
                return
            anc.add(key)

    def add(self, idx: NodeIndex) -> None:
        self.version += 1
        scale, c2 = idx
        self._members.add((scale, c2))
        self._close(scale, c2)

    def discard(self, idx: NodeIndex) -> None:
        """Remove the cell, if it is a member.

        The ancestor set is rebuilt from the remaining members, at
        O(members * depth) per call where add costs O(depth) at most: the
        closed set does not tell which keys another member still reaches.
        The planner never discards; a caller that discards once per step
        of a long walk pays a cost quadratic in the walk.
        """
        self.version += 1
        self._members.discard(idx)
        self._anc.clear()
        for member in self._members:
            self._close(*member)

    def cells(self):
        """The member cells, as (scale, center2) keys: the tracker's own
        set, which callers only read."""
        return self._members


class ReducedTree:
    """Root container for the coarsened planning view.

    The root's stamp, root.gen, is the view's generation: it counts the
    refreshes, and nodes decided since the last one carry it.  The
    lookups resolve the nodes they reach and nothing else.
    """

    __slots__ = ("dim", "depth", "root")

    def __init__(self, dim: int, depth: int):
        self.dim = dim
        self.depth = depth
        self.root = ViewRoot(depth, (1 << depth,) * dim)

    def find_vertex(self, idx: NodeIndex) -> RTNode | None:
        """The leaf with exactly this address, if present."""
        node = find_containing(self.root, idx.center2)
        if (
            node is None
            or node.children is not None
            or node.center2 != idx.center2
            or node.scale != idx.scale
        ):
            return None
        return node


@lru_cache(maxsize=1024)
def window_thresholds(
    dim: int, depth: int, alpha: float, focus_scale: int
) -> tuple[tuple[int, ...], int, tuple[bool, ...]]:
    """Integer far-window thresholds per scale.

    Returns (thresholds, den_sq, beside): a node at scale k with squared
    doubled center distance S to the focus is far exactly when
    S * den_sq >= thresholds[k].  beside[k] is False when no scale-k node
    that shares a face with the focus is far.  Such a node is 2**k + 2**f
    away on one axis (f the focus scale) and, as dyadic cubes nest, at
    most |2**k - 2**f| on every other, so S is at most the sum of those
    squares.

    The result depends on the arguments alone, so a process-wide cache
    (of the last 1024 argument tuples) computes it once and shares it with
    every view; its tuples cannot be changed.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    frac = Fraction(alpha)
    num, den = frac.numerator, frac.denominator
    den_sq = den * den
    out, beside = [], []
    b = den << focus_scale
    f = 1 << focus_scale
    for k in range(depth + 1):
        a = num << (k + 1)
        base = a * a + dim * b * b
        rad = 4 * a * a * b * b * dim
        root = isqrt(rad)
        out.append(base + root + (0 if root * root == rad else 1))
        near = ((1 << k) + f) ** 2 + (dim - 1) * ((1 << k) - f) ** 2
        beside.append(near * den_sq >= out[-1])
    return tuple(out), den_sq, tuple(beside)


def refresh(
    rtree: ReducedTree,
    state: Callable[[int, tuple[int, ...]], tuple[bool, bool]],
    current: NodeIndex,
    visited: CellTracker,
    alpha: float,
) -> None:
    """Start a new generation of the view around the current cell.

    Only the root is decided here; every other node is decided when a
    lookup first reaches it (see the module docstring).  Each decision is
    one call of the step this installs as rtree.root.settle, plus one
    state call; the window thresholds come from the process-wide
    window_thresholds, and the visited test reads the tracker's ancestor
    set directly.

    state(scale, center2) returns a node's (obstacle, splits) pair: with
    the exact map (OccupancyTree.state), whether every cell of the node
    is occupied and whether it is internal.  Map-free, a node of at most
    `samples` cells answers the same from its enumeration, and a larger
    one is an obstacle when flagged and splits otherwise.  visited
    holds the cells the walk has entered: its trail and the cells it
    backed out of.  One rule decides every node in both modes:

    1. An obstacle is removed, before a visited cell nearby could split it
       back into the view.
    2. A visited cell is a leaf, and any other node that holds one inside
       its cube splits, so visited cells keep their surroundings fine.
    3. A node that cannot split is a leaf; one that can is a leaf when it
       is far from the focus and does not share a face with it, and
       splits otherwise.  Below alpha of about sqrt(dim) / 2 a node
       beside the focus can be far; it splits all the same, so every view
       leaf beside the focus is one the walk may step onto.

    visited must stay as it is until the next refresh: a lookup that
    decides a node after it changed raises RuntimeError.  state is read
    live.  Between refreshes it may learn facts only about nodes the
    current generation has already decided, and each decision reads only
    its own node's facts, so no later decision of the generation sees
    them: the resolved view still equals the eager rebuild from what
    state knew at refresh.  Once state reports a node an obstacle, it
    must always do so, as a removed node is never decided again.
    """
    dim, depth = rtree.dim, rtree.depth
    if current.scale > depth or len(current.center2) != dim:
        raise ValueError("current cell does not belong to this world")
    top = 2 << depth
    for c in current.center2:
        if not 0 < c < top:
            raise ValueError("current cell is outside the world box")

    thresholds, den_sq, beside = window_thresholds(dim, depth, alpha, current.scale)
    cur2 = current.center2
    visited_anc = visited._anc
    visited_members = visited._members
    visited_version = visited.version
    root = rtree.root
    gen = root.gen + 1

    def settle(kids: list, slot: int) -> RTNode | None:
        """Decide the node in a slot of a child list for this generation;
        write None into the slot and return None when it is removed."""
        if visited.version != visited_version:
            raise RuntimeError("visited cells changed since the last refresh")
        node = kids[slot]
        k = node.scale
        c2 = node.center2
        obstacle, splits = state(k, c2)
        if obstacle:
            kids[slot] = None
            return None
        key = node.key
        if key in visited_anc:
            stop = key in visited_members
        elif splits:
            # The far-window test; a node beside the focus splits even when
            # it is far, which only scales flagged in beside allow.
            s = 0
            for a, b in zip(c2, cur2):
                d = a - b
                s += d * d
            stop = s * den_sq >= thresholds[k] and not (
                beside[k] and are_neighbors(node, current)
            )
        else:
            stop = True
        if stop:
            node.children = None
        elif node.children is None:
            # Slot bit j picks the high half on axis j; product varies its
            # last factor fastest, so it is fed the axes in reverse.
            half = 1 << (k - 1)
            sides = [(c - half, c + half) for c in reversed(c2)]
            node.children = [RTNode(k - 1, q[::-1]) for q in product(*sides)]
        node.gen = gen
        return node

    root.settle = settle
    if settle([root], 0) is None:
        # Nothing survived: keep the root but with no leaves below it.
        root.children = [None] * (1 << dim)
        root.gen = gen
