"""Face adjacency tests: exact predicate and tree lookups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_neighbor_pairs,
    full_rtree,
    interval_face_test,
    is_leaf,
    pairwise_edges,
    random_index,
    random_rtree,
    random_world,
    root_descent_neighbors,
    state_source,
    stored_nodes,
)
from mspp.neighbors import (
    add_face_leaves,
    are_neighbors,
    collect_leaves,
    find_containing,
    find_neighbors,
)
from mspp.reduced import CellTracker, ReducedTree, RTNode, refresh
from mspp.tree import NodeIndex, build_from_grid


def build_rtree(structure) -> ReducedTree:
    """Build a reduced tree from nested lists; None marks a removed slot.

    A list subdivides the node into 2^d children in canonical slot order,
    'leaf' keeps it a leaf.
    """

    def fill(node: RTNode, spec) -> None:
        if spec == "leaf":
            return
        half = 1 << (node.scale - 1)
        dim = len(node.center2)
        node.children = []
        for slot, sub in enumerate(spec):
            if sub is None:
                node.children.append(None)
                continue
            q2 = tuple(
                node.center2[j] + (half if (slot >> j) & 1 else -half)
                for j in range(dim)
            )
            child = RTNode(node.scale - 1, q2)
            node.children.append(child)
            fill(child, sub)

    depth_guess = structure[0]
    tree = ReducedTree(structure[1], depth_guess)
    fill(tree.root, structure[2])
    return tree


def test_are_neighbors_examples():
    assert are_neighbors(NodeIndex(0, (1, 1)), NodeIndex(0, (3, 1)))
    assert not are_neighbors(NodeIndex(0, (1, 1)), NodeIndex(0, (3, 3)))
    # coarse cell next to a fine cell across one face
    assert are_neighbors(NodeIndex(1, (2, 2)), NodeIndex(0, (5, 1)))
    assert not are_neighbors(NodeIndex(0, (1, 1)), NodeIndex(0, (1, 1)))


def test_are_neighbors_edge_touch_is_not_adjacency():
    # cubes meeting only along an edge or corner share no face
    assert not are_neighbors(NodeIndex(1, (2, 2)), NodeIndex(0, (5, 5)))
    assert not are_neighbors(NodeIndex(0, (1, 1, 1)), NodeIndex(0, (3, 3, 1)))
    assert are_neighbors(NodeIndex(0, (1, 1, 1)), NodeIndex(0, (3, 1, 1)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_are_neighbors_matches_interval_oracle(dim, depth, seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        a = random_index(rng, dim, depth)
        b = random_index(rng, dim, depth)
        expect = interval_face_test(a, b)
        assert are_neighbors(a, b) == expect
        assert are_neighbors(b, a) == expect


def make_mixed_tree():
    # depth-2 square: lower-left quadrant subdivided, the rest are leaves
    spec = (2, 2, [["leaf", "leaf", "leaf", "leaf"], "leaf", "leaf", "leaf"])
    return build_rtree(spec)


def test_find_containing_examples():
    tree = make_mixed_tree()
    root = tree.root
    # exact center of a stored leaf
    found = find_containing(root, (1, 1))
    assert (found.scale, found.center2) == (0, (1, 1))
    # point strictly inside a larger leaf stops at that leaf
    found = find_containing(root, (5, 1))
    assert (found.scale, found.center2) == (1, (6, 2))
    # center of a subdivided node: descent stops at the node whose center
    # matches before committing to a child
    found = find_containing(root, (2, 2))
    assert (found.scale, found.center2) == (1, (2, 2))


def test_find_containing_removed_slot_returns_none():
    spec = (1, 2, ["leaf", None, "leaf", "leaf"])
    tree = build_rtree(spec)
    assert find_containing(tree.root, (3, 1)) is None
    assert find_containing(tree.root, (1, 1)) is not None


def test_add_face_leaves_square():
    tree = make_mixed_tree()
    node = tree.root.children[0]  # subdivided quadrant at (2, 2)
    out = []
    add_face_leaves(node, 0, -1, out, tree.root.settle)
    assert sorted((n.scale, n.center2) for n in out) == [(0, (1, 1)), (0, (1, 3))]
    out = []
    add_face_leaves(node, 1, 1, out, tree.root.settle)
    assert sorted((n.scale, n.center2) for n in out) == [(0, (1, 3)), (0, (3, 3))]


def test_add_face_leaves_line():
    spec = (1, 1, ["leaf", "leaf"])
    tree = build_rtree(spec)
    out = []
    add_face_leaves(tree.root, 0, 1, out, tree.root.settle)
    assert [(n.scale, n.center2) for n in out] == [(0, (3,))]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_add_face_leaves_matches_adjacency_filter(dim, seed):
    rng = np.random.default_rng(seed)
    depth = 3
    tree = random_rtree(rng, dim, depth, split_prob=0.7)
    root = tree.root
    span = 2 << depth
    for axis in range(dim):
        for sign in (1, -1):
            out = []
            add_face_leaves(root, axis, sign, out, root.settle)
            # same-size virtual neighbor across that face
            q2 = list(root.center2)
            q2[axis] += sign * span
            query = NodeIndex(depth, tuple(q2))
            brute = [
                leaf
                for leaf in collect_leaves(root)
                if are_neighbors(NodeIndex(leaf.scale, leaf.center2), query)
            ]
            assert {(n.scale, n.center2) for n in out} == {
                (n.scale, n.center2) for n in brute
            }
            assert len(out) == len(brute)


def test_find_neighbors_uniform_grid_counts():
    tree = full_rtree(2, 2)
    leaves = {n.center2: n for n in collect_leaves(tree.root)}
    interior = find_neighbors(tree.root, leaves[(3, 3)], 2)
    assert len(interior) == 4
    corner = find_neighbors(tree.root, leaves[(1, 1)], 2)
    assert {n.center2 for n in corner} == {(3, 1), (1, 3)}
    edge = find_neighbors(tree.root, leaves[(1, 3)], 2)
    assert len(edge) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_find_neighbors_matches_brute_scan(dim, depth, seed):
    rng = np.random.default_rng(seed)
    tree = random_rtree(rng, dim, depth, split_prob=0.6)
    leaves = collect_leaves(tree.root)
    probe = leaves[int(rng.integers(0, len(leaves)))]
    got = find_neighbors(tree.root, probe, depth)
    brute = [
        leaf
        for leaf in leaves
        if are_neighbors(
            NodeIndex(probe.scale, probe.center2),
            NodeIndex(leaf.scale, leaf.center2),
        )
    ]
    assert {(n.scale, n.center2) for n in got} == {
        (n.scale, n.center2) for n in brute
    }
    assert len(got) == len(brute)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_find_neighbors_matches_root_descent_order(dim, depth, seed):
    # the same node objects in the same order, which decides A* ties
    rng = np.random.default_rng(seed)
    tree = random_rtree(rng, dim, depth, split_prob=0.6, hole_prob=0.15)
    for leaf in collect_leaves(tree.root, sort=False):
        got = find_neighbors(tree.root, leaf, depth)
        want = root_descent_neighbors(tree.root, leaf, depth)
        assert [id(n) for n in got] == [id(n) for n in want]


def view_state(node):
    """Every node reachable without deciding: key, stamp, kind, holes."""
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        kids = node.children
        out.append((node.scale, node.center2, node.gen,
                    None if kids is None else [k is None for k in kids]))
        if kids is not None:
            stack.extend(k for k in kids if k is not None)
    return out


@pytest.mark.parametrize("dim,depth", [(2, 4), (3, 3)])
def test_find_neighbors_decides_what_root_descent_decides(dim, depth):
    # Two views refreshed alike, expanded alike from the focus, one with
    # each lookup: the same neighbors in the same order, and the same
    # nodes decided, also over nodes left stale by earlier generations.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        tree = build_from_grid(random_world(dim, depth, 0.3, seed=seed))
        cells = [idx for idx, v in stored_nodes(tree) if v == 0.0 and is_leaf(tree, idx)]
        path = CellTracker(dim, depth)
        state = state_source(tree)
        views = (ReducedTree(dim, depth), ReducedTree(dim, depth))
        for _ in range(4):
            current = cells[int(rng.integers(len(cells)))]
            if current not in path.cells():
                path.add(current)
            for view in views:
                refresh(view, state, current, path, 1.0)
            mirror, ref = views
            frontier = [(mirror.find_vertex(current), ref.find_vertex(current))]
            seen = {current}
            while frontier and len(seen) < 40:
                a, b = frontier.pop(0)
                got = find_neighbors(mirror.root, a, depth)
                want = root_descent_neighbors(ref.root, b, depth)
                keys = [(n.scale, n.center2) for n in got]
                assert keys == [(n.scale, n.center2) for n in want]
                for key, x, y in zip(keys, got, want):
                    if key not in seen:
                        seen.add(key)
                        frontier.append((x, y))
            assert view_state(mirror.root) == view_state(ref.root)


def test_find_neighbors_refuses_a_node_that_is_not_a_leaf_of_the_view():
    tree = make_mixed_tree()
    root = tree.root
    with pytest.raises(ValueError, match="not a leaf of this view"):
        find_neighbors(root, root, 2)
    with pytest.raises(ValueError, match="not a leaf of this view"):
        find_neighbors(root, root.children[0], 2)
    # a leaf with the same address, but of another tree
    other = make_mixed_tree()
    stranger = other.root.children[0].children[3]
    assert find_containing(root, stranger.center2).center2 == stranger.center2
    with pytest.raises(ValueError, match="not a leaf of this view"):
        find_neighbors(root, stranger, 2)
    # a node under a removed slot
    holed = build_rtree((1, 2, ["leaf", None, "leaf", "leaf"]))
    with pytest.raises(ValueError, match="not a leaf of this view"):
        find_neighbors(holed.root, RTNode(0, (3, 1)), 1)


def test_collect_leaves_sorted_canonical():
    tree = make_mixed_tree()
    leaves = collect_leaves(tree.root)
    keyed = [(n.scale, n.center2) for n in leaves]
    assert keyed == sorted(keyed)
    assert len(leaves) == 7


def test_all_pairs_single_leaf():
    tree = ReducedTree(2, 3)
    assert all_neighbor_pairs(tree.root, 3) == set()


def test_all_pairs_uniform_grid_edge_count():
    for depth in (1, 2, 3):
        side = 1 << depth
        tree = full_rtree(2, depth)
        assert len(all_neighbor_pairs(tree.root, depth)) == 2 * side * (side - 1)


def test_all_pairs_edges_are_canonical():
    rng = np.random.default_rng(17)
    tree = random_rtree(rng, 2, 4, split_prob=0.6)
    for a, b in all_neighbor_pairs(tree.root, 4):
        assert a <= b
        assert are_neighbors(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_all_pairs_matches_quadratic_scan(dim, depth, seed):
    rng = np.random.default_rng(seed)
    prob = {2: 0.6, 3: 0.4, 4: 0.25}[dim]
    tree = random_rtree(rng, dim, depth, split_prob=prob)
    leaves = collect_leaves(tree.root)
    assert all_neighbor_pairs(tree.root, depth) == pairwise_edges(leaves)
