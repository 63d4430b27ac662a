"""Monte Carlo occupancy estimates, thresholds, and failure bounds."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import children_of
import mspp.sampling as msampling
from mspp.environments import grid_predicate
from mspp.predicates import Checkerboard, Slab, SphereSet
from mspp.sampling import (
    BoundParams,
    ValueEstimator,
    _layout,
    band_node_count,
    exact_scale_cutoff,
    failure_bound,
    is_flagged_obstacle,
)
from mspp.tree import GridWorld, NodeIndex, build_from_grid


def test_flag_threshold_examples():
    # occupied unit cell, generous eps: 1 >= 1 - 0.9 + 0.01
    assert is_flagged_obstacle(1.0, 0, 2, 0.9, 0.01)
    # the same threshold arithmetic at a coarser scale
    assert is_flagged_obstacle(0.95, 1, 2, 0.9, 0.0)  # 0.95 >= 1 - 0.9/4
    assert not is_flagged_obstacle(0.75, 1, 2, 0.9, 0.0)
    # d=1, k=2, eps=0.8, gamma=0.1: threshold is 1 - 0.2 + 0.1 = 0.9
    assert is_flagged_obstacle(0.9, 2, 1, 0.8, 0.1)
    assert not is_flagged_obstacle(0.89, 2, 1, 0.8, 0.1)


def test_flag_threshold_never_fires_past_cutoff():
    # past the cutoff scale the threshold exceeds 1 and nothing is flagged;
    # the cutoff is the smallest k with gamma * 2**(dim*k) >= eps
    dim, eps, gamma = 1, 0.9, 0.0035
    k_max = 9
    assert Fraction(gamma) * 2 ** (k_max - 1) < Fraction(eps) <= Fraction(gamma) * 2**k_max
    for value in (0.5, 0.99, 1.0):
        assert not is_flagged_obstacle(value, k_max, dim, eps, gamma)
        assert not is_flagged_obstacle(value, k_max + 2, dim, eps, gamma)
    # just below the cutoff a saturated estimate is still flaggable
    assert is_flagged_obstacle(1.0, k_max - 1, dim, eps, gamma)


def test_exact_scale_cutoff_values():
    assert exact_scale_cutoff(1, 16) == 4
    assert exact_scale_cutoff(1, 255) == 7
    assert exact_scale_cutoff(1, 256) == 8
    assert exact_scale_cutoff(3, 100) == 2
    assert exact_scale_cutoff(2, 256) == 4
    with pytest.raises(ValueError):
        exact_scale_cutoff(1, 0)
    # every node of a world below one dimension is a single cell
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim and samples must be >= 1"):
            exact_scale_cutoff(dim, 256)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 10**6))
def test_exact_scale_cutoff_is_tight(dim, samples):
    k = exact_scale_cutoff(dim, samples)
    assert k >= 0
    assert (1 << (dim * k)) <= samples or k == 0
    assert (1 << (dim * (k + 1))) > samples


def band_sum(depth: int, dim: int, low: int, high: int) -> int:
    """Direct summation oracle for the node count in a scale band.

    One term 2^(dim * (depth - k)) per scale strictly inside (low, high)
    that holds nodes; scales above the tree depth hold none.
    """
    total = 0
    for k in range(low + 1, high):
        if k <= depth:
            total += 2 ** (dim * (depth - k))
    return total


def test_band_node_count_examples():
    assert band_node_count(5, 1, 8, 9) == 0.0  # empty band
    assert band_node_count(5, 1, 9, 9) == 0.0
    # only scale 5, the root, lies in the tree: no node above depth counts
    assert band_node_count(5, 1, 4, 9) == 1.0
    assert band_node_count(5, 1, 6, 9) == 0.0


def test_band_node_count_matches_direct_sum():
    for depth in range(0, 7):
        for dim in range(1, 4):
            for low in range(0, 9):
                for high in range(0, 10):
                    got = band_node_count(depth, dim, low, high)
                    assert got == float(band_sum(depth, dim, low, high))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_band_node_count_matches_the_sum_at_the_float_edge(data):
    # the band's top, dim * (depth - low) bits, within a few scales of
    # 1024 + dim, where its largest term alone leaves the float range
    draw = data.draw
    dim = draw(st.integers(1, 7))
    low = draw(st.integers(0, 3))
    depth = low + draw(st.integers(1024 // dim - 2, 1024 // dim + 4))
    high = draw(st.integers(low + 2, depth + 2))
    try:
        want = float(band_sum(depth, dim, low, high))
    except OverflowError:
        want = math.inf
    assert band_node_count(depth, dim, low, high) == want


def test_band_node_count_past_float_range_is_inf():
    # 2**1200 / 3 nodes at scale 1 alone: no float holds the count
    assert band_node_count(600, 2, 0, 5) == math.inf
    # a billion-bit count is not built to find that out
    assert band_node_count(10**7, 100, 0, 10**7 + 1) == math.inf
    params = BoundParams(depth=600, dim=2, eps=0.5, gamma=0.001, samples=1)
    assert failure_bound(params) == 1.0


def test_failure_bound_reference_curve():
    # the band runs from the enumeration cutoff floor(log2 n) to the flag
    # cutoff 9; at depth 5 only the root can lie in it, at depth 8 scales
    # up to 8 can
    params = dict(dim=1, eps=0.9, gamma=0.0035, regions=2)
    expect = {
        5: {16: 0.960798, 32: 0.0, 64: 0.0, 128: 0.0, 255: 0.0, 256: 0.0},
        8: {16: 1.0, 32: 1.0, 64: 0.999876, 128: 0.891219, 255: 0.848392, 256: 0.0},
    }
    for depth, curve in expect.items():
        for n, target in curve.items():
            got = failure_bound(BoundParams(depth=depth, samples=n, **params))
            assert got == pytest.approx(target, abs=1e-6), (depth, n, got)


def test_failure_bound_edges_and_monotone_plateau():
    params = dict(depth=5, dim=1, eps=0.9, gamma=0.0035, regions=2)
    # tiny sample counts leave the whole band uncertain; the head of the
    # reference curve sits at 1 to plotting precision
    for n in range(1, 16):
        got = failure_bound(BoundParams(samples=n, **params))
        assert got <= 1.0
        assert got == pytest.approx(1.0, abs=1e-4)
    # past the exhaustive-enumeration point the bound collapses to zero
    for n in (256, 257, 300, 1024):
        assert failure_bound(BoundParams(samples=n, **params)) == 0.0
    # within one plateau of the floor(log2 n) staircase the bound cannot rise
    prev = None
    for n in range(64, 128):
        got = failure_bound(BoundParams(samples=n, **params))
        if prev is not None:
            assert got <= prev + 1e-15
        prev = got
    # single-region variant reproduces the direct formula; the band ends
    # below scale 9, the first whose threshold exceeds 1
    n = 64
    miss = -math.expm1(-2 * 0.0035**2 * n)
    count = band_node_count(5, 1, exact_scale_cutoff(1, n), 9)
    direct = 1.0 - miss ** count
    got = failure_bound(BoundParams(depth=5, dim=1, eps=0.9, gamma=0.0035, samples=n))
    assert got == pytest.approx(direct, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 4),
    st.floats(0.05, 0.95),
    st.floats(0.001, 0.2),
    st.integers(1, 4096),
    st.integers(1, 8),
)
def test_failure_bound_stays_in_unit_interval(depth, dim, eps, gamma, n, z):
    got = failure_bound(
        BoundParams(depth=depth, dim=dim, eps=eps, gamma=gamma, samples=n, regions=z)
    )
    assert 0.0 <= got <= 1.0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 10),
    st.floats(0.1, 0.9),
    st.floats(1e-4, 0.3),
    st.integers(1, 4096),
)
# gamma * 2**4 == eps: scale 4 has threshold exactly 1; one ulp above
# that gamma the threshold still rounds to 1
@example(1, 5, 0.8, 0.05, 8)
@example(1, 5, 0.8, math.nextafter(0.05, 1.0), 8)
def test_failure_bound_is_zero_or_near_vacuous(dim, depth, eps, gamma, n):
    # a band scale k has 2**(dim * k) > n cells and gamma * 2**(dim * k) <=
    # eps, so its node's term exp(-2 gamma**2 n) exceeds exp(-2 eps**2 / n)
    params = BoundParams(depth=depth, dim=dim, eps=eps, gamma=gamma, samples=n)
    low = exact_scale_cutoff(dim, n)
    got = failure_bound(params)
    # a band scale is sampled and can flag an estimate of 1, which a scale
    # whose threshold is exactly 1 does on a tie
    if any(is_flagged_obstacle(1.0, k, dim, eps, gamma) for k in range(low + 1, depth + 1)):
        assert got > math.exp(-2.0 * eps * eps / n)
    else:
        assert got == 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 12),
    st.floats(0.01, 0.99),
    st.floats(1e-7, 0.5),
    st.integers(1, 4096),
    st.integers(1, 4),
    st.none() | st.tuples(st.integers(0, 14), st.integers(-3, 3)),
)
# gamma * 2**(dim*k) == eps exactly (threshold 1 at scale k), and gammas a
# few ulps off it, where the float threshold may still round to 1
@example(1, 5, 0.8, 0.05, 8, 1, (4, 0))
@example(1, 5, 0.8, 0.05, 8, 1, (4, 1))
@example(1, 5, 0.8, 0.05, 8, 1, (4, -1))
@example(2, 6, 0.3, 0.05, 16, 2, (3, 0))
@example(2, 6, 0.3, 0.05, 16, 2, (3, 3))
@example(3, 5, 0.7, 0.05, 8, 1, (2, -3))
def test_failure_bound_sums_the_flaggable_sampled_scales(dim, depth, eps, gamma, n, z, tie):
    # the band is every sampled scale of the tree at which classify flags
    # an estimate of 1, counted one term per node
    if tie is not None:
        k, ulps = tie
        gamma = math.ldexp(eps, -dim * k)
        for _ in range(abs(ulps)):
            gamma = math.nextafter(gamma, math.inf if ulps > 0 else 0.0)
    params = BoundParams(depth=depth, dim=dim, eps=eps, gamma=gamma, samples=n, regions=z)
    low = exact_scale_cutoff(dim, n)
    band = [k for k in range(low + 1, depth + 1) if is_flagged_obstacle(1.0, k, dim, eps, gamma)]
    count = sum(2 ** (dim * (depth - k)) for k in band)
    got = failure_bound(params)
    if count == 0:
        assert got == 0.0
    else:
        miss = -math.expm1(-2 * gamma * gamma * n)
        direct = (1 - miss ** (count / z)) ** z
        assert got == pytest.approx(min(1.0, direct), rel=1e-12)


def walked_failure_bound(params: BoundParams) -> float:
    """failure_bound with its band end found by walking every scale up to
    the depth, whatever the threshold reads."""
    dim, eps, gamma = params.dim, params.eps, params.gamma
    low = exact_scale_cutoff(dim, params.samples)
    high = low + 1
    while high <= params.depth and is_flagged_obstacle(1.0, high, dim, eps, gamma):
        high += 1
    count = band_node_count(params.depth, dim, low, high)
    if count == 0.0:
        return 0.0
    keep = (-math.expm1(-2.0 * gamma * gamma * params.samples)) ** (count / params.regions)
    return min(1.0, max(0.0, (1.0 - keep) ** params.regions))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 400),
    st.floats(0.01, 0.99),
    st.floats(1e-7, 0.5) | st.sampled_from([2.0**-53, 2.0**-60, 1e-300, 5e-324]),
    st.integers(1, 4096),
    st.integers(1, 4),
    st.none() | st.tuples(st.integers(0, 14), st.integers(-3, 3)),
)
# the ties of the test above, at depths short and long
@example(1, 5, 0.8, 0.05, 8, 1, (4, 0))
@example(1, 5, 0.8, 0.05, 8, 1, (4, 1))
@example(1, 5, 0.8, 0.05, 8, 1, (4, -1))
@example(2, 6, 0.3, 0.05, 16, 2, (3, 0))
@example(2, 6, 0.3, 0.05, 16, 2, (3, 3))
@example(3, 5, 0.7, 0.05, 8, 1, (2, -3))
@example(1, 300, 0.8, 0.05, 8, 1, (4, 0))
# gamma at most 2**-53 rounds 1 + gamma to 1: the band runs to the depth
@example(1, 400, 0.5, 2.0**-53, 1, 1, None)
@example(1, 400, 0.5, 1e-300, 1, 1, None)
@example(3, 40, 0.9, 2.0**-53, 64, 3, None)
@example(1, 60, 0.5, math.nextafter(2.0**-53, 1.0), 1, 1, None)
# 2**60 samples enumerate up to scale 60, so the band is the root alone
@example(1, 61, 0.5, 2.0**-53, 2**60, 1, None)
def test_failure_bound_equals_the_walked_band(dim, depth, eps, gamma, n, z, tie):
    # Past the scale where the threshold reads 1.0 the band end is read,
    # not walked; the bound is the walked one bit for bit.
    if tie is not None:
        k, ulps = tie
        gamma = math.ldexp(eps, -dim * k)
        for _ in range(abs(ulps)):
            gamma = math.nextafter(gamma, math.inf if ulps > 0 else 0.0)
    params = BoundParams(depth=depth, dim=dim, eps=eps, gamma=gamma, samples=n, regions=z)
    assert failure_bound(params) == walked_failure_bound(params)


def test_failure_bound_past_the_float_range_does_not_walk(monkeypatch):
    # With gamma below 2**-53 every scale of a 10**7-deep tree is in the
    # band; the flag test runs only until the threshold reads 1.0.
    calls = []
    flagged = msampling.is_flagged_obstacle

    def counting(*args):
        calls.append(args)
        return flagged(*args)

    monkeypatch.setattr(msampling, "is_flagged_obstacle", counting)
    params = BoundParams(depth=10**7, dim=1, eps=0.5, gamma=1e-300, samples=1)
    assert failure_bound(params) == 1.0
    assert 0 < len(calls) <= 54


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4096),
    st.sampled_from([0.3, 0.7, 0.95]),
    st.floats(1e-6, 1 - 1e-6),
    st.integers(0, 2**32 - 1),
)
def test_enumerated_nodes_are_flagged_exactly_when_full(
    dim, samples, density, eps, seed
):
    # every node map-free mode enumerates is flagged exactly when each of
    # its cells is occupied, whatever eps and gamma
    depth = 3 if dim < 3 else 2
    rng = np.random.default_rng(seed)
    size = 1 << (dim * depth)
    world = GridWorld(dim, depth, (rng.random(size) < density).astype(np.uint8))
    estimator = ValueEstimator(grid_predicate(world), dim, depth, samples, seed=0)
    for k in range(estimator.exact_cutoff + 1):
        axis = range(1 << k, 2 << depth, 2 << k)
        for c2 in itertools.product(axis, repeat=dim):
            idx = NodeIndex(k, c2)
            flagged, est = estimator.classify(idx, eps, 0.1)
            assert est.n == 1 << dim * k
            assert est is estimator.exact(idx) is estimator.estimate(idx)
            assert flagged == (est.hits == est.n)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(depth=5, dim=1, eps=0.0, gamma=0.1, samples=16)
    with pytest.raises(ValueError):
        BoundParams(depth=5, dim=1, eps=0.9, gamma=0.0, samples=16)
    with pytest.raises(ValueError):
        BoundParams(depth=5, dim=1, eps=0.9, gamma=math.inf, samples=16)
    with pytest.raises(ValueError):
        BoundParams(depth=5, dim=0, eps=0.9, gamma=0.1, samples=16)
    with pytest.raises(ValueError):
        BoundParams(depth=5, dim=1, eps=0.9, gamma=0.1, samples=16, regions=0)
    # a sample count must be an integer (one operator.index accepts) >= 1;
    # the estimator refuses it up front, not at its first sampled node
    for samples in (0, 2.5, "16"):
        with pytest.raises(ValueError, match="samples must be"):
            BoundParams(depth=5, dim=1, eps=0.9, gamma=0.1, samples=samples)
        with pytest.raises(ValueError, match="samples must be"):
            ValueEstimator(lambda p: False, 1, 5, samples, seed=0)
    est = ValueEstimator(lambda p: False, 1, 5, np.int64(16), seed=0)
    assert type(est.samples) is int and est.estimate(NodeIndex(5, (32,))).n == 16


def make_grid_estimator(world, samples, seed, cell_picks=False):
    return ValueEstimator(
        grid_predicate(world),
        world.dim,
        world.depth,
        samples,
        seed,
        cell_picks=cell_picks,
    )


def test_estimate_degenerate_worlds():
    # 32 samples enumerate nodes of up to 16 cells, so the root is sampled
    free = GridWorld(2, 3, np.zeros(64, dtype=np.uint8))
    est = make_grid_estimator(free, 32, seed=1)
    root = NodeIndex(3, (8, 8))
    assert est.estimate(root).value == 0.0
    full = GridWorld(2, 3, np.ones(64, dtype=np.uint8))
    est = make_grid_estimator(full, 32, seed=1)
    assert est.estimate(root).value == 1.0


def test_estimate_mean_concentrates():
    # quarter-occupied world: over many seeds the estimate mean lands within
    # 0.01 of 0.25 and large one-sided errors essentially never happen; the
    # root holds more cells than the samples, so it is sampled
    cells = np.zeros(16384, dtype=np.uint8)
    rng = np.random.default_rng(0)
    picks = rng.choice(16384, size=4096, replace=False)
    cells[picks] = 1
    world = GridWorld(2, 7, cells)
    root = NodeIndex(7, (128, 128))
    n = 10_000
    values = []
    for seed in range(1000):
        est = make_grid_estimator(world, n, seed=seed)
        values.append(est.estimate(root).value)
    values = np.asarray(values)
    assert abs(values.mean() - 0.25) < 0.01
    # three standard errors of the seed average
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(values.mean() - 0.25) < 3 * sigma / math.sqrt(len(values)) + 1e-9
    assert (values - 0.25 >= 0.05).mean() <= math.exp(-2 * 0.05**2 * n) + 1e-12


def test_estimates_are_cached_and_deterministic():
    # 64 samples enumerate nodes of up to scale 3; these are all sampled
    world = GridWorld(2, 6, (np.random.default_rng(3).random(4096) < 0.4).astype(np.uint8))
    a = make_grid_estimator(world, 64, seed=9)
    b = make_grid_estimator(world, 64, seed=9)
    c = make_grid_estimator(world, 64, seed=10)
    nodes = [
        NodeIndex(6, (64, 64)),
        NodeIndex(5, (32, 32)),
        NodeIndex(5, (96, 32)),
        NodeIndex(4, (16, 48)),
    ]
    for idx in nodes:
        first = a.estimate(idx)
        assert a.estimate(idx) is first  # cached object
        assert b.estimate(idx).hits == first.hits  # same seed, same stream
    # query order must not change per-node results
    for idx in reversed(nodes):
        assert c.estimate(idx).n == 64
    d = make_grid_estimator(world, 64, seed=10)
    for idx in nodes:
        assert d.estimate(idx).hits == c.estimate(idx).hits
    # different seeds give a different draw somewhere
    assert any(
        a.estimate(i).hits != c.estimate(i).hits for i in nodes
    )


def test_exact_enumeration_and_known_free():
    cells = np.zeros(16, dtype=np.uint8)
    world = GridWorld(2, 2, cells)
    cells[world.flat_index((0, 0))] = 1
    world = GridWorld(2, 2, cells)
    est = make_grid_estimator(world, 64, seed=0)
    quad = NodeIndex(1, (2, 2))
    got = est.exact(quad)
    assert got.n == 4 and got.hits == 1
    assert est.exact(quad).value == 0.25
    # enumeration proves a block free
    got = est.exact(NodeIndex(1, (6, 6)))
    assert got.n == 4 and got.hits == 0
    # unit cells enumerate like any other node
    unit = NodeIndex(0, (1, 1))
    assert est.exact(unit).value == 1.0
    assert est.exact(NodeIndex(0, (3, 3))).value == 0.0


def test_known_free_requires_enumeration_not_sampling():
    world = GridWorld(2, 3, np.zeros(64, dtype=np.uint8))
    est = make_grid_estimator(world, 8, seed=0)
    root = NodeIndex(3, (8, 8))
    # root is above the exact cutoff for 8 samples; a clean sample is not
    # proof of freeness
    got = est.estimate(root)
    assert got.hits == 0 and got.n == 8
    # exact() does not pass the cached sample off as an enumeration
    with pytest.raises(ValueError):
        est.exact(root)
    quad = NodeIndex(1, (2, 2))
    got = est.exact(quad)
    assert got.n == 4 and got.hits == 0


@pytest.mark.parametrize("cell_picks", [False, True])
def test_the_scale_alone_decides_enumeration_or_sampling(cell_picks):
    # 16 samples in 2-D: nodes of up to scale 2 are enumerated, by exact
    # and by estimate alike; coarser ones are only sampled
    scene = SphereSet(np.array([[5.0, 6.0]]), np.array([3.0]))
    est = ValueEstimator(scene, 2, 4, samples=16, seed=2, cell_picks=cell_picks)
    assert est.exact_cutoff == 2
    for k in range(3):
        idx = NodeIndex(k, (1 << k,) * 2)
        got = est.estimate(idx)
        assert got is est.exact(idx) and got.n == 1 << 2 * k
    fresh = ValueEstimator(scene, 2, 4, samples=16, seed=2, cell_picks=cell_picks)
    assert fresh.exact(NodeIndex(2, (4, 4))) is fresh.estimate(NodeIndex(2, (4, 4)))
    for idx in (NodeIndex(3, (8, 8)), NodeIndex(4, (16, 16))):
        with pytest.raises(ValueError, match="above the enumeration cutoff"):
            est.exact(idx)
        assert est.estimate(idx).n == 16
        with pytest.raises(ValueError, match="above the enumeration cutoff"):
            est.exact(idx)


def test_enumerated_node_with_a_free_cell_is_not_flagged_at_eps_near_one():
    # 255 of the node's 256 cells are occupied; at eps = 1 - 2**-47 the
    # float threshold 1 - eps * 2**-8 rounds down to 255/256, which a
    # threshold test would flag
    cells = np.ones((32, 32), dtype=np.uint8)
    cells[0, 0] = 0
    world = GridWorld(2, 5, cells.ravel())
    est = ValueEstimator(grid_predicate(world), 2, 5, 256, seed=0, cell_picks=True)
    flagged, got = est.classify(NodeIndex(4, (16, 16)), 1 - 2**-47, 0.1)
    assert (got.hits, got.n) == (255, 256)
    assert not flagged


def test_classify_switches_between_exact_and_sampled():
    rng = np.random.default_rng(8)
    world = GridWorld(2, 4, (rng.random(256) < 0.5).astype(np.uint8))
    tree = build_from_grid(world)
    samples = 16
    est = make_grid_estimator(world, samples, seed=5)
    cutoff = exact_scale_cutoff(2, samples)
    assert cutoff == 2
    eps, gamma = 0.5, 0.1
    # at or below the cutoff the verdict is exact and gamma-free
    for idx in [NodeIndex(2, (4, 4)), NodeIndex(1, (2, 2)), NodeIndex(0, (1, 1))]:
        flagged, got = est.classify(idx, eps, gamma)
        assert got.n == 1 << 2 * idx.scale
        assert flagged == tree.is_obstacle(idx)
    # above the cutoff the verdict is sampled and includes the margin
    flagged, got = est.classify(NodeIndex(3, (8, 8)), eps, gamma)
    assert got.n == samples
    value = est.estimate(NodeIndex(3, (8, 8))).value
    assert flagged == is_flagged_obstacle(value, 3, 2, eps, gamma)


def test_sampled_misclassification_rate_within_bound():
    # d=1 world, node at scale 4 holding 15 obstacle cells of 16: not an
    # obstacle, so flagging it is the one-sided error Hoeffding bounds
    cells = np.zeros(32, dtype=np.uint8)
    cells[:15] = 1
    world = GridWorld(1, 5, cells)
    node = NodeIndex(4, (16,))
    eps, gamma, n = 0.8, 0.05, 8
    tree = build_from_grid(world)
    assert not tree.is_obstacle(node)
    assert exact_scale_cutoff(1, n) == 3
    wrong = 0
    seeds = 1000
    for seed in range(seeds):
        est = make_grid_estimator(world, n, seed=seed)
        flagged, got = est.classify(node, eps, gamma)
        assert got.n == n
        wrong += flagged
    bound = math.exp(-2 * gamma * gamma * n)
    sigma = math.sqrt(bound * (1 - bound) / seeds)
    assert wrong / seeds <= bound + 3 * sigma
    # gamma * 2**4 == eps: scale 4 is the first whose threshold reaches 1,
    # and there it is exactly 1, so the planning bound must count it
    assert gamma * 2**3 < eps == gamma * 2**4
    assert wrong > 0
    params = BoundParams(depth=5, dim=1, eps=eps, gamma=gamma, samples=n)
    assert wrong / seeds <= failure_bound(params)


def test_misclassification_rate_strictly_inside_the_band():
    # d=1, depth 5, 8 samples: nodes of up to 8 cells are enumerated
    # (cutoff 3) and gamma * 2**5 == eps puts the first threshold of 1 at
    # scale 5, so scale 4 lies strictly inside the misclassifiable band.  The scale-4
    # node holds one free cell of 16, more free volume than eps, so a
    # flag is the one-sided error Hoeffding bounds by exp(-2 gamma^2 n).
    eps, gamma, n = 0.5, 2.0**-6, 8
    assert exact_scale_cutoff(1, n) == 3 and gamma * 2**4 < eps == gamma * 2**5
    params = BoundParams(depth=5, dim=1, eps=eps, gamma=gamma, samples=n)
    bound = failure_bound(params)
    assert bound == pytest.approx(0.99999994, abs=1e-8)
    cells = np.zeros(32, dtype=np.uint8)
    cells[16:31] = 1
    world = GridWorld(1, 5, cells)
    node = NodeIndex(4, (48,))
    seeds = 1000
    flags = 0
    for seed in range(seeds):
        flagged, got = make_grid_estimator(world, n, seed=seed).classify(node, eps, gamma)
        assert got.n == n
        flags += flagged
    # all 8 samples hit with probability (15/16)**8 = 0.597, so flags occur
    assert flags > 0
    # 3 sigma of the binomial rate: about 99.87% one-sided confidence
    # under the normal approximation that each check holds by chance
    hoeffding = math.exp(-2 * gamma * gamma * n)
    sigma = math.sqrt(hoeffding * (1 - hoeffding) / seeds)
    assert flags / seeds <= hoeffding + 3 * sigma
    assert flags / seeds <= bound


def test_continuous_predicate_estimates():
    # exact fractional volumes need no grid: a slab of half the box; 2000
    # samples enumerate nodes of up to scale 5, so these are all sampled
    est = ValueEstimator(Slab(0, 64.0), 2, 7, samples=2000, seed=3)
    root = NodeIndex(7, (128, 128))
    got = est.estimate(root).value
    assert abs(got - 0.5) < 0.05
    # node fully inside the slab
    assert est.estimate(NodeIndex(6, (64, 64))).value == 1.0
    # node fully outside
    assert est.estimate(NodeIndex(6, (192, 64))).value == 0.0


def replay_cell_draws(estimator, predicate, idx):
    """Reconstruct the estimator's integer draws and recount hits directly."""
    rng = estimator._node_rng(idx)
    side = 1 << idx.scale
    low = [(c - side) // 2 for c in idx.center2]
    draws = rng.integers(0, side, size=(estimator.samples, len(idx.center2)))
    hits = 0
    for row in draws:
        center = tuple(l + int(v) + 0.5 for l, v in zip(low, row))
        hits += bool(predicate(center))
    return hits


def test_cell_picks_memo_matches_direct_recount():
    scene = SphereSet(
        np.array([[4.0, 4.0], [10.0, 12.0]]), np.array([2.5, 3.0])
    )
    # 200 samples enumerate nodes of up to scale 3; these are all sampled
    nodes = [
        NodeIndex(6, (64, 64)),
        NodeIndex(5, (32, 32)),
        NodeIndex(5, (32, 96)),
        NodeIndex(4, (16, 16)),
        NodeIndex(5, (32, 32)),  # repeat consults the cache
    ]
    est = ValueEstimator(scene, 2, 6, samples=200, seed=11, cell_picks=True)
    replay = ValueEstimator(scene, 2, 6, samples=200, seed=11, cell_picks=True)
    for idx in nodes:
        got = est.estimate(idx)
        assert got.hits == replay_cell_draws(replay, scene, idx)
        assert got.n == 200


class CountingOracle:
    """Scalar-only predicate that counts the points it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.points = 0

    def __call__(self, point):
        self.points += 1
        return self.inner(point)


class CountingBatchOracle(CountingOracle):
    """CountingOracle that also answers a batch of points."""

    def batch(self, points):
        self.points += len(points)
        return self.inner.batch(points)


def test_cell_picks_scalar_and_batch_paths_agree():
    # 150 samples enumerate nodes of up to scale 3: the first two nodes are
    # sampled, the rest enumerated
    scene = SphereSet(np.array([[6.0, 3.0]]), np.array([2.2]))
    fast = ValueEstimator(scene, 2, 5, samples=150, seed=4, cell_picks=True)
    slow = ValueEstimator(
        CountingOracle(scene), 2, 5, samples=150, seed=4, cell_picks=True
    )
    nodes = [NodeIndex(5, (32, 32)), NodeIndex(4, (16, 16)), NodeIndex(3, (8, 8)),
             NodeIndex(2, (4, 12)), NodeIndex(1, (10, 2))]
    for idx in nodes:
        a, b = fast.estimate(idx), slow.estimate(idx)
        assert (a.n, a.hits) == (b.n, b.hits)


def nodes_at(scale, dim, depth):
    """Every node of one scale in a dim-dimensional world of the given depth."""
    side = 1 << (depth - scale)
    return [
        NodeIndex(scale, tuple((2 * c + 1) << scale for c in cell))
        for cell in np.ndindex(*(side,) * dim)
    ]


@pytest.mark.parametrize("cell_picks", [False, True])
@pytest.mark.parametrize("oracle", [CountingOracle, CountingBatchOracle])
def test_exact_asks_each_unit_cell_once(oracle, cell_picks):
    scene = oracle(SphereSet(np.array([[5.0, 6.0], [12.0, 3.0]]), np.array([3.0, 2.5])))
    est = ValueEstimator(scene, 2, 4, samples=64, seed=2, cell_picks=cell_picks)
    parent = NodeIndex(3, (8, 24))
    top = est.exact(parent)
    assert scene.points == 64  # one point per unit cell of the parent
    for child in children_of(parent):
        cells = [child]
        while cells[0].scale > 0:
            cells = [c for cell in cells for c in children_of(cell)]
        assert est.exact(child).hits == sum(est.exact(c).hits for c in cells)
    assert scene.points == 64  # children and unit cells are memo lookups
    assert sum(est.exact(c).hits for c in children_of(parent)) == top.hits


@pytest.mark.parametrize("cell_picks", [False, True])
@pytest.mark.parametrize(
    "scene, dim, depth",
    [
        pytest.param(
            SphereSet(np.array([[5.0, 6.0], [12.0, 3.0]]), np.array([3.0, 2.5])), 2, 4,
            id="spheres-2d",
        ),
        pytest.param(Checkerboard(3.0), 2, 4, id="checkerboard-2d"),
        pytest.param(
            SphereSet(np.array([[2.0, 6.0, 3.5]]), np.array([3.0])), 3, 3,
            id="spheres-3d",
        ),
        pytest.param(Checkerboard(2.5), 3, 3, id="checkerboard-3d"),
    ],
)
def test_exact_matches_scalar_count_at_every_scale(scene, dim, depth, cell_picks):
    # 8 samples make blocks of scale 1; as many as the world has cells make
    # every scale enumerable and the world one block
    for samples in (8, 1 << (dim * depth)):
        oracle = CountingBatchOracle(scene)
        est = ValueEstimator(oracle, dim, depth, samples, seed=0, cell_picks=cell_picks)
        for scale in range(est.exact_cutoff, -1, -1):
            for idx in nodes_at(scale, dim, depth):
                side = 1 << scale
                low = [(c - side) // 2 for c in idx.center2]
                brute = sum(
                    bool(scene(tuple(l + o + 0.5 for l, o in zip(low, off))))
                    for off in np.ndindex(*(side,) * dim)
                )
                got = est.exact(idx)
                assert (got.n, got.hits) == (side**dim, brute), idx
        # the whole world was enumerated once a scale, each cell asked once
        assert oracle.points == 1 << (dim * depth)


class RecordingOracle:
    """Batch predicate that records the points of every batch call."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def __call__(self, point):
        raise AssertionError("the estimator asked a single point")

    def batch(self, points):
        self.batches.append([tuple(p) for p in points.tolist()])
        return self.inner.batch(points)


@pytest.mark.parametrize("cell_picks", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
def test_enumeration_asks_unasked_cells_in_one_row_major_batch(dim, cell_picks):
    # samples for a block of scale 2: the node is one block, the root above
    # it is sampled
    oracle = RecordingOracle(Checkerboard(1.5))
    est = ValueEstimator(oracle, dim, 3, samples=1 << 2 * dim, seed=1, cell_picks=cell_picks)
    node = NodeIndex(2, (4,) * dim)
    # learn some of the node's cells first: a child's enumeration, then a
    # draw over the root, whose points are remembered only when they are
    # cell picks
    est.exact(children_of(node)[1])
    est.estimate(NodeIndex(3, (8,) * dim))
    assert len(oracle.batches) == 2
    known = set(oracle.batches[0] + (oracle.batches[1] if cell_picks else []))
    oracle.batches.clear()
    got = est.exact((node.scale, node.center2))
    # one batch of the unasked cell centers, last axis fastest, none twice
    row_major = [tuple(c + 0.5 for c in cell) for cell in itertools.product(range(4), repeat=dim)]
    assert oracle.batches == [[p for p in row_major if p not in known]]
    # the node's cells are all known now: its children ask for nothing
    oracle.batches.clear()
    hits = sum(est.exact(child).hits for child in children_of(node))
    assert oracle.batches == [] and hits == got.hits
    assert est.exact(NodeIndex(node.scale, node.center2)) is got


def test_enumeration_cutoff_is_capped_at_the_depth():
    # 4096 samples would enumerate a 2-D scale-6 node, but a depth-3 world
    # has no node above scale 3: the cutoff stops there, so the root is one
    # block, and enumerating it asks all its cells in one batch
    oracle = RecordingOracle(Checkerboard(3.0))
    est = ValueEstimator(oracle, 2, 3, samples=4096, seed=0)
    assert est.exact_cutoff == 3
    root = NodeIndex(3, (8, 8))
    got = est.exact(root)
    assert [len(batch) for batch in oracle.batches] == [64]
    oracle.batches.clear()
    hits = sum(est.exact(child).hits for child in children_of(root))
    assert oracle.batches == [] and hits == got.hits


def test_cell_picks_draw_asks_each_distinct_cell_once():
    rng = np.random.default_rng(5)
    world = GridWorld(2, 6, (rng.random(4096) < 0.3).astype(np.uint8))
    oracle = CountingBatchOracle(grid_predicate(world))
    est = ValueEstimator(oracle, 2, 6, samples=256, seed=3, cell_picks=True)
    idx = NodeIndex(5, (32, 32))
    replay = ValueEstimator(oracle.inner, 2, 6, samples=256, seed=3, cell_picks=True)
    draws = replay._node_rng(idx).integers(0, 32, size=(256, 2))
    distinct = {tuple(row) for row in draws.tolist()}
    assert len(distinct) < 256  # the draw repeats some cells
    got = est.estimate(idx)
    assert oracle.points == len(distinct)
    assert got.hits == replay_cell_draws(replay, oracle.inner, idx)


@pytest.mark.parametrize("dim, k", [(1, 4), (2, 3), (3, 2), (4, 1)])
def test_layout_ranks_follow_the_descent_slots(dim, k):
    # a cell's rank is its slots on the way down from the node, as
    # neighbors._descend takes them (bit j of the slot at scale s is bit s
    # of the doubled coordinate on axis j), so each subnode is one run
    centers, ranks, rank_list = _layout(dim, k)
    offsets = list(itertools.product(range(1 << k), repeat=dim))
    assert centers.tolist() == [[o + 0.5 for o in off] for off in offsets]
    for off, rank in zip(offsets, rank_list):
        target2 = [2 * o + 1 for o in off]
        slots = [sum((c >> s & 1) << j for j, c in enumerate(target2)) for s in range(k, 0, -1)]
        assert rank == sum(slot << dim * (s - 1) for s, slot in zip(range(k, 0, -1), slots))
    assert sorted(rank_list) == list(range(1 << dim * k))
    assert rank_list == ranks.tolist()


def test_block_memo_in_a_world_past_int64_cell_ids():
    # 8-D depth 10 holds 2**80 cells; with 256 samples a block is one
    # scale-1 node of 256 cells, so block coordinates take 9 bits an axis,
    # 72 bits in all
    scene = CountingBatchOracle(Checkerboard(3.0))
    est = ValueEstimator(scene, 8, 10, samples=256, seed=7, cell_picks=True)
    node = NodeIndex(1, (2**10 + 2,) + (6,) * 7)  # one block
    brute = sum(
        bool(scene.inner(tuple((c >> 1) - 1 + o + 0.5 for c, o in zip(node.center2, off))))
        for off in itertools.product(range(2), repeat=8)
    )
    assert est.exact(node) == (256, brute)
    assert scene.points == 256
    root = NodeIndex(10, (2**10,) * 8)
    replay = ValueEstimator(scene.inner, 8, 10, samples=256, seed=7, cell_picks=True)
    assert est.estimate(root).hits == replay_cell_draws(replay, scene.inner, root)


class DictMemoModel:
    """Reference cell memo: one dict entry per cell tuple.

    It asks the predicate what ValueEstimator must ask, in the same
    order: a node's unasked cells in row-major order, a draw's distinct
    unasked cells in first-draw order, and continuous draws as drawn.
    Nodes at or below the cutoff are enumerated, larger ones sampled.
    Draws are replayed from a twin estimator's node streams.
    """

    def __init__(self, predicate, dim, depth, samples, seed, cell_picks):
        self.predicate = predicate
        self.twin = ValueEstimator(predicate.inner, dim, depth, samples, seed, cell_picks)
        self.cutoff = min(exact_scale_cutoff(dim, samples), depth)
        self.cells = {}
        self.cache = {}

    def _hits(self, cells, distinct):
        misses = [cell for cell in distinct if cell not in self.cells]
        if misses:
            flags = self.predicate.batch(np.asarray(misses, dtype=np.float64) + 0.5)
            self.cells.update(zip(misses, np.asarray(flags).tolist()))
        return sum(self.cells[cell] for cell in cells)

    def exact(self, idx):
        got = self.cache.get(idx)
        if got is None:
            k, c2 = idx
            axes = [range((c - (1 << k)) >> 1, (c + (1 << k)) >> 1) for c in c2]
            cells = list(itertools.product(*axes))
            got = self.cache[idx] = (len(cells), self._hits(cells, cells))
        return got

    def estimate(self, idx):
        if idx[0] <= self.cutoff:
            return self.exact(idx)
        got = self.cache.get(idx)
        if got is None:
            est, (k, c2) = self.twin, idx
            n, side = est.samples, 1 << k
            rng = est._node_rng(idx)
            low = np.array([(c - side) >> 1 for c in c2])
            if est.cell_picks:
                cells = [tuple(r) for r in (low + rng.integers(0, side, (n, est.dim))).tolist()]
                hits = self._hits(cells, dict.fromkeys(cells))
            else:
                points = low + rng.random((n, est.dim)) * side
                hits = int(np.count_nonzero(self.predicate.batch(points)))
            got = self.cache[idx] = (n, hits)
        return got


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4096), st.booleans(), st.data())
def test_block_memo_asks_and_counts_like_a_dict_memo(dim, samples, cell_picks, data):
    # Block scales from 0 up to the whole world: the batches match the
    # dict memo's in content and order, exact counts match brute force,
    # exact refuses nodes above the block scale, and no cell center is
    # asked twice.
    depth = data.draw(st.integers(0, 10 // dim), label="depth")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    world = GridWorld(dim, depth, np.random.default_rng(seed).random(1 << dim * depth) < 0.4)
    truth = grid_predicate(world)
    real = RecordingOracle(truth)
    model = DictMemoModel(RecordingOracle(truth), dim, depth, samples, seed, cell_picks)
    est = ValueEstimator(real, dim, depth, samples, seed, cell_picks)
    calls = st.tuples(st.booleans(), st.integers(0, depth), st.integers(0, 2**30))
    for enumerate_node, k, pick in data.draw(st.lists(calls, max_size=8), label="calls"):
        per_axis = 1 << (depth - k)
        cell = [pick // per_axis**j % per_axis for j in range(dim)]
        idx = NodeIndex(k, tuple((2 * c + 1) << k for c in cell))
        if enumerate_node and k > model.cutoff:
            with pytest.raises(ValueError):
                est.exact(idx)
        elif enumerate_node:
            got = est.exact(idx)
            assert got == model.exact(idx)
            low = [(c - (1 << k)) >> 1 for c in idx.center2]
            box = tuple(slice(lo, lo + (1 << k)) for lo in low)
            assert got.hits == int(world.cells.reshape((1 << depth,) * dim, order="F")[box].sum())
        else:
            assert est.estimate(idx) == model.estimate(idx)
        assert real.batches == model.predicate.batches
    centers = [p for batch in real.batches for p in batch if all(x % 1 == 0.5 for x in p)]
    assert len(centers) == len(set(centers))


def test_one_sided_deviation_obeys_hoeffding_small():
    # single configuration smoke check; the acceptance suite sweeps the grid
    # 400 samples enumerate nodes of up to scale 4, so the root is sampled
    est_true = 0.25
    gamma, n, seeds = 0.05, 400, 400
    side = 1 << 5
    pred = Slab(0, est_true * side)
    exceed = 0
    for seed in range(seeds):
        est = ValueEstimator(pred, 2, 5, samples=n, seed=seed)
        exceed += est.estimate(NodeIndex(5, (32, 32))).value - est_true >= gamma
    bound = math.exp(-2 * gamma**2 * n)
    sigma = math.sqrt(bound * (1 - bound) / seeds)
    assert exceed / seeds <= bound + 3 * sigma
