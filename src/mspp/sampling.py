"""Monte Carlo occupancy estimation and its probability bounds.

Map-free planning never builds an occupancy tree.  Instead, each node's
occupancy value is estimated by sampling an obstacle predicate inside the
node's cube, with a per-node margin gamma absorbing the estimation error:
a sampled node is flagged as an obstacle when

    estimate >= 1 - 2**(-dim*scale) * eps + gamma.

Two scale cutoffs shape the hybrid scheme.  At or below exact_scale_cutoff
a node holds no more unit cells than the sample budget, so full enumeration
is cheaper than sampling, and an enumerated node is an obstacle exactly
when every cell of it is occupied, as a map node is.  Above
flag_scale_cutoff the margin pushes the threshold past 1, so no estimate
can flag the node.  At the cutoff itself the threshold is exactly 1 when
gamma * 2**(dim*k) equals eps, and an estimate whose samples all hit
flags the node.  So the misclassifiable band runs from above the
enumeration cutoff to the first scale where classify's own threshold
test leaves a saturated estimate unflagged, and band_node_count counts
its nodes in closed form.  failure_bound combines the pieces into the
standard probability bound on planning failure.

Estimates are cached per node for the lifetime of an estimator, and each
node draws from its own counter-based random stream derived from the
session seed and the node address, so results do not depend on the order
in which a lazy search touches nodes.

Enumeration lists a node's unit cells in row-major order (the last axis
varies fastest).  They are distinct, so the ones the per-cell memo lacks
go to the predicate as they are, in that order, as one batch; only cell
picks, which may repeat a cell, are deduplicated first.  Each cell costs
one oracle point per estimator.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, expm1, inf, ldexp
from typing import NamedTuple

import numpy as np

from .tree import NodeIndex

__all__ = [
    "BoundParams",
    "SampleEstimate",
    "ValueEstimator",
    "band_node_count",
    "exact_scale_cutoff",
    "failure_bound",
    "flag_scale_cutoff",
    "is_flagged_obstacle",
    "obstacle_threshold",
]


class SampleEstimate(NamedTuple):
    """Occupancy estimate for one node: hits obstacle samples out of n."""

    n: int
    hits: int
    exact: bool = False

    @property
    def value(self) -> float:
        return self.hits / self.n


@dataclass(frozen=True)
class BoundParams:
    """Parameters of the planning failure bound."""

    depth: int
    dim: int
    eps: float
    gamma: float
    samples: int
    regions: int = 1

    def __post_init__(self):
        if self.depth < 0 or self.dim < 1:
            raise ValueError("depth must be >= 0 and dim >= 1")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.gamma < inf:
            raise ValueError("gamma must be positive and finite")
        check_samples(self.samples)
        if self.regions < 1:
            raise ValueError("regions must be >= 1")


def check_samples(samples) -> int:
    """samples as an int; ValueError unless it is an integer >= 1."""
    try:
        if operator.index(samples) >= 1:
            return operator.index(samples)
    except TypeError:
        pass
    raise ValueError(f"samples must be an integer >= 1, got {samples!r}")


def obstacle_threshold(eps: float, dim: int, scale: int) -> float:
    """Estimate at which a sampled scale-k node is an obstacle, before gamma.

    This is 1 - eps / 2**(dim * k): the free volume such a node hides is
    below eps unit cells.  Known nodes need no threshold: a map node, or a
    node that is enumerated, is an obstacle exactly when it is full.
    """
    return 1.0 - ldexp(eps, -dim * scale)


def is_flagged_obstacle(
    value: float, scale: int, dim: int, eps: float, gamma: float
) -> bool:
    """Sampled obstacle test with margin gamma at the given scale."""
    return value >= obstacle_threshold(eps, dim, scale) + gamma


def flag_scale_cutoff(dim: int, eps: float, gamma: float) -> int:
    """Smallest scale whose flag threshold reaches 1.

    This is ceil(log2(eps/gamma) / dim), evaluated exactly: the smallest k
    with gamma * 2**(dim*k) >= eps.  Above it no estimate can be flagged
    as an obstacle; at it the threshold is exactly 1 on a tie, where a
    saturated estimate is still flagged.  Negative when gamma > eps;
    returned as-is in that case.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    ratio = Fraction(eps) / Fraction(gamma)
    num, den = ratio.numerator, ratio.denominator
    k = ceil((num.bit_length() - den.bit_length()) / dim)

    def holds(k: int) -> bool:
        t = dim * k
        if t >= 0:
            return (den << t) >= num
        return den >= (num << -t)

    while not holds(k):
        k += 1
    while holds(k - 1):
        k -= 1
    return k


def exact_scale_cutoff(dim: int, samples: int) -> int:
    """Largest scale at which a node has at most `samples` unit cells.

    This is floor(log2(samples) / dim); full enumeration at such scales is
    no more expensive than drawing the samples.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    k = 0
    while (1 << (dim * (k + 1))) <= samples:
        k += 1
    return k


def band_node_count(depth: int, dim: int, low: int, high: int) -> float:
    """Number of tree nodes at scales strictly between low and high.

    Only scales 0 to depth hold nodes, so the band is cut off above depth:
    the count is the integer sum_{low < k < min(high, depth + 1)}
    2**(dim*(depth-k)), evaluated in closed form before conversion to
    float; 0 when no scale of the band lies in the tree, inf when the
    count exceeds the float range.
    """
    high = min(high, depth + 1)
    if low >= high - 1:
        return 0.0
    top = dim * (depth - low)
    bot = dim * (depth - high + 1)
    total = ((1 << top) - (1 << bot)) // ((1 << dim) - 1)
    try:
        return float(total)
    except OverflowError:
        return inf


def failure_bound(params: BoundParams) -> float:
    """Probability bound on planning failure from node misclassification.

    Evaluates 1 - (1 - exp(-2 gamma^2 n))^count over `regions` independent
    solution regions of count/regions nodes each, clamped to [0, 1].

    The band holds the sampled scales, above the enumeration cutoff, where
    is_flagged_obstacle flags an estimate of 1.  It ends at the flag
    cutoff, or past it where the threshold there is 1: exactly, on a tie,
    or after rounding, for a gamma within a rounding error above
    eps * 2**(-dim*k).  The bound reads the same float test classify
    does, so the two cannot disagree on a scale.

    With one region the bound is either 0 or close to 1.  It is 0 exactly
    when no scale of the misclassifiable band lies in the tree (sampling
    decides no node).  Otherwise it exceeds exp(-2 eps^2 / n): a band scale
    k has 2**(dim*k) > n cells and gamma * 2**(dim*k) <= eps, so gamma^2 n
    < eps^2 / n, and one node's term exp(-2 gamma^2 n) already exceeds it.
    A scale that rounding adds keeps gamma * n < eps, hence the same, while
    n * (n + 1) < eps * 2**52.
    """
    dim, eps, gamma = params.dim, params.eps, params.gamma
    low = exact_scale_cutoff(dim, params.samples)
    high = flag_scale_cutoff(dim, eps, gamma)
    while high <= params.depth and is_flagged_obstacle(1.0, high, dim, eps, gamma):
        high += 1
    count = band_node_count(params.depth, dim, low, high)
    if count == 0.0:
        return 0.0
    # 1 - exp(-2 g^2 n), kept accurate when the exponent is tiny.
    miss = -expm1(-2.0 * gamma * gamma * params.samples)
    keep = miss ** (count / params.regions)
    bound = (1.0 - keep) ** params.regions
    return min(1.0, max(0.0, bound))


def _stream_digest(seed: int, idx: NodeIndex) -> bytes:
    """16-byte stream key for one node, stable across evaluation orders."""
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<Q", seed & (2**64 - 1)))
    k, c2 = idx
    h.update(struct.pack("<i", k))
    h.update(struct.pack(f"<{len(c2)}I", *c2))
    return h.digest()


class ValueEstimator:
    """Cached per-node occupancy estimation against an obstacle predicate.

    predicate maps a d-point to True on obstacles.  Every query goes through
    one vectorized call on an (n, d) array: the predicate's own `batch`
    method when present, else a per-point loop wrapped once at
    construction.  With cell_picks=True samples are uniform unit-cell
    centers (the discrete model of a grid world); otherwise they are
    continuous uniform points.  Each node is sampled at most once; repeated
    queries hit the cache, which a NodeIndex or its plain (scale, center2)
    tuple finds alike.  Exact enumeration, and cell-centered sampling,
    ask the predicate about unit-cell centers through one per-cell memo, so
    a cell shared between nodes, scales or draws is paid for once.
    Enumeration lists a node's cells in row-major order of their integer
    coordinates (the last axis varies fastest); they are distinct, so the
    memo's misses go to the predicate in that order, as one batch, with no
    dedupe.  A cell-picked draw may repeat a cell, so its distinct cells
    are found first, in draw order, and its misses go as one batch too.
    """

    def __init__(
        self,
        predicate,
        dim: int,
        depth: int,
        samples: int,
        seed: int,
        cell_picks: bool = False,
    ):
        self.predicate = predicate
        self.dim = dim
        self.depth = depth
        self.samples = check_samples(samples)
        self.seed = seed
        self.cell_picks = cell_picks
        self.exact_cutoff = exact_scale_cutoff(dim, self.samples)
        batch = getattr(predicate, "batch", None)
        if batch is None:

            def batch(points: np.ndarray) -> np.ndarray:
                flags = [bool(predicate(tuple(p))) for p in points.tolist()]
                return np.array(flags, dtype=bool)

        self._batch = batch
        self._cache: dict[NodeIndex, SampleEstimate] = {}
        # One bit generator shared by all nodes; each draw rekeys it with
        # the node's stream key and a zeroed counter, which reproduces the
        # stream of a freshly constructed instance without paying the
        # construction cost on every node.
        self._bits = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._bits)
        # The predicate answer at a unit-cell center is a session constant
        # (predicates are pure), so it is remembered per cell; nodes that
        # overlap, at any scale, re-test shared cells at dictionary cost.
        self._cells: dict[tuple[int, ...], bool] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def _hits_cells(self, cells, distinct) -> int:
        """Obstacle count over integer cells, consulting the cell memo.

        distinct lists each of the cells once.  Repeated cells are counted
        per occurrence; the distinct cells the memo lacks go to the
        predicate in their order, as one batch, so each costs one oracle
        point, ever.
        """
        memo = self._cells
        misses = [cell for cell in distinct if cell not in memo]
        if misses:
            flags = self._batch(np.asarray(misses, dtype=np.float64) + 0.5)
            memo.update(zip(misses, np.asarray(flags, dtype=bool).tolist()))
        return sum(map(memo.__getitem__, cells))

    def _node_rng(self, idx: NodeIndex) -> np.random.Generator:
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.frombuffer(_stream_digest(self.seed, idx), dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._rng

    def estimate(self, idx: NodeIndex) -> SampleEstimate:
        """Sampled estimate of the node's occupancy value."""
        got = self._cache.get(idx)
        if got is not None:
            return got
        n = self.samples
        rng = self._node_rng(idx)
        k, c2 = idx
        side = 1 << k
        low = np.array([(c - side) >> 1 for c in c2], dtype=np.int64)
        if self.cell_picks:
            draws = rng.integers(0, side, size=(n, self.dim))
            cells = [tuple(row) for row in (low + draws).tolist()]
            hits = self._hits_cells(cells, dict.fromkeys(cells))
        else:
            points = low + rng.random((n, self.dim)) * side
            hits = int(np.count_nonzero(self._batch(points)))
        est = SampleEstimate(n, hits)
        self._cache[idx] = est
        return est

    def exact(self, idx: NodeIndex) -> SampleEstimate:
        """Exact occupancy by enumerating every unit cell of the node."""
        got = self._cache.get(idx)
        if got is not None and got.exact:
            return got
        k, c2 = idx
        side = 1 << k
        axes = [range((c - side) >> 1, (c + side) >> 1) for c in c2]
        cells = list(product(*axes))
        # A node's cells are distinct: only picks need a dedupe.
        est = SampleEstimate(len(cells), self._hits_cells(cells, cells), True)
        self._cache[idx] = est
        return est

    def classify(
        self, idx: NodeIndex, eps: float, gamma: float
    ) -> tuple[bool, SampleEstimate]:
        """Hybrid obstacle test: exact at coarse-enough-to-enumerate scales.

        Returns (is_obstacle, estimate).  At or below the enumeration
        cutoff the estimate is exact, and the node is an obstacle exactly
        when every cell of it is occupied; eps and gamma play no part.
        Above it the estimate is sampled and held to the scale-weighted
        threshold plus gamma (is_flagged_obstacle).
        """
        k = idx[0]
        if k <= self.exact_cutoff:
            est = self.exact(idx)
            return est.hits == est.n, est
        est = self.estimate(idx)
        return is_flagged_obstacle(est.value, k, self.dim, eps, gamma), est
