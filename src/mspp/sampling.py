"""Monte Carlo occupancy estimation and its probability bounds.

Map-free planning never builds an occupancy tree.  Instead, each node's
occupancy value is estimated by sampling an obstacle predicate inside the
node's cube, with a per-node margin gamma absorbing the estimation error:
a sampled node is flagged as an obstacle when

    estimate >= 1 - 2**(-dim*scale) * eps + gamma.

A node's scale alone decides how it is known.  At or below
exact_scale_cutoff a node holds no more unit cells than the sample budget,
so full enumeration is cheaper than sampling, and an enumerated node is an
obstacle exactly when every cell of it is occupied, as a map node is.
Above it the node can be sampled and held to the threshold.  The
threshold rises with the scale (its float rounding is monotone too), so
an estimate whose samples all hit is flagged up to some scale and never
past it.  The misclassifiable band runs from above the enumeration
cutoff to flag_band_end, the first scale where is_flagged_obstacle
leaves that saturated estimate unflagged, and band_node_count counts its
nodes in closed form.  failure_bound combines the pieces into the
standard probability bound on planning failure.  A planner that does
not price occupancy into its costs (weight 0) samples only the band's
nodes: past it no estimate can flag a node.

Estimates are cached per node for the lifetime of an estimator, and each
node draws from its own counter-based random stream derived from the
session seed and the node address, so results do not depend on the order
in which a lazy search touches nodes.

The cell memo that enumeration and cell picks share keeps one byte per
unit cell (0 not yet asked, 1 free, 2 obstacle) in blocks, one per node
at the estimator's enumeration cutoff, exact_cutoff, which it caps at the
depth.  A block lists its cells in Morton order, so a node the estimator
enumerates is one contiguous run of bytes and its count of occupied cells
is a C-level count of that run.
The cells the memo lacks still go to the predicate in row-major order of
the node (the last axis varies fastest), as one batch; cell picks, which
may repeat a cell, ask their distinct cells in draw order.  Each cell
costs one oracle point per estimator.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from dataclasses import dataclass
from functools import lru_cache
from math import expm1, inf, ldexp
from typing import NamedTuple

import numpy as np

from .predicates import batch_of
from .tree import NodeIndex

__all__ = [
    "BoundParams",
    "SampleEstimate",
    "ValueEstimator",
    "band_node_count",
    "exact_scale_cutoff",
    "failure_bound",
    "flag_band_end",
    "is_flagged_obstacle",
    "obstacle_threshold",
]


class SampleEstimate(NamedTuple):
    """Occupancy estimate for one node: hits obstacle samples out of n."""

    n: int
    hits: int

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


def exact_scale_cutoff(dim: int, samples: int) -> int:
    """Largest scale at which a node has at most `samples` unit cells.

    This is floor(log2(samples) / dim); full enumeration at such scales is
    no more expensive than drawing the samples.
    """
    if dim < 1 or samples < 1:
        raise ValueError("dim and samples must be >= 1")
    return (operator.index(samples).bit_length() - 1) // dim


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
    # The band's largest term, 2**(top - dim), past the float range makes
    # the count inf without building the top-bit integer.
    if top - dim >= 1024:
        return inf
    bot = dim * (depth - high + 1)
    total = ((1 << top) - (1 << bot)) // ((1 << dim) - 1)
    try:
        return float(total)
    except OverflowError:
        return inf


def flag_band_end(dim: int, depth: int, samples: int, eps: float, gamma: float) -> int:
    """First scale past the flag band.

    The band holds the sampled scales, above the enumeration cutoff
    exact_scale_cutoff(dim, samples), where is_flagged_obstacle flags an
    estimate of 1.  That float test holds up to some scale and fails at
    every scale past it, so the band is found by walking up from the
    cutoff while it holds.  It reads the same test classify does, so the
    band and the classification cannot disagree on a scale: a scale whose
    threshold is exactly 1 (gamma * 2**(dim*k) == eps) or rounds to 1 is
    in the band.  Once obstacle_threshold reads 1.0 it reads 1.0 at every
    higher scale, so the test does too: a band that is still open there
    runs to depth without walking on.  eps < 1 makes the threshold 1.0 at
    every scale with dim * k >= 54, so the walk takes at most 54 steps
    however deep the tree.  (A band reaches those scales only when gamma
    is at most 2**-53, which rounds 1 + gamma to 1.)  A node at the
    returned scale or above is never flagged, whatever its samples read.
    """
    high = exact_scale_cutoff(dim, samples) + 1
    while high <= depth and is_flagged_obstacle(1.0, high, dim, eps, gamma):
        if obstacle_threshold(eps, dim, high) == 1.0:
            return depth + 1
        high += 1
    return high


def failure_bound(params: BoundParams) -> float:
    """Probability bound on planning failure from node misclassification.

    Evaluates 1 - (1 - exp(-2 gamma^2 n))^count over `regions` independent
    solution regions of count/regions nodes each, clamped to [0, 1].
    count is the number of nodes in the flag band, at the scales above
    the enumeration cutoff and below flag_band_end.

    With one region the bound is either 0 or close to 1.  It is 0 exactly
    when no scale of the misclassifiable band lies in the tree (sampling
    decides no node).  Otherwise it exceeds exp(-2 eps^2 / n): a band scale
    k has 2**(dim*k) > n cells and gamma * 2**(dim*k) <= eps, so gamma^2 n
    < eps^2 / n, and one node's term exp(-2 gamma^2 n) already exceeds it.
    A band scale that only rounding flags (gamma * 2**(dim*k) a rounding
    error above eps) keeps gamma * n < eps, hence the same, while
    n * (n + 1) < eps * 2**52.
    """
    dim, eps, gamma = params.dim, params.eps, params.gamma
    low = exact_scale_cutoff(dim, params.samples)
    high = flag_band_end(dim, params.depth, params.samples, eps, gamma)
    count = band_node_count(params.depth, dim, low, high)
    if count == 0.0:
        return 0.0
    # 1 - exp(-2 g^2 n), kept accurate when the exponent is tiny.
    miss = -expm1(-2.0 * gamma * gamma * params.samples)
    keep = miss ** (count / params.regions)
    bound = (1.0 - keep) ** params.regions
    return min(1.0, max(0.0, bound))


@lru_cache(maxsize=None)
def _layout(dim: int, k: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Cells of a scale-k node: row-major center offsets and Morton ranks.

    centers lists each cell's center as an offset from the node's low
    corner, last axis fastest (the order of itertools.product).  ranks
    holds each cell's position in the node's Morton order, whose slot bits
    are taken as neighbors._descend takes them: bit j of the slot at level
    l is bit l of the cell's offset on axis j.  rank_list is ranks as a
    list, for scalar lookups.  Every caller shares the arrays, so they are
    read-only.
    """
    offsets = np.indices((1 << k,) * dim).reshape(dim, -1).T
    ranks = np.zeros(len(offsets), dtype=np.intp)
    for level in range(k):
        for j in range(dim):
            ranks |= (offsets[:, j] >> level & 1) << (level * dim + j)
    centers = offsets + 0.5
    centers.flags.writeable = ranks.flags.writeable = False
    return centers, ranks, ranks.tolist()


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
    one vectorized call on an (n, d) array, batch_of(predicate), bound
    once at construction.  With cell_picks=True samples are uniform
    unit-cell centers (the discrete model of a grid world); otherwise they
    are continuous uniform points.  Each node is sampled at most once; repeated
    queries hit the cache, which a NodeIndex or its plain (scale, center2)
    tuple finds alike.  exact_cutoff is exact_scale_cutoff(dim, samples),
    capped at depth, as no node lies above it.  The scale alone decides
    how a node is known: one at or below exact_cutoff is enumerated (exact,
    which estimate returns there too), and one above it is sampled
    (estimate; exact refuses it).  The cache thus holds one kind of entry
    per scale.

    Exact enumeration, and cell-centered sampling, ask the predicate about
    unit-cell centers through one cell memo, so a cell shared between
    nodes, scales or draws is paid for once.  The memo is a set of blocks:
    one bytearray per node at scale exact_cutoff (the block scale), keyed
    by its center2 and made when first touched, with one byte per cell (0
    not yet asked, 1 free, 2 obstacle).  A block lists its cells in Morton
    order, so every node at or below the block scale is one contiguous run
    of its block, and enumerating it is two counts of that run: of 0
    bytes, and when there are none, of 2 bytes.  The cells of the run that
    are not yet asked still go to the predicate in row-major order of
    their integer coordinates (the last axis varies fastest), as one
    batch.  A cell-picked draw may repeat a cell, so its distinct
    cells are found first, in draw order, and the unasked ones go as one
    batch too.
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
        self.exact_cutoff = min(exact_scale_cutoff(dim, self.samples), depth)
        self._batch = batch_of(predicate)
        self._cache: dict[NodeIndex, SampleEstimate] = {}
        # One bit generator shared by all nodes; each draw rekeys it with
        # the node's stream key and a zeroed counter, which reproduces the
        # stream of a freshly constructed instance without paying the
        # construction cost on every node.
        self._bits = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._bits)
        # The predicate answer at a unit-cell center is a session constant
        # (predicates are pure), so it is remembered per cell, in blocks.
        self._blocks: dict[tuple[int, ...], bytearray] = {}
        self._block_ranks = _layout(dim, self.exact_cutoff)[2]

    def __len__(self) -> int:
        return len(self._cache)

    def _block(self, key: tuple[int, ...]) -> bytearray:
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = bytearray(1 << self.dim * self.exact_cutoff)
        return block

    def _hits_at(self, cells: np.ndarray) -> int:
        """Obstacle count over the rows of an (n, dim) array of cells.

        Repeated cells are counted per row.  The distinct cells not yet
        asked go to the predicate in the order of their first rows, as
        one batch, so each costs one oracle point, ever.
        """
        dim, b = self.dim, self.exact_cutoff
        size = 1 << dim * b
        _, ranks, _ = _layout(dim, b)
        # Row-major index of each cell inside its block, then its rank.
        rank = ranks[(cells & (1 << b) - 1) @ (1 << b * np.arange(dim - 1, -1, -1))]
        # Group the rows by block, numbering the distinct block coordinates
        # (no flat block id, which could overflow).
        tops, inv = np.unique(cells >> b, axis=0, return_inverse=True)
        inv = inv.ravel()
        keys = (tops << b + 1 | 1 << b).tolist()
        blocks = [self._block(tuple(key)) for key in keys]
        joined = bytearray().join(blocks)
        window = np.frombuffer(joined, dtype=np.uint8)
        at = inv * size + rank
        _, first = np.unique(at, return_index=True)
        first.sort()
        ask = first[window[at[first]] == 0]
        if ask.size:
            flags = np.asarray(self._batch(cells[ask] + 0.5), dtype=bool)
            window[at[ask]] = 1 + flags
            for i, block in enumerate(blocks):
                block[:] = joined[i * size : (i + 1) * size]
        return int(np.count_nonzero(window[at] == 2))

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
        """The node's occupancy: sampled, or enumerated at or below exact_cutoff."""
        got = self._cache.get(idx)
        if got is not None:
            return got
        k, c2 = idx
        if k <= self.exact_cutoff:
            return self.exact(idx)
        n = self.samples
        rng = self._node_rng(idx)
        side = 1 << k
        low = np.array([(c - side) >> 1 for c in c2], dtype=np.int64)
        if self.cell_picks:
            hits = self._hits_at(low + rng.integers(0, side, size=(n, self.dim)))
        else:
            points = low + rng.random((n, self.dim)) * side
            hits = int(np.count_nonzero(self._batch(points)))
        est = SampleEstimate(n, hits)
        self._cache[idx] = est
        return est

    def exact(self, idx: NodeIndex) -> SampleEstimate:
        """Exact occupancy by enumerating every unit cell of the node.

        Only a node at or below exact_cutoff is enumerated; a coarser one
        raises ValueError.
        """
        k, c2 = idx
        dim, b = self.dim, self.exact_cutoff
        if k > b:
            raise ValueError(f"scale {k} lies above the enumeration cutoff {b}")
        got = self._cache.get(idx)
        if got is not None:
            return got
        # The enclosing block's center2, and the row-major index in it of
        # the cell at the node's center: that cell's Morton rank is the
        # node's run start in every bit above the low dim * k.
        key = []
        row = 0
        for c in c2:
            key.append(c >> b + 1 << b + 1 | 1 << b)
            row = row << b | (c >> 1 & (1 << b) - 1)
        key = tuple(key)
        block = self._blocks.get(key) or self._block(key)
        n = 1 << dim * k
        start = self._block_ranks[row] >> dim * k << dim * k
        end = start + n
        if block.count(0, start, end):
            centers, ranks, _ = _layout(dim, k)
            run = np.frombuffer(block, dtype=np.uint8, count=n, offset=start)
            ask = run[ranks] == 0
            flags = self._batch(centers[ask] + [(c - (1 << k)) >> 1 for c in c2])
            run[ranks[ask]] = 1 + np.asarray(flags, dtype=bool)
        hits = block.count(2, start, end)
        est = SampleEstimate(n, hits)
        self._cache[idx] = est
        return est

    def classify(
        self, idx: NodeIndex, eps: float, gamma: float
    ) -> tuple[bool, SampleEstimate]:
        """Hybrid obstacle test: exact at or below the enumeration cutoff.

        Returns (is_obstacle, estimate).  At or below the enumeration
        cutoff the estimate is exact, and the node is an obstacle exactly
        when every cell of it is occupied; eps and gamma play no part.
        Above it the estimate is sampled and held to the scale-weighted
        threshold plus gamma (is_flagged_obstacle).
        """
        k = idx[0]
        if k <= self.exact_cutoff:
            # exact itself, not estimate's detour to it: one call a node.
            est = self.exact(idx)
            return est.hits == est.n, est
        est = self.estimate(idx)
        return is_flagged_obstacle(est.value, k, self.dim, eps, gamma), est
