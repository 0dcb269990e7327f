"""Test oracles: reference kernels the production paths are pinned to.

The streaming q-digest's per-depth range-sum kernel is the one its
level-fused interval table scan (``IntervalTable.scan_bounds``)
replaced.  The batch q-digest's flat leaf-table kernel is the second
formulation of its 1-D sorted-leaf path (``_query_boxes_1d``).  Both
live here as functions of the digest's public ``to_state()``, so they
read no private fields, and the tests compare ``query_many`` with them
bitwise.

The samplers' scalar walks -- the paper's algorithms as written, one
pair aggregation or one tree node at a time -- live here too:
random-order pair aggregation (Algorithm 1) for ``varopt`` and the
merge/downsample re-aggregation, the item-at-a-time reservoir as its
heap walk (``HeapVarOpt``, which ``StreamVarOpt`` ran before it folded
whole batches), the order, disjoint, hierarchy and kd-product
pair-selection rules, KD-HIERARCHY as a per-node recursion (Algorithm
2), and the two-pass pipeline with the per-item IO-AGGREGATE
(Algorithm 3).  They take the
same public inputs as the production samplers, whose vectorized
kernels realize the same distributions with a different RNG
consumption order.  ``tests/test_kernel_equivalence.py`` and
``tests/test_twopass.py`` compare the two statistically;
``tests/test_kd.py`` and ``tests/test_tree_build_oracles.py`` pin the
array-native kd build to the recursion node for node.

The batch q-digest's greedy build lives here as its heap walk over the
Morton trie, one pop and one split at a time (``qdigest_leaves``);
``tests/test_tree_build_oracles.py`` compares the radix-tree selection's
leaves with it bitwise.  The streaming q-digest's build lives here as
its dict walk, one item and one node at a time (``DictQDigest``);
``tests/test_qdigest_stream.py`` compares the array build's nodes,
counts and scalars with it bitwise.
"""

import bisect
import heapq
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.aware.kd import KDNode
from repro.core.aggregation import (
    SET_EPS,
    aggregate_pool,
    finalize_leftover,
    included_indices,
    is_set,
    pair_aggregate_values,
)
from repro.core.estimator import SampleSummary
from repro.core.ipps import (
    StreamingThreshold,
    ipps_probabilities,
    ipps_threshold,
)
from repro.structures.morton import MortonLayout
from repro.structures.order import OrderedDomain
from repro.structures.ranges import compile_query_plan
from repro.summaries.base import IncrementalSummary, coerce_batch
from repro.twopass.partitions import (
    DisjointPartition,
    HierarchyAncestorPartition,
    OrderPartition,
)


def qdigest_stream_levels(state):
    """Per-depth sorted cell tables of a streaming q-digest state.

    Returns a list of ``(shift, cells, counts, prefix)`` tuples, one per
    materialized depth: ``cells`` are the sorted cell indices
    (``node - 2**depth``) at that depth, ``counts`` their weights in
    cell order, and ``prefix`` the exclusive running sum of ``counts``
    (so a contiguous cell run sums in O(1)).
    """
    nodes = np.asarray(state["nodes"], dtype=np.int64)
    counts = np.asarray(state["counts"], dtype=float)
    # Depth of heap node v is floor(log2 v): an exact integer binary
    # search on the bit length (no float log).
    remaining = nodes.copy()
    depths = np.zeros(nodes.shape[0], dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = remaining >= np.int64(1) << shift
        depths[big] += shift
        remaining[big] >>= shift
    tables = []
    for depth in np.unique(depths):
        rows = np.flatnonzero(depths == depth)
        cells = nodes[rows] - (np.int64(1) << depth)
        order = np.argsort(cells)
        cell_counts = counts[rows][order]
        prefix = np.concatenate(([0.0], np.cumsum(cell_counts)))
        tables.append(
            (int(state["bits"]) - int(depth), cells[order], cell_counts,
             prefix)
        )
    return tables


def qdigest_stream_query_many(state, queries) -> np.ndarray:
    """Per-depth range sums of a battery against a q-digest state.

    Per materialized depth a box resolves in O(log nodes): the run of
    cells fully inside the box is one prefix-sum difference between two
    ``searchsorted`` bounds, and only the two endpoint cells can
    straddle, each one more ``searchsorted`` probe contributing its
    overlapped span fraction.  Returns what ``query_many`` returns, as
    an array.
    """
    plan = compile_query_plan(queries)
    if len(plan) == 0:
        return np.zeros(0)
    bounds = plan.bounds
    lo = bounds[:, 0, 0]
    hi = bounds[:, 0, 1]
    per_box = np.zeros(bounds.shape[0], dtype=float)
    for shift, cells, cell_counts, prefix in qdigest_stream_levels(state):
        span = np.int64(1) << np.int64(shift)
        # Cells fully inside [lo, hi]: the contiguous run [a, b].
        a = (lo + span - 1) >> shift
        b = ((hi + 1) >> shift) - 1
        lo_idx = np.searchsorted(cells, a, side="left")
        hi_idx = np.searchsorted(cells, b, side="right")
        per_box += prefix[np.maximum(hi_idx, lo_idx)] - prefix[lo_idx]
        # Endpoint cells outside [a, b] straddle a box edge and
        # contribute fractionally; the right endpoint is skipped
        # when it shares the left one's cell.
        c_lo = lo >> shift
        c_hi = hi >> shift
        for cand, partial in (
            (c_lo, (c_lo < a) | (c_lo > b)),
            (c_hi, ((c_hi < a) | (c_hi > b)) & (c_hi != c_lo)),
        ):
            pos = np.searchsorted(cells, cand)
            pos_c = np.minimum(pos, cells.size - 1)
            idx = np.flatnonzero((cells[pos_c] == cand) & partial)
            if idx.size == 0:
                continue
            n_lo = cand[idx] * span
            n_hi = n_lo + span - 1
            overlap = (
                np.minimum(hi[idx], n_hi) - np.maximum(lo[idx], n_lo) + 1
            )
            per_box[idx] += (
                cell_counts[pos_c[idx]] * overlap / float(span)
            )
    return plan.reduce_boxes(per_box)


def qdigest_1d_leaf_query_many(state, queries) -> np.ndarray:
    """Prefix-sum range sums of a battery over a 1-D batch q-digest's
    disjoint leaves, as a flat leaf table.

    Leaves sorted by low endpoint make fully-contained leaves one
    prefix-sum run; only the two leaves holding the query endpoints can
    be boundary leaves, handled per the state's partial mode
    (``"half"`` / ``"uniform"`` / ``"lower"``).  Returns what
    ``query_many`` returns, as an array.
    """
    lows = np.asarray(state["box_lows"], dtype=np.int64)[:, 0]
    highs = np.asarray(state["box_highs"], dtype=np.int64)[:, 0]
    order = np.argsort(lows, kind="stable")
    los = lows[order].astype(float)
    his = highs[order].astype(float)
    if los.size > 1 and not bool((his[:-1] < los[1:]).all()):
        raise ValueError("the leaf table needs disjoint 1-D leaves")
    weights = np.asarray(state["weights"], dtype=float)[order]
    volumes = his - los + 1.0
    prefix = np.concatenate(([0.0], np.cumsum(weights)))
    mode = state["partial"]
    plan = compile_query_plan(queries)
    if len(plan) == 0:
        return np.zeros(0)
    bounds = plan.bounds
    q_lo = bounds[:, 0, 0]
    q_hi = bounds[:, 0, 1]
    first = np.searchsorted(los, q_lo, side="left")
    last = np.searchsorted(his, q_hi, side="right")
    per_box = np.where(last > first, prefix[last] - prefix[first], 0.0)
    if mode == "lower":
        return plan.reduce_boxes(per_box)
    left = np.searchsorted(los, q_lo, side="right") - 1
    right = np.searchsorted(los, q_hi, side="right") - 1
    for cand, endpoint, extra in (
        (left, q_lo, None),
        (right, q_hi, right != left),
    ):
        clamped = np.maximum(cand, 0)
        boundary = (
            (cand >= 0)
            & (his[clamped] >= endpoint)
            & ~((los[clamped] >= q_lo) & (his[clamped] <= q_hi))
        )
        if extra is not None:
            boundary &= extra
        rows = np.flatnonzero(boundary)
        if rows.size == 0:
            continue
        leaf = clamped[rows]
        if mode == "half":
            per_box[rows] += 0.5 * weights[leaf]
        else:  # uniform
            overlap = (
                np.minimum(his[leaf], q_hi[rows])
                - np.maximum(los[leaf], q_lo[rows])
                + 1.0
            )
            per_box[rows] += overlap / volumes[leaf] * weights[leaf]
    return plan.reduce_boxes(per_box)


def same_bits(got, expect) -> bool:
    """Whether two float sequences hold the very same IEEE doubles."""
    got = np.asarray(got, dtype=float)
    expect = np.asarray(expect, dtype=float)
    return got.shape == expect.shape and bool(
        (got.view(np.int64) == expect.view(np.int64)).all()
    )


# ----------------------------------------------------------------------
# Streaming q-digest: the paper's item-at-a-time dict walk
# ----------------------------------------------------------------------
class DictQDigest:
    """The streaming q-digest as written: a dict of heap node counts.

    Items are inserted one at a time; every ``compress_every`` inserts
    a compression scans the whole dict once per depth, bottom up, and
    merges each light (node, sibling) pair into the parent.
    ``StreamingQDigest`` must reproduce its nodes, counts, ``total``,
    ``since_compress`` and ``inserts`` bit for bit.
    """

    def __init__(self, bits: int, k: int, compress_every: int = 1024):
        self.bits = bits
        self.k = k
        self.compress_every = max(1, int(compress_every))
        self.counts: Dict[int, float] = {}
        self.total = 0.0
        self.since_compress = 0
        self.inserts = 0

    def insert(self, key: int, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError("weights must be non-negative")
        if weight == 0:
            return
        if not 0 <= key < (1 << self.bits):
            raise ValueError("key outside domain")
        leaf = (1 << self.bits) + int(key)
        self.counts[leaf] = self.counts.get(leaf, 0.0) + weight
        self.total += weight
        self.since_compress += 1
        self.inserts += 1
        if self.since_compress >= self.compress_every:
            self.compress()

    def update(self, keys, weights) -> None:
        for key, weight in zip(keys, weights):
            self.insert(int(key), float(weight))

    def compress(self) -> None:
        self.since_compress = 0
        if self.total == 0:
            return
        threshold = self.total / self.k
        for depth in range(self.bits, 0, -1):
            level_nodes = [
                node for node in list(self.counts)
                if node.bit_length() - 1 == depth
            ]
            for node in level_nodes:
                if node not in self.counts:
                    continue
                sibling = node ^ 1
                parent = node >> 1
                triple = (
                    self.counts.get(node, 0.0)
                    + self.counts.get(sibling, 0.0)
                    + self.counts.get(parent, 0.0)
                )
                if triple < threshold:
                    merged = self.counts.pop(node, 0.0) + self.counts.pop(
                        sibling, 0.0
                    )
                    if merged:
                        self.counts[parent] = (
                            self.counts.get(parent, 0.0) + merged
                        )

    def snapshot(self) -> "DictQDigest":
        clone = DictQDigest(self.bits, self.k, self.compress_every)
        clone.counts = dict(self.counts)
        clone.total = self.total
        clone.inserts = self.inserts
        clone.compress()
        return clone

    def merge(self, other: "DictQDigest") -> "DictQDigest":
        merged = DictQDigest(
            self.bits,
            max(self.k, other.k),
            min(self.compress_every, other.compress_every),
        )
        merged.counts = dict(self.counts)
        for node, count in other.counts.items():
            merged.counts[node] = merged.counts.get(node, 0.0) + count
        merged.total = self.total + other.total
        merged.compress()
        return merged

    def state(self) -> dict:
        """The ``to_state()`` fields, nodes sorted by id."""
        nodes = sorted(self.counts)
        return {
            "bits": self.bits,
            "k": self.k,
            "compress_every": self.compress_every,
            "nodes": np.asarray(nodes, dtype=np.int64).reshape(-1),
            "counts": np.asarray([self.counts[v] for v in nodes],
                                 dtype=float).reshape(-1),
            "total": self.total,
            "since_compress": self.since_compress,
            "inserts": self.inserts,
        }


def same_qdigest_state(state, expect) -> bool:
    """Whether a ``to_state()`` holds ``DictQDigest.state()`` bitwise."""
    return (
        np.array_equal(np.asarray(state["nodes"], dtype=np.int64),
                       expect["nodes"])
        and same_bits(state["counts"], expect["counts"])
        and same_bits([state["total"]], [expect["total"]])
        and all(state[key] == expect[key] for key in (
            "bits", "k", "compress_every", "since_compress", "inserts"))
    )


# ----------------------------------------------------------------------
# Offline VarOpt: random-order pair aggregation (Algorithm 1)
# ----------------------------------------------------------------------
def varopt_sample(
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
    order: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Scalar ``repro.core.varopt.varopt_sample``: one pair at a time."""
    w = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(w, s)
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    if order is None:
        order = rng.permutation(fractional.size)
    pool = fractional[order]
    leftover = aggregate_pool(p, pool.tolist(), rng)
    finalize_leftover(p, leftover, rng)
    return included_indices(p), tau


def varopt_summary(dataset, s: float, rng: np.random.Generator):
    """Scalar ``repro.core.varopt.varopt_summary``."""
    included, tau = varopt_sample(dataset.weights, s, rng)
    return SampleSummary(
        coords=dataset.coords[included],
        weights=dataset.weights[included],
        tau=tau,
    )


# ----------------------------------------------------------------------
# One-pass VarOpt reservoir: the per-item heap walk
# ----------------------------------------------------------------------
class HeapVarOpt(IncrementalSummary):
    """The heap-walk VarOpt_s reservoir, one item at a time.

    The reservoir ``repro.core.varopt.StreamVarOpt`` ran before it
    folded whole batches in one threshold and one aggregation chain,
    kept here unchanged as the item-at-a-time oracle.

    Feed items with :meth:`feed`; read the sample at any time with
    :meth:`summary`.  The realized sample size is exactly
    ``min(s, #positive items fed)``.  :meth:`update` runs a vectorized
    pass over each run of light items and feeds the rest one by one;
    :meth:`to_state` writes the frame layout older checkpoint stores
    hold (``heavy``/``light`` lists and a tie ``counter``).

    Implementation notes
    --------------------
    Light items all behave as if they weigh the current threshold
    ``tau``, so eviction only needs the light *count* and a uniform
    choice among lights; heavy items keep exact weights in a min-heap
    and migrate to the light region as ``tau`` rises past them.
    """

    #: Items per vectorized-prefix scan in :meth:`update`.
    _BULK_CHUNK = 1024

    def __init__(self, s: int, rng=None):
        if s < 1:
            raise ValueError("sample size must be >= 1")
        self._s = int(s)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._rng = rng
        self._tau = 0.0
        self._counter = 0  # tiebreaker for the heap
        # Heap entries: (weight, counter, key, weight) -- key is any payload.
        self._heavy: List[Tuple[float, int, tuple, float]] = []
        # Light entries: (key, original_weight); adjusted weight is tau.
        self._light: List[Tuple[tuple, float]] = []
        self._items_seen = 0

    @property
    def s(self) -> int:
        """Target sample size."""
        return self._s

    @property
    def tau(self) -> float:
        """Current threshold (equals offline tau_s of the prefix)."""
        return self._tau

    @property
    def current_size(self) -> int:
        """Number of items currently in the reservoir."""
        return len(self._heavy) + len(self._light)

    def feed(self, key, weight: float) -> None:
        """Process one stream item."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        if weight == 0:
            return
        self._items_seen += 1
        self._push_heavy(key, float(weight))
        if self.current_size <= self._s:
            return
        self._evict_one()

    def feed_many(self, keys: Sequence, weights: Sequence[float]) -> None:
        """Process a batch of items in order."""
        for key, weight in zip(keys, weights):
            self.feed(key, float(weight))

    # ------------------------------------------------------------------
    # Incremental summary protocol
    # ------------------------------------------------------------------
    def update(self, keys, weights) -> None:
        """Feed one micro-batch (an ``(n, d)`` array or key tuples).

        Vectorized bulk path: once the reservoir is full, a run of
        items that are each *light* at their turn (weight at or below
        the running threshold) and leave the heavy heap untouched is
        processed in one NumPy pass -- the per-item heap work
        disappears and only the (rare) accepted items pay Python-level
        cost.  The bulk pass realizes exactly the same per-item
        accept/evict distribution as :meth:`feed` (see
        :meth:`_bulk_light_prefix`), so streamed samples remain VarOpt
        samples; items that do not qualify fall back to :meth:`feed`
        one at a time.
        """
        coords, weights = coerce_batch(keys, weights)
        if weights.size and float(weights.min()) < 0:
            raise ValueError("weights must be non-negative")
        positive = weights > 0
        if not positive.all():
            coords = coords[positive]
            weights = weights[positive]
        n = weights.shape[0]
        pos = 0
        while pos < n:
            if self.current_size < self._s or not self._light:
                self.feed(tuple(coords[pos].tolist()), float(weights[pos]))
                pos += 1
                continue
            # Scan a bounded chunk: a disqualifying item would otherwise
            # make every retry re-cumsum the whole remaining batch.
            m, taus_before, taus_after = self._bulk_light_prefix(
                weights[pos:pos + self._BULK_CHUNK]
            )
            if m == 0:
                self.feed(tuple(coords[pos].tolist()), float(weights[pos]))
                pos += 1
                continue
            self._bulk_light_feed(
                coords[pos:pos + m],
                weights[pos:pos + m],
                taus_before[:m],
                taus_after[:m],
            )
            pos += m

    def _bulk_light_prefix(self, weights: np.ndarray):
        """Longest prefix the vectorized light path may absorb.

        With the reservoir full and ``c = len(light) >= 1``, feeding an
        item of weight ``w <= tau`` runs :meth:`_evict_one` with a pool
        of exactly the ``c`` light items plus the new item whenever the
        heavy-heap minimum exceeds the new threshold
        ``tau' = tau + w/c``: the new item is the heap minimum, is
        popped unconditionally (``w <= tau < c*tau/(c-1)``), and the
        pop loop stops right after.  Both conditions are checked here
        against the *running* threshold (``tau`` grows by ``w_i/c`` per
        item while the light count stays ``c`` in every branch), so
        every item in the returned prefix takes that exact code path.
        """
        c = len(self._light)
        cum = np.cumsum(weights)
        taus_after = self._tau + cum / c
        taus_before = taus_after - weights / c
        ok = weights <= taus_before
        if self._heavy:
            ok &= taus_after < self._heavy[0][0]
        bad = np.flatnonzero(~ok)
        m = int(bad[0]) if bad.size else weights.shape[0]
        return m, taus_before, taus_after

    def _bulk_light_feed(
        self,
        coords: np.ndarray,
        weights: np.ndarray,
        taus_before: np.ndarray,
        taus_after: np.ndarray,
    ) -> None:
        """Absorb a qualifying run of light items in one pass.

        Per item, :meth:`_evict_one` restricted to the lights-plus-new
        pool drops the new item with probability ``1 - w/tau'`` and
        otherwise replaces a uniformly chosen light item -- the light
        count never changes.  Drawing all the accept coins and victim
        indices at once therefore realizes the identical distribution
        without touching the heap.
        """
        m = weights.shape[0]
        c = len(self._light)
        accept = self._rng.random(m) < c * (1.0 - taus_before / taus_after)
        self._items_seen += m
        self._tau = float(taus_after[-1])
        accepted = np.flatnonzero(accept)
        if accepted.size:
            victims = self._rng.integers(0, c, size=accepted.size)
            for index, victim in zip(accepted.tolist(), victims.tolist()):
                self._light[victim] = (
                    tuple(coords[index].tolist()),
                    float(weights[index]),
                )

    def snapshot(self) -> SampleSummary:
        """Freeze the reservoir into a :class:`SampleSummary`."""
        return self.summary()

    @property
    def version(self) -> int:
        """Counter identifying the ingested state (items seen)."""
        return self._items_seen

    @property
    def items_seen(self) -> int:
        """Number of positive-weight items fed so far."""
        return self._items_seen

    def _push_heavy(self, key, weight: float) -> None:
        self._counter += 1
        heapq.heappush(self._heavy, (weight, self._counter, key, weight))

    def _evict_one(self) -> None:
        # Build the candidate pool: all light items plus heavy items that
        # fall at or below the new threshold, found by popping the heap.
        pool_count = len(self._light)
        pool_sum = pool_count * self._tau
        popped: List[Tuple[float, int, tuple, float]] = []
        tau_new = None
        while True:
            if pool_count >= 2:
                candidate = pool_sum / (pool_count - 1)
                if not self._heavy or self._heavy[0][0] > candidate:
                    tau_new = candidate
                    break
            entry = heapq.heappop(self._heavy)
            popped.append(entry)
            pool_sum += entry[0]
            pool_count += 1
        # Choose the victim: each pool item is dropped with probability
        # 1 - (its weight) / tau_new; the probabilities sum to one.
        u = float(self._rng.random()) * 1.0
        light_mass = len(self._light) * (1.0 - self._tau / tau_new)
        if u < light_mass and self._light:
            victim = self._rng.integers(len(self._light))
            self._light[victim] = self._light[-1]
            self._light.pop()
        else:
            u -= light_mass
            victim_idx = None
            for idx, (w, _c, _k, _w0) in enumerate(popped):
                drop_p = 1.0 - w / tau_new
                if u < drop_p:
                    victim_idx = idx
                    break
                u -= drop_p
            if victim_idx is None:
                # Numerical slack: drop the last popped candidate.
                victim_idx = len(popped) - 1
            popped.pop(victim_idx)
        # Survivors of the pool join the light region at the new threshold.
        for _w, _c, key, w0 in popped:
            self._light.append((key, w0))
        self._tau = tau_new

    def sample_items(self) -> List[Tuple[tuple, float]]:
        """Current reservoir as ``(key, original_weight)`` pairs."""
        items = [(key, w0) for _w, _c, key, w0 in self._heavy]
        items.extend(self._light)
        return items

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The live reservoir's full state as codec-friendly primitives.

        Includes the generator state, so a worker can be migrated
        mid-stream: the reconstructed sampler continues the stream with
        exactly the eviction decisions the original would have made.
        """
        return {
            "s": self._s,
            "tau": self._tau,
            "counter": self._counter,
            "items_seen": self._items_seen,
            "heavy": [
                (w, c, tuple(key), w0) for w, c, key, w0 in self._heavy
            ],
            "light": [(tuple(key), w0) for key, w0 in self._light],
            "rng": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "HeapVarOpt":
        """Rebuild a live reservoir from :meth:`to_state` output."""
        sampler = cls(state["s"])
        # Honor whatever bit generator the original sampler ran on --
        # the state dict names it (PCG64, MT19937, Philox, ...).
        bit_generator = getattr(
            np.random, str(state["rng"]["bit_generator"])
        )()
        bit_generator.state = state["rng"]
        sampler._rng = np.random.Generator(bit_generator)
        sampler._tau = float(state["tau"])
        sampler._counter = int(state["counter"])
        sampler._items_seen = int(state["items_seen"])
        sampler._heavy = [
            (float(w), int(c), tuple(key), float(w0))
            for w, c, key, w0 in state["heavy"]
        ]
        sampler._light = [
            (tuple(key), float(w0)) for key, w0 in state["light"]
        ]
        return sampler

    def summary(self) -> SampleSummary:
        """The current reservoir as a :class:`SampleSummary`."""
        items = self.sample_items()
        if not items:
            return SampleSummary(
                coords=np.empty((0, 1), dtype=np.int64),
                weights=np.empty(0),
                tau=self._tau,
            )
        coords = np.asarray([key for key, _w in items], dtype=np.int64)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        weights = np.asarray([w for _k, w in items], dtype=float)
        return SampleSummary(coords=coords, weights=weights, tau=self._tau)


def stream_varopt_summary(dataset, s: int, rng: np.random.Generator):
    """``stream_varopt_summary`` fed one item at a time.

    :class:`HeapVarOpt`'s per-item ``feed`` (no vectorized light-run
    prefix), so every accept/evict decision draws its own uniforms.
    """
    sampler = HeapVarOpt(s, rng)
    for key, weight in dataset.iter_items():
        sampler.feed(key, weight)
    return sampler.summary()


def reaggregate(
    coords: np.ndarray,
    adjusted: np.ndarray,
    tau_floor: float,
    s: int,
    rng: Optional[np.random.Generator],
) -> SampleSummary:
    """Scalar second-stage IPPS/VarOpt over adjusted weights.

    The re-aggregation behind ``SampleSummary.merge`` and
    ``downsample``: inclusion probability ``min(1, a_i / tau*)`` with
    ``tau* = max(tau_floor, tau_s(a))``, realized by random-order pair
    aggregation.
    """
    if s < 1:
        raise ValueError("target sample size must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    tau_star = max(tau_floor, ipps_threshold(adjusted, s))
    if tau_star == 0.0:
        return SampleSummary(coords=coords, weights=adjusted, tau=0.0)
    p = np.minimum(1.0, adjusted / tau_star)
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    pool = fractional[rng.permutation(fractional.size)]
    leftover = aggregate_pool(p, pool.tolist(), rng)
    finalize_leftover(p, leftover, rng)
    included = included_indices(p)
    return SampleSummary(
        coords=coords[included],
        weights=adjusted[included],
        tau=tau_star,
    )


def downsample(
    summary: SampleSummary,
    s: int,
    rng: Optional[np.random.Generator] = None,
) -> SampleSummary:
    """Scalar ``SampleSummary.downsample``."""
    if summary.size <= s:
        return SampleSummary(
            coords=summary.coords.copy(),
            weights=summary.weights.copy(),
            tau=summary.tau,
        )
    return reaggregate(
        summary.coords, summary.adjusted_weights, summary.tau, s, rng
    )


def merge(
    a: SampleSummary,
    b: SampleSummary,
    s: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> SampleSummary:
    """Scalar ``SampleSummary.merge`` of two disjoint-shard samples."""
    if b.size == 0 or a.size == 0:
        base = a if b.size == 0 else b
        if s is None or base.size <= s:
            return SampleSummary(
                coords=base.coords.copy(),
                weights=base.weights.copy(),
                tau=base.tau,
            )
        return downsample(base, s, rng)
    if s is None:
        s = max(a.size, b.size)
    coords = np.concatenate((a.coords, b.coords), axis=0)
    adjusted = np.concatenate((a.adjusted_weights, b.adjusted_weights))
    return reaggregate(coords, adjusted, max(a.tau, b.tau), s, rng)


# ----------------------------------------------------------------------
# Structure-aware pair selection (Sections 3-4)
# ----------------------------------------------------------------------
def order_aware_sample(
    keys: np.ndarray,
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Scalar OSSUMMARIZE (Algorithm 5): one chain along the key order."""
    keys = np.asarray(keys)
    weights = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    order = np.argsort(keys, kind="stable")
    fractional = [int(i) for i in order if 0.0 < p[i] < 1.0]
    leftover = aggregate_pool(p, fractional, rng)
    finalize_leftover(p, leftover, rng)
    return included_indices(p), tau, p_initial


def disjoint_aware_sample(
    labels: np.ndarray,
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Scalar disjoint-range rule: one pool per range, then leftovers."""
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    leftovers = []
    if fractional.size:
        order = np.argsort(labels[fractional], kind="stable")
        idx_sorted = fractional[order]
        lbl_sorted = labels[idx_sorted]
        boundaries = np.flatnonzero(np.diff(lbl_sorted)) + 1
        starts = np.concatenate(([0], boundaries, [idx_sorted.size]))
        for lo, hi in zip(starts[:-1], starts[1:]):
            leftover = aggregate_pool(p, idx_sorted[lo:hi].tolist(), rng)
            if leftover is not None:
                leftovers.append(leftover)
    final = aggregate_pool(p, leftovers, rng)
    finalize_leftover(p, final, rng)
    return included_indices(p), tau, p_initial


def aggregate_group(
    p: np.ndarray,
    indices: np.ndarray,
    keys_sorted: np.ndarray,
    hierarchy,
    depth: int,
    rng: np.random.Generator,
) -> Optional[int]:
    """Lowest-LCA-first aggregation of one induced subtree, recursively.

    ``indices`` are positions into ``p`` whose keys ``keys_sorted`` are
    sorted ascending and share one node at ``depth``; children resolve
    first and the node pair-aggregates their leftovers.  Each call
    recurses one level deeper, so the nesting is at most
    ``hierarchy.depth + 1`` frames.
    """
    if indices.size == 0:
        return None
    if indices.size == 1:
        idx = int(indices[0])
        return None if is_set(float(p[idx])) else idx
    # Contract unary chains: descend to the group's true LCA depth.
    lca = hierarchy.lca_depth(int(keys_sorted[0]), int(keys_sorted[-1]))
    depth = max(depth, lca)
    if depth >= hierarchy.depth:
        # All keys identical (duplicate leaves): aggregate arbitrarily.
        return aggregate_pool(p, indices.tolist(), rng)
    # Split into children at depth+1 (the group is sorted by key, so
    # children are contiguous runs of equal node ids).
    child_ids = hierarchy.node_of(keys_sorted, depth + 1)
    boundaries = np.flatnonzero(np.diff(child_ids)) + 1
    starts = np.concatenate(([0], boundaries, [indices.size]))
    leftovers = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        leftover = aggregate_group(
            p, indices[lo:hi], keys_sorted[lo:hi], hierarchy, depth + 1, rng
        )
        if leftover is not None:
            leftovers.append(leftover)
    return aggregate_pool(p, leftovers, rng)


def hierarchy_aware_sample(
    keys: np.ndarray,
    weights: np.ndarray,
    s: float,
    hierarchy,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Scalar hierarchy rule: :func:`aggregate_group` from the root."""
    keys = np.asarray(keys)
    weights = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    if fractional.size:
        order = np.argsort(keys[fractional], kind="stable")
        idx_sorted = fractional[order]
        leftover = aggregate_group(
            p, idx_sorted, keys[idx_sorted], hierarchy, 0, rng
        )
        finalize_leftover(p, leftover, rng)
    return included_indices(p), tau, p_initial


# ----------------------------------------------------------------------
# KD-HIERARCHY (Algorithm 2) as a per-node recursion
# ----------------------------------------------------------------------
def _weighted_median_split(values: np.ndarray, masses: np.ndarray):
    """Best split value on one axis, or ``None`` if the axis is constant.

    Returns ``(split_value, imbalance)``: left = ``value <=
    split_value`` and right are both non-empty, and the absolute
    difference of their masses is minimal (Algorithm 2 line 9).  Sorts
    the node's points itself; the float ops are the same sequence the
    production builder runs on its presorted orders.
    """
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    sorted_mass = masses[order]
    if sorted_vals[0] == sorted_vals[-1]:
        return None
    # Candidate cuts lie between runs of distinct values.
    change = np.flatnonzero(np.diff(sorted_vals)) + 1
    cums = np.cumsum(sorted_mass)
    total = cums[-1]
    left_masses = cums[change - 1]
    imbalance = np.abs(total - 2.0 * left_masses)
    best = int(np.argmin(imbalance))
    split_value = int(sorted_vals[change[best] - 1])
    return split_value, float(imbalance[best])


def _midpoint_split(values: np.ndarray, box_side: Tuple[int, int]):
    """Dyadic midpoint split of the cell's box side (ablation rule)."""
    lo, hi = box_side
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    has_left = bool((values <= mid).any())
    has_right = bool((values > mid).any())
    if not (has_left and has_right):
        return None
    return mid


def _choose_split(coords, masses, indices, depth, dims, box, split_rule):
    """Pick the split axis/value, cycling axes from ``depth % dims``."""
    for offset in range(dims):
        axis = (depth + offset) % dims
        values = coords[indices, axis]
        if split_rule == "midpoint":
            mid = _midpoint_split(values, box.side(axis))
            if mid is not None:
                return axis, mid
            continue
        result = _weighted_median_split(values, masses[indices])
        if result is not None:
            return axis, result[0]
    return None


def build_kd_hierarchy(
    coords: np.ndarray,
    masses: np.ndarray,
    domain=None,
    leaf_mass: float = 1.0,
    split_rule: str = "median",
) -> KDNode:
    """KD-HIERARCHY by explicit-stack recursion, one argsort per try.

    Same parameters and tree as ``repro.aware.kd.build_kd_hierarchy``:
    nodes pop from a stack (right child first), so leaves get their
    ``cell_id`` in that pop order.
    """
    coords = np.atleast_2d(np.asarray(coords))
    masses = np.asarray(masses, dtype=float)
    dims = coords.shape[1]
    root_box = domain.full_box() if domain is not None else None
    root = KDNode(mass=float(masses.sum()), box=root_box)
    next_cell_id = 0
    stack: List[Tuple[KDNode, np.ndarray, int]] = [
        (root, np.arange(coords.shape[0]), 0)
    ]
    while stack:
        node, indices, depth = stack.pop()
        node.mass = float(masses[indices].sum())
        if node.mass <= leaf_mass or indices.size <= 1:
            node.indices = indices
            node.cell_id = next_cell_id
            next_cell_id += 1
            continue
        split = _choose_split(
            coords, masses, indices, depth, dims, node.box, split_rule
        )
        if split is None:
            # Every axis is constant on this cell: duplicate points.
            node.indices = indices
            node.cell_id = next_cell_id
            next_cell_id += 1
            continue
        axis, split_value = split
        node.axis = axis
        node.split_value = split_value
        left_mask = coords[indices, axis] <= split_value
        left_idx = indices[left_mask]
        right_idx = indices[~left_mask]
        left_box = right_box = None
        if node.box is not None:
            lo, hi = node.box.side(axis)
            if lo <= split_value < hi:
                left_box, right_box = node.box.split(axis, split_value)
            else:  # degenerate box side; children inherit the box
                left_box = right_box = node.box
        node.left = KDNode(mass=0.0, box=left_box)
        node.right = KDNode(mass=0.0, box=right_box)
        stack.append((node.left, left_idx, depth + 1))
        stack.append((node.right, right_idx, depth + 1))
    return root


def fold_kd_leftovers(
    root: KDNode,
    leaf_leftover: Callable[[KDNode], Optional[int]],
    p: np.ndarray,
    rng: np.random.Generator,
) -> Optional[int]:
    """Post-order leftover aggregation over a kd-tree.

    Every leaf is resolved by ``leaf_leftover(leaf)`` at visit time, so
    leaf pools consume the generator in walk order, and every internal
    node pair-aggregates its children's surviving leftovers.
    """
    stack = [(root, False)]
    leftover_of = {}
    while stack:
        current, visited = stack.pop()
        if current.is_leaf:
            leftover_of[id(current)] = leaf_leftover(current)
            continue
        if not visited:
            stack.append((current, True))
            stack.append((current.left, False))
            stack.append((current.right, False))
            continue
        pool = [
            leftover_of.pop(id(current.left), None),
            leftover_of.pop(id(current.right), None),
        ]
        pool = [
            idx for idx in pool if idx is not None and not is_set(float(p[idx]))
        ]
        leftover_of[id(current)] = aggregate_pool(p, pool, rng)
    return leftover_of.pop(id(root), None)


def aggregate_kd(
    node: KDNode,
    p: np.ndarray,
    index_map: np.ndarray,
    rng: np.random.Generator,
) -> Optional[int]:
    """Scalar bottom-up kd aggregation: leaf pools resolve in walk order.

    ``index_map`` translates the tree's local point indices to
    positions in ``p``.
    """
    def leaf_leftover(leaf: KDNode) -> Optional[int]:
        pool = [int(index_map[i]) for i in leaf.indices]
        return aggregate_pool(p, pool, rng)

    return fold_kd_leftovers(node, leaf_leftover, p, rng)


def product_aware_sample(
    coords: np.ndarray,
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
    domain=None,
    leaf_mass: float = 1.0,
    split_rule: str = "median",
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Scalar product rule: recursive kd build, then the per-node walk."""
    coords = np.atleast_2d(np.asarray(coords))
    weights = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    if fractional.size:
        tree = build_kd_hierarchy(
            coords[fractional],
            p[fractional],
            domain=domain,
            leaf_mass=leaf_mass,
            split_rule=split_rule,
        )
        leftover = aggregate_kd(tree, p, fractional, rng)
        finalize_leftover(p, leftover, rng)
    return included_indices(p), tau, p_initial


# ----------------------------------------------------------------------
# Batch q-digest: the greedy heavy-first split, one heap pop at a time
# ----------------------------------------------------------------------
def qdigest_leaves(dataset, s: int):
    """The batch q-digest's leaves as ``(lows, highs, weights)``.

    The greedy build as written, over the Morton trie: a max-heap pops
    the heaviest cell (ties: the shorter code prefix, then the earlier
    code) and splits it where its keys' codes part, until the node
    budget ``s`` is reached.  A cell is a run of the sorted distinct
    codes, boxed by their longest common prefix, and weighs the
    difference of two entries of one prefix sum over the code-sorted
    weights.  Leaves are the unsplit cells in Morton order; boxes come
    back as int64 ``(L, d)`` arrays.
    """
    layout = MortonLayout.for_domain(dataset.domain)
    bits = layout.bits
    if dataset.n == 0:
        lows, highs = layout.decode(np.zeros(1, dtype=np.uint64), 0)
        return lows, highs, np.zeros(1)
    codes = layout.encode(dataset.coords)
    order = np.argsort(codes, kind="stable")
    prefix = np.concatenate(([0.0], np.cumsum(dataset.weights[order])))
    keys, rows = [], []
    for row, code in enumerate(codes[order].tolist()):
        if not keys or keys[-1] != code:
            keys.append(code)
            rows.append(row)
    rows.append(dataset.n)

    def cell(a, b):
        weight = float(prefix[rows[b + 1]] - prefix[rows[a]])
        return (-weight, bits - (keys[a] ^ keys[b]).bit_length(), a, b)

    heap, done = [cell(0, len(keys) - 1)], []
    while heap and len(heap) + len(done) < s:
        entry = heapq.heappop(heap)
        _neg_w, common, a, b = entry
        if a == b:
            done.append(entry)
            continue
        low = bits - 1 - common  # the bit where the cell's codes part
        split = bisect.bisect_left(keys, keys[b] >> low << low, a, b) - 1
        heapq.heappush(heap, cell(a, split))
        heapq.heappush(heap, cell(split + 1, b))
    leaves = sorted(done + heap, key=lambda entry: entry[2])
    lows, highs = layout.decode(
        np.array([keys[entry[2]] for entry in leaves], dtype=np.uint64),
        np.array([entry[1] for entry in leaves]),
    )
    return lows, highs, np.array([-entry[0] for entry in leaves])


# ----------------------------------------------------------------------
# Two-pass pipeline (Section 5) with per-item IO-AGGREGATE (Algorithm 3)
# ----------------------------------------------------------------------
#: An in-flight record: (key tuple, original weight, current probability).
Record = Tuple[Tuple[int, ...], float, float]


class IOAggregator:
    """Streaming pair aggregation guided by a partition of the domain.

    Each incoming key either enters the sample directly (probability
    one), becomes its cell's active key, or pair-aggregates with the
    cell's active key.  Memory is one record per cell plus the sample.

    Parameters
    ----------
    tau:
        The IPPS threshold for the target sample size (from pass 1).
        ``tau == 0`` means every positive-weight key is sampled exactly.
    cell_of:
        Maps a key tuple to a hashable cell identifier.
    rng:
        Randomness source.
    """

    def __init__(
        self,
        tau: float,
        cell_of: Callable[[Tuple[int, ...]], Hashable],
        rng: np.random.Generator,
    ):
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self._tau = float(tau)
        self._cell_of = cell_of
        self._rng = rng
        self._active: Dict[Hashable, Record] = {}
        self._sample: List[Tuple[Tuple[int, ...], float]] = []
        self._mass_in = 0.0  # total probability mass fed (for invariants)

    @property
    def tau(self) -> float:
        """The IPPS threshold in use."""
        return self._tau

    @property
    def sample(self) -> List[Tuple[Tuple[int, ...], float]]:
        """Keys already committed to the sample (probability one)."""
        return self._sample

    @property
    def active_count(self) -> int:
        """Number of cells currently holding an active fractional key."""
        return len(self._active)

    def probability_of(self, weight: float) -> float:
        """IPPS inclusion probability of a weight under the threshold."""
        if weight <= 0:
            return 0.0
        if self._tau == 0.0:
            return 1.0
        return min(1.0, weight / self._tau)

    def process(self, key: Tuple[int, ...], weight: float) -> None:
        """Process one stream item (Algorithm 3 body)."""
        p = self.probability_of(weight)
        if p == 0.0:
            return
        self._mass_in += p
        if p >= 1.0 - SET_EPS:
            self._sample.append((key, weight))
            return
        cell = self._cell_of(key)
        resident = self._active.get(cell)
        if resident is None:
            self._active[cell] = (key, weight, p)
            return
        res_key, res_weight, res_p = resident
        new_res_p, new_p = pair_aggregate_values(res_p, p, self._rng)
        del self._active[cell]
        for rec_key, rec_weight, rec_p in (
            (res_key, res_weight, new_res_p),
            (key, weight, new_p),
        ):
            if rec_p >= 1.0 - SET_EPS:
                self._sample.append((rec_key, rec_weight))
            elif rec_p > SET_EPS:
                self._active[cell] = (rec_key, rec_weight, rec_p)

    def active_records(self) -> List[Record]:
        """The surviving active keys (for the final aggregation phase)."""
        return list(self._active.values())

    def conservation_error(self) -> float:
        """|mass in - (committed + active)|: should be ~0 at all times."""
        mass_out = float(len(self._sample)) + sum(
            rec[2] for rec in self._active.values()
        )
        return abs(self._mass_in - mass_out)


def _aggregate_tree_cells(
    root: KDNode,
    cell_to_index: dict,
    p: np.ndarray,
    rng: np.random.Generator,
) -> Optional[int]:
    """Bottom-up aggregation of at most one record per kd cell."""
    def leaf_leftover(leaf: KDNode) -> Optional[int]:
        idx = cell_to_index.get(leaf.cell_id)
        if idx is None or is_set(float(p[idx])):
            return None
        return idx

    return fold_kd_leftovers(root, leaf_leftover, p, rng)


def _aggregate_hierarchy_records(
    keys: np.ndarray,
    p: np.ndarray,
    hierarchy,
    rng: np.random.Generator,
) -> Optional[int]:
    """Final-phase aggregation of active records along a hierarchy."""
    order = np.argsort(keys, kind="stable")
    return aggregate_group(p, order, keys[order], hierarchy, 0, rng)


class _KDCells:
    """A kd partition of the guide sample, built by the recursion."""

    def __init__(self, coords, probs, domain, split_rule):
        self.tree = build_kd_hierarchy(
            coords, probs, domain=domain, leaf_mass=1.0,
            split_rule=split_rule,
        )

    def cell_of(self, key) -> int:
        """Leaf cell id containing the key."""
        return self.tree.locate(key).cell_id


def _build_partition(dataset, kind, guide_items, tau, split_rule, labeler):
    guide_keys = [key for key, _w in guide_items]
    if kind == "kd":
        if not guide_keys:
            raise ValueError("guide sample too small for a kd partition")
        coords = np.asarray(guide_keys, dtype=np.int64)
        probs = np.asarray(
            [min(1.0, w / tau) for _k, w in guide_items], dtype=float
        )
        return _KDCells(coords, probs, dataset.domain, split_rule)
    if kind in ("order", "linearized"):
        return OrderPartition([key[0] for key in guide_keys])
    if kind == "ancestor":
        hierarchy = dataset.domain.hierarchy(0)
        return HierarchyAncestorPartition(
            hierarchy, [key[0] for key in guide_keys]
        )
    if kind == "disjoint":
        labels = [labeler(key) for key in guide_keys]
        return DisjointPartition(labels, labeler=labeler)
    raise ValueError(f"unknown partition kind: {kind}")


def _finalize(records, partition, kind, dataset, rng):
    """Aggregate active keys following the structure; return chosen."""
    if not records:
        return []
    p = np.asarray([rec[2] for rec in records], dtype=float)
    if kind == "kd":
        cell_to_index = {
            partition.cell_of(rec[0]): i for i, rec in enumerate(records)
        }
        leftover = _aggregate_tree_cells(
            partition.tree, cell_to_index, p, rng
        )
    elif kind == "ancestor":
        keys = np.asarray([rec[0][0] for rec in records])
        leftover = _aggregate_hierarchy_records(
            keys, p, dataset.domain.hierarchy(0), rng
        )
    else:  # order / linearized / disjoint: along the sorted order
        keys = np.asarray([rec[0][0] for rec in records])
        order = np.argsort(keys, kind="stable")
        leftover = aggregate_pool(p, [int(i) for i in order], rng)
    finalize_leftover(p, leftover, rng)
    return [(records[i][0], records[i][1]) for i in included_indices(p)]


def two_pass_summary(
    dataset,
    s: int,
    rng: np.random.Generator,
    s_prime_factor: int = 5,
    partition: str = "auto",
    split_rule: str = "median",
    labeler=None,
) -> SampleSummary:
    """The two-pass sampler as written: every pass item by item.

    Pass 1 runs Algorithm 4's streaming threshold beside the one-pass
    reservoir guide sample; pass 2 feeds every item through
    :class:`IOAggregator`; the final phase aggregates the active
    records along the partition's structure.  Same parameters as
    ``repro.twopass.two_pass_summary``.
    """
    kind = partition
    if kind == "auto":
        if dataset.dims > 1:
            kind = "kd"
        elif isinstance(dataset.domain.axes[0], OrderedDomain):
            kind = "order"
        else:
            kind = "ancestor"
    # ---- Pass 1: exact threshold + guide sample ------------------------
    threshold = StreamingThreshold(s)
    guide = HeapVarOpt(s * s_prime_factor, rng)
    for key, weight in dataset.iter_items():
        threshold.update(weight)
        guide.feed(key, weight)
    tau = threshold.tau
    if tau == 0.0:
        # The sample size covers every positive-weight key.
        mask = dataset.weights > 0
        return SampleSummary(
            coords=dataset.coords[mask],
            weights=dataset.weights[mask],
            tau=0.0,
        )
    # Keys certain to be sampled (w >= tau_s) are excluded from the
    # partition construction -- S' is guaranteed to contain them all.
    guide_items = [
        (key, weight) for key, weight in guide.sample_items() if weight < tau
    ]
    cells = _build_partition(
        dataset, kind, guide_items, tau, split_rule, labeler
    )
    # ---- Pass 2: IO-AGGREGATE ------------------------------------------
    aggregator = IOAggregator(tau, cells.cell_of, rng)
    for key, weight in dataset.iter_items():
        aggregator.process(key, weight)
    # ---- Final phase: aggregate the active keys ------------------------
    chosen = list(aggregator.sample)
    chosen.extend(
        _finalize(aggregator.active_records(), cells, kind, dataset, rng)
    )
    if not chosen:
        return SampleSummary(
            coords=np.empty((0, dataset.dims), dtype=np.int64),
            weights=np.empty(0),
            tau=tau,
        )
    coords = np.asarray([key for key, _w in chosen], dtype=np.int64)
    weights = np.asarray([w for _k, w in chosen], dtype=float)
    return SampleSummary(coords=coords, weights=weights, tau=tau)
