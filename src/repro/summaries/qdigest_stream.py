"""Classic streaming 1-D q-digest (Shrivastava et al., SenSys 2004).

The paper's ``qdigest`` baseline cites [22]; this module provides the
original streaming structure for completeness (the 2-D batch variant
lives in :mod:`repro.summaries.qdigest`).  Items are inserted one at a
time into a binary tree over the ``[0, 2^bits)`` domain; a compression
pass merges every node that, together with its parent and sibling,
carries less than ``total / k`` weight.  Supports range sums and
quantile queries with the classic ``log(domain)/k`` error guarantee.

A range-sum battery (:meth:`StreamingQDigest.query_many`) has one
path: the node tree is flattened into an
:class:`~repro.structures.intervals.IntervalTable`, cached per
mutation, and one level-fused scan answers every box at every depth.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.structures.intervals import IntervalTable
from repro.structures.ranges import Box
from repro.summaries.base import IncrementalSummary, Summary, battery_plans


class StreamingQDigest(Summary, IncrementalSummary):
    """A weight-aware 1-D q-digest over ``bits``-bit integer keys.

    Natively incremental *and* mergeable: :meth:`update` inserts a
    micro-batch, :meth:`snapshot` freezes a compressed copy, and
    :meth:`merge` adds node counts.  The structure is fully
    deterministic (no RNG), so two digests fed the same stream with the
    same ``compress_every`` cadence are identical.

    Parameters
    ----------
    bits:
        Domain is ``[0, 2**bits)``.
    k:
        Compression factor: the structure keeps O(k log(2^bits)) nodes
        and answers range sums within ``(log(2^bits) / k) * total``.
    compress_every:
        Run compression after this many insertions (amortization knob).
    """

    def __init__(self, bits: int, k: int, compress_every: int = 1024):
        if bits < 1 or bits > 62:
            raise ValueError("bits must be in [1, 62]")
        if k < 1:
            raise ValueError("k must be >= 1")
        self._bits = bits
        self._k = k
        self._compress_every = max(1, int(compress_every))
        # Node id: 1-based heap numbering; node v at depth d covers a
        # span of 2^(bits-d) keys.  Counts live in a dict (sparse tree).
        self._counts: Dict[int, float] = {}
        self._total = 0.0
        self._since_compress = 0
        self._inserts = 0
        # Bumped on every (re)bind or mutation of the node tree; keys
        # the interval table `query_many` caches.
        self._mutations = 0

    def _mutated(self) -> None:
        """Record a node-tree mutation, invalidating the cached table.

        Must be called at *every* site that rebinds or mutates
        ``_counts`` -- inserts, compressions, merge targets, restored
        and snapshot copies -- or ``query_many`` would serve answers
        from a stale cached table (regression-pinned in
        ``tests/test_interval_store.py``).
        """
        self._mutations += 1

    @classmethod
    def for_domain(
        cls, domain, size: int, compress_every: int = 1024
    ) -> "StreamingQDigest":
        """A digest sized for a 1-D domain and a node budget.

        The single sizing policy shared by the batch registry builder
        and the stream panes, so streamed and batch-built digests stay
        structurally identical.
        """
        if domain.dims != 1:
            raise ValueError("qdigest-stream supports 1-D domains only")
        bits = max(1, int(domain.sizes[0] - 1).bit_length())
        return cls(bits, k=max(1, size // max(1, bits)),
                   compress_every=compress_every)

    @property
    def total(self) -> float:
        """Total inserted weight."""
        return self._total

    @property
    def size(self) -> int:
        """Number of materialized nodes."""
        return len(self._counts)

    def _leaf_id(self, key: int) -> int:
        if not 0 <= key < (1 << self._bits):
            raise ValueError("key outside domain")
        return (1 << self._bits) + int(key)

    def _depth(self, node: int) -> int:
        return node.bit_length() - 1

    def _node_interval(self, node: int) -> Tuple[int, int]:
        depth = self._depth(node)
        span = 1 << (self._bits - depth)
        lo = (node - (1 << depth)) * span
        return lo, lo + span - 1

    def insert(self, key: int, weight: float = 1.0) -> None:
        """Insert one weighted item."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        if weight == 0:
            return
        leaf = self._leaf_id(key)
        self._counts[leaf] = self._counts.get(leaf, 0.0) + weight
        self._total += weight
        self._since_compress += 1
        self._inserts += 1
        self._mutated()
        if self._since_compress >= self._compress_every:
            self.compress()

    def insert_many(self, keys, weights) -> None:
        """Insert a batch of items (still one logical insert each)."""
        for key, weight in zip(keys, weights):
            self.insert(int(key), float(weight))

    # ------------------------------------------------------------------
    # Incremental summary protocol
    # ------------------------------------------------------------------
    def update(self, keys, weights) -> None:
        """Insert one micro-batch (1-D keys or an ``(n, 1)`` array)."""
        keys = np.asarray(keys)
        if keys.ndim == 2:
            if keys.shape[1] != 1:
                raise ValueError("streaming q-digest keys must be 1-D")
            keys = keys[:, 0]
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        self.insert_many(np.atleast_1d(keys), weights)

    def snapshot(self) -> "StreamingQDigest":
        """A compressed copy, insulated from later inserts."""
        clone = StreamingQDigest(
            self._bits, self._k, compress_every=self._compress_every
        )
        clone._counts = dict(self._counts)
        clone._total = self._total
        clone._inserts = self._inserts
        clone._mutated()
        clone.compress()
        return clone

    @property
    def version(self) -> int:
        """Counter bumped on every insert."""
        return self._inserts

    def compress(self) -> None:
        """Merge light (node, sibling) pairs into their parents."""
        self._since_compress = 0
        self._mutated()
        if self._total == 0:
            return
        threshold = self._total / self._k
        # Bottom-up sweep: process deeper nodes first.
        for depth in range(self._bits, 0, -1):
            level_nodes = [
                node
                for node in list(self._counts)
                if self._depth(node) == depth
            ]
            for node in level_nodes:
                if node not in self._counts:
                    continue
                sibling = node ^ 1
                parent = node >> 1
                triple = (
                    self._counts.get(node, 0.0)
                    + self._counts.get(sibling, 0.0)
                    + self._counts.get(parent, 0.0)
                )
                if triple < threshold:
                    merged = self._counts.pop(node, 0.0) + self._counts.pop(
                        sibling, 0.0
                    )
                    if merged:
                        self._counts[parent] = (
                            self._counts.get(parent, 0.0) + merged
                        )

    def merge(self, other: "StreamingQDigest") -> "StreamingQDigest":
        """The classic q-digest merge: add node counts, then compress.

        Both digests must cover the same domain.  The merged digest
        keeps the larger compression factor ``k``; the error guarantee
        ``log(domain) * total / k`` holds for the combined total.
        """
        if not isinstance(other, StreamingQDigest):
            raise TypeError(
                f"cannot merge StreamingQDigest with {type(other).__name__}"
            )
        if self._bits != other._bits:
            raise ValueError("cannot merge q-digests over different domains")
        merged = StreamingQDigest(
            self._bits,
            max(self._k, other._k),
            compress_every=min(self._compress_every, other._compress_every),
        )
        merged._counts = dict(self._counts)
        for node, count in other._counts.items():
            merged._counts[node] = merged._counts.get(node, 0.0) + count
        merged._total = self._total + other._total
        merged._mutated()
        merged.compress()
        return merged

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The sparse node tree as codec-friendly primitives.

        ``since_compress`` is included so a round-tripped digest fires
        its next compression at exactly the same insert as the
        original (the structure is deterministic end to end).
        """
        nodes = np.fromiter(self._counts.keys(), dtype=np.int64,
                            count=len(self._counts))
        counts = np.fromiter(self._counts.values(), dtype=float,
                             count=len(self._counts))
        return {
            "bits": self._bits,
            "k": self._k,
            "compress_every": self._compress_every,
            "nodes": nodes,
            "counts": counts,
            "total": self._total,
            "since_compress": self._since_compress,
            "inserts": self._inserts,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingQDigest":
        """Rebuild a streaming q-digest from :meth:`to_state` output."""
        digest = cls(
            int(state["bits"]),
            int(state["k"]),
            compress_every=int(state["compress_every"]),
        )
        digest._counts = {
            int(node): float(count)
            for node, count in zip(state["nodes"], state["counts"])
        }
        digest._total = float(state["total"])
        digest._since_compress = int(state["since_compress"])
        digest._inserts = int(state["inserts"])
        digest._mutated()
        return digest

    def range_sum(self, lo: int, hi: int) -> float:
        """Estimated weight of keys in ``[lo, hi]``.

        Nodes fully inside count fully; straddling nodes contribute the
        overlapped fraction of their span (midpoint-style estimate).
        """
        if lo > hi:
            raise ValueError("empty range")
        total = 0.0
        for node, count in self._counts.items():
            n_lo, n_hi = self._node_interval(node)
            if n_lo >= lo and n_hi <= hi:
                total += count
            elif n_hi >= lo and n_lo <= hi:
                overlap = min(hi, n_hi) - max(lo, n_lo) + 1
                total += count * overlap / (n_hi - n_lo + 1)
        return total

    def query(self, box: Box) -> float:
        """Box interface used by the shared harness (1-D boxes)."""
        return self.range_sum(box.lows[0], box.highs[0])

    def interval_table(self) -> IntervalTable:
        """The node tree as a flat :class:`IntervalTable`.

        Cached per mutation (``_mutated`` keys it), so repeated
        batteries over a frozen snapshot encode once.
        """
        cached = self.__dict__.get("_flat_table")
        if cached is None or cached[0] != self._mutations:
            nodes = np.fromiter(self._counts.keys(), dtype=np.int64,
                                count=len(self._counts))
            counts = np.fromiter(self._counts.values(), dtype=float,
                                 count=len(self._counts))
            table = IntervalTable.from_dyadic_nodes(
                self._bits, nodes, counts
            )
            cached = (self._mutations, table)
            self.__dict__["_flat_table"] = cached
        return cached[1]

    def query_many(self, queries: Iterable) -> List[float]:
        """Estimates for a whole battery over the interval table.

        Runs the table's level-fused battery scan
        (:meth:`IntervalTable.scan_bounds`): one rank pass places every
        box in every depth, and runs and straddling cells fold as
        ``(depths x B)`` arrays.
        """
        plan = battery_plans(self).fetch_plan(queries)
        if len(plan) == 0:
            return []
        if plan.dims != 1:
            raise ValueError("streaming q-digest answers 1-D boxes only")
        if not self._counts:
            return [0.0] * len(plan)
        per_box = self.interval_table().scan_bounds(
            plan.bounds[:, 0, 0], plan.bounds[:, 0, 1]
        )
        return plan.reduce_boxes(per_box).tolist()

    def quantile(self, phi: float) -> int:
        """Key at (approximately) the phi-quantile of the weight."""
        if not 0 <= phi <= 1:
            raise ValueError("phi must be in [0, 1]")
        target = phi * self._total
        # Sort materialized nodes by right endpoint; walk the
        # cumulative weight (the classic q-digest quantile walk).
        nodes = sorted(
            self._counts.items(),
            key=lambda item: (self._node_interval(item[0])[1],
                              self._node_interval(item[0])[0]),
        )
        running = 0.0
        for node, count in nodes:
            running += count
            if running >= target:
                return self._node_interval(node)[1]
        return (1 << self._bits) - 1

    def error_bound(self) -> float:
        """The classic additive error guarantee per range endpoint."""
        return self._bits * self._total / self._k
