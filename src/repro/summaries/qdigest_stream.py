"""Classic streaming 1-D q-digest (Shrivastava et al., SenSys 2004).

The paper's ``qdigest`` baseline cites [22]; this module provides the
original streaming structure for completeness (the 2-D batch variant
lives in :mod:`repro.summaries.qdigest`).  Items are inserted one at a
time into a binary tree over the ``[0, 2^bits)`` domain; a compression
pass merges every node that, together with its parent and sibling,
carries less than ``total / k`` weight.  Supports range sums and
quantile queries with the classic ``log(domain)/k`` error guarantee.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.structures.intervals import IntervalTable, use_flat
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
        # every derived cache of `query_many` (the per-depth tables,
        # the flat interval table, and any spilled pushdown store).
        self._mutations = 0

    def _mutated(self) -> None:
        """Record a node-tree mutation, invalidating derived caches.

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

    def _interval_table(self):
        """Per-depth sorted cell tables, cached per mutation.

        Returns a list of ``(shift, cells, counts, prefix)`` tuples,
        one per materialized depth: ``cells`` are the sorted cell
        indices (``node - 2**depth``) at that depth, ``counts`` their
        weights in cell order, and ``prefix`` the exclusive running
        sum of ``counts`` (so a contiguous cell run sums in O(1)).
        Recomputed only when the tree changed (any insert or
        compression bumps ``_mutations``), so repeated query batteries
        over a frozen snapshot build the tables once.
        """
        cached = self.__dict__.get("_interval_arrays")
        if cached is None or cached[0] != self._mutations:
            nodes = np.fromiter(self._counts.keys(), dtype=np.int64,
                                count=len(self._counts))
            counts = np.fromiter(self._counts.values(), dtype=float,
                                 count=len(self._counts))
            # Depth of heap node v is floor(log2 v): an exact integer
            # binary search on the bit length (no float log).
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
                    (self._bits - int(depth), cells[order], cell_counts,
                     prefix)
                )
            cached = (self._mutations, tables)
            self.__dict__["_interval_arrays"] = cached
        return cached[1]

    def interval_table(self) -> IntervalTable:
        """The node tree as a flat :class:`IntervalTable`.

        Cached per mutation (``_mutated`` keys it), so repeated
        batteries over a frozen snapshot encode once.  The table's
        canonical per-level order matches the retained per-depth
        tables exactly, which is what keeps the flat kernel's answers
        bit-identical to :meth:`_query_many_levels`.
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

    def _spill_backend(self, table: IntervalTable):
        """An on-disk pushdown handle when ``table`` busts the budget.

        Returns ``None`` (serve in RAM) unless the table's resident
        bytes exceed the effective RAM budget -- the per-instance
        ``pushdown_budget`` attribute if set, else the module default
        from :func:`repro.backends.pushdown.ram_budget`.  The spilled
        store is cached per mutation so repeated batteries reuse one
        SQLite file.
        """
        budget = getattr(self, "pushdown_budget", None)
        if budget is None:
            from repro.backends.pushdown import ram_budget
            budget = ram_budget()
        if budget is None or table.nbytes <= budget:
            return None
        cached = self.__dict__.get("_spill_store")
        if cached is None or cached[0] != self._mutations:
            from repro.backends.pushdown import PushdownStore
            store = PushdownStore.temp()
            store.put("digest", table)
            cached = (self._mutations, store)
            self.__dict__["_spill_store"] = cached
        return cached[1].handle("digest")

    def query_many(self, queries: Iterable) -> List[float]:
        """Estimates for a whole battery over the interval table.

        The default path encodes the node tree as a flat
        :class:`IntervalTable` and runs its level-fused battery scan
        (:meth:`IntervalTable.scan_bounds`): one rank pass places
        every box in every depth, and runs and straddling cells fold
        as ``(depths x B)`` arrays.  When the table exceeds the
        pushdown RAM budget the same battery is answered out-of-core
        by the SQLite backend.
        Setting ``flat_kernel = False`` (or ``REPRO_FLAT_KERNELS=0``)
        retains the historical per-depth ``searchsorted`` kernel; all
        three paths are bit-identical.
        """
        plan = battery_plans(self).fetch_plan(queries)
        if len(plan) == 0:
            return []
        if plan.dims != 1:
            raise ValueError("streaming q-digest answers 1-D boxes only")
        if not self._counts:
            return [0.0] * len(plan)
        if use_flat(self):
            table = self.interval_table()
            spilled = self._spill_backend(table)
            lo, hi = plan.bounds[:, 0, 0], plan.bounds[:, 0, 1]
            if spilled is not None:
                per_box = spilled.range_sums(lo, hi)
            else:
                per_box = table.scan_bounds(lo, hi)
        else:
            per_box = self._query_many_levels(plan)
        return plan.reduce_boxes(per_box).tolist()

    def _query_many_levels(self, plan) -> np.ndarray:
        """Retained per-depth kernel (pre-interval-table, pinned).

        Per materialized depth a box resolves in O(log nodes): the run
        of cells fully inside the box is one prefix-sum difference
        between two ``searchsorted`` bounds, and only the two endpoint
        cells can straddle, each one more ``searchsorted`` probe
        contributing its overlapped span fraction.  Kept as the
        bit-exact reference for the flat and pushdown kernels.
        """
        bounds = plan.bounds
        lo = bounds[:, 0, 0]
        hi = bounds[:, 0, 1]
        per_box = np.zeros(bounds.shape[0], dtype=float)
        for shift, cells, cell_counts, prefix in self._interval_table():
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
        return per_box

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
