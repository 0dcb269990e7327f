"""Classic streaming 1-D q-digest (Shrivastava et al., SenSys 2004).

The paper's ``qdigest`` baseline cites [22]; this module provides the
original streaming structure for completeness (the 2-D batch variant
lives in :mod:`repro.summaries.qdigest`).  Weighted items land on the
leaves of a binary tree over the ``[0, 2^bits)`` domain; every
``compress_every`` items a compression pass merges each sibling pair
that, together with its parent, carries less than ``total / k`` weight
into the parent.  Supports range sums and quantile queries with the
classic ``log(domain)/k`` error guarantee.

The tree is held as two sorted arrays: heap node ids (int64, root 1,
children ``2v`` and ``2v + 1``) and their float64 counts.  Heap ids
sort by depth, so depth ``d`` is the contiguous run ``[2^d, 2^(d+1))``
and siblings sit next to each other.  A batch is cut at its compress
points and each slice's leaf weights are added per leaf in item order;
a compression is one vectorized pair decision per depth, bottom up.
Every change binds new arrays and none is written in place, so states
may share arrays (snapshots, read-only wire views) safely.

Range sums have one path: the node arrays are flattened into an
:class:`~repro.structures.intervals.IntervalTable`, cached per node
array, and one level-fused scan answers every box at every depth.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.core.ipps import check_weights
from repro.structures.intervals import IntervalTable
from repro.structures.ranges import Box
from repro.summaries.base import IncrementalSummary, Summary, battery_plans


def _merge_light_pairs(ids, vals, up_ids, up_vals, threshold):
    """One depth of a compression: merge its light sibling pairs.

    ``ids``/``vals`` are one depth's sorted node ids and counts,
    ``up_ids``/``up_vals`` the depth above.  A pair whose count sum
    plus its parent's is below ``threshold`` leaves its depth and adds
    that sum to the parent, which is created if absent -- unless the
    sum is zero, which leaves the parent as it is.  Returns the four
    new arrays, or ``None`` when no pair merges; the inputs are never
    written.
    """
    if ids.shape[0] == 0:
        return None
    pairs = ids >> 1
    head = np.ones(ids.shape[0], dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=head[1:])
    heads = head.nonzero()[0]
    sums = np.add.reduceat(vals, heads)
    parents = pairs[heads]
    at = up_ids.searchsorted(parents)
    found = at < up_ids.shape[0]
    found[found] = up_ids[at[found]] == parents[found]
    above = np.zeros(parents.shape[0])
    above[found] = up_vals[at[found]]
    merge = sums + above < threshold
    if not merge.any():
        return None
    keep = ~merge[head.cumsum() - 1]
    moved = merge & (sums != 0)
    grow = moved & found
    if grow.any():
        up_vals = up_vals.copy()
        up_vals[at[grow]] += sums[grow]
    new = moved & ~found
    if new.any():
        grown = np.concatenate((up_ids, parents[new]))
        order = grown.argsort()
        up_ids = grown[order]
        up_vals = np.concatenate((up_vals, sums[new]))[order]
    return ids[keep], vals[keep], up_ids, up_vals


class StreamingQDigest(Summary, IncrementalSummary):
    """A weight-aware 1-D q-digest over ``bits``-bit integer keys.

    Natively incremental *and* mergeable: :meth:`update` absorbs a
    micro-batch, :meth:`snapshot` freezes a compressed copy, and
    :meth:`merge` adds node counts.  The structure is fully
    deterministic (no RNG): two digests fed the same items with the
    same ``compress_every`` cadence are identical, however the items
    are split into batches.

    Parameters
    ----------
    bits:
        Domain is ``[0, 2**bits)``.
    k:
        Compression factor: the structure keeps O(k log(2^bits)) nodes
        and answers range sums within ``(log(2^bits) / k) * total``.
    compress_every:
        Run compression after this many items (amortization knob).
    """

    def __init__(self, bits: int, k: int, compress_every: int = 1024):
        if bits < 1 or bits > 62:
            raise ValueError("bits must be in [1, 62]")
        if k < 1:
            raise ValueError("k must be >= 1")
        self._bits = bits
        self._k = k
        self._compress_every = max(1, int(compress_every))
        # Heap ids ascending; node v at depth d = floor(log2 v) covers
        # 2^(bits-d) keys.  Both arrays are replaced, never written.
        self._nodes = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0)
        self._total = 0.0
        self._since_compress = 0
        self._inserts = 0
        # (nodes, counts, table): the interval table of those arrays.
        self._table = None

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
        return self._nodes.shape[0]

    def insert(self, key: int, weight: float = 1.0) -> None:
        """Insert one weighted item (a one-item :meth:`update`).

        Each call pays a fixed few NumPy passes, so many items go
        through :meth:`update` at once.
        """
        self.update([key], [weight])

    # ------------------------------------------------------------------
    # Incremental summary protocol
    # ------------------------------------------------------------------
    def _leaves(self, keys, weights):
        """A batch's leaf ids and positive weights, checked whole.

        Raises ``ValueError`` before any change unless there is one
        weight per key, every key is an integer in ``[0, 2^bits)`` and
        every weight is finite and non-negative.  Zero weights are
        dropped: they insert nothing and count toward no compression.
        """
        keys = np.asarray(keys)
        if keys.ndim == 2:
            if keys.shape[1] != 1:
                raise ValueError("streaming q-digest keys must be 1-D")
            keys = keys[:, 0]
        keys = np.atleast_1d(keys)
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if keys.ndim != 1:
            raise ValueError("streaming q-digest keys must be 1-D")
        if weights.shape != keys.shape:
            raise ValueError("keys and weights must have matching length")
        if keys.size and keys.dtype.kind not in "iu":
            raise ValueError("streaming q-digest keys must be integers")
        if keys.size and (int(keys.min()) < 0
                          or int(keys.max()) >= 1 << self._bits):
            raise ValueError("key outside domain")
        check_weights(weights)
        live = weights > 0
        leaves = keys[live].astype(np.int64, copy=False) + (1 << self._bits)
        return leaves, weights[live]

    def update(self, keys, weights) -> None:
        """Insert one micro-batch (1-D keys or an ``(n, 1)`` array).

        The batch is cut where the item-by-item stream would compress:
        after ``compress_every - since_compress`` items, then every
        ``compress_every``.  Each slice's weights are added per leaf in
        item order and the running total is one ``cumsum`` seeded with
        ``total``, so every count and the total round exactly as
        sequential ``+=`` would.
        """
        leaves, weights = self._leaves(keys, weights)
        n = leaves.shape[0]
        running = np.cumsum(np.concatenate(([self._total], weights)))
        start = 0
        while start < n:
            end = min(n, start + self._compress_every - self._since_compress)
            self._add_leaves(leaves[start:end], weights[start:end])
            self._total = float(running[end])
            self._inserts += end - start
            self._since_compress += end - start
            if self._since_compress == self._compress_every:
                self.compress()
            start = end

    def _add_leaves(self, leaves: np.ndarray, weights: np.ndarray) -> None:
        """Add one slice's weights to its leaves, in order per leaf."""
        nodes, counts = self._nodes, self._counts
        # Leaves are the deepest run, at the end of the sorted ids.
        first = int(np.searchsorted(nodes, np.int64(1) << self._bits))
        held = nodes.shape[0] - first
        ids, slots = np.unique(
            np.concatenate((nodes[first:], leaves)), return_inverse=True
        )
        added = np.zeros(ids.shape[0])
        added[slots[:held]] = counts[first:]
        np.add.at(added, slots[held:], weights)
        self._nodes = np.concatenate((nodes[:first], ids))
        self._counts = np.concatenate((counts[:first], added))

    def snapshot(self) -> "StreamingQDigest":
        """A compressed copy, insulated from later inserts."""
        clone = StreamingQDigest(
            self._bits, self._k, compress_every=self._compress_every
        )
        clone._nodes, clone._counts = self._nodes, self._counts
        clone._total = self._total
        clone._inserts = self._inserts
        clone.compress()
        return clone

    @property
    def version(self) -> int:
        """Counter bumped on every insert."""
        return self._inserts

    def compress(self) -> None:
        """Merge light sibling pairs into their parents, deepest first.

        A pair ``(2p, 2p + 1)`` merges into ``p`` when its counts plus
        ``p``'s sum below ``total / k``.  A parent takes mass only from
        its own child pair, so the pairs of one depth decide
        independently: each depth is one vectorized pass, and a parent
        made at depth ``d`` can merge again at ``d - 1``.  Pair sums
        ``a + b`` equal ``b + a`` bit for bit, so the order in which
        the paper's per-node sweep visits a pair does not matter.
        """
        self._since_compress = 0
        if self._total == 0:
            return
        threshold = self._total / self._k
        nodes, counts = self._nodes, self._counts
        cuts = np.searchsorted(
            nodes, np.int64(1) << np.arange(self._bits + 1, dtype=np.int64)
        ).tolist() + [nodes.shape[0]]
        ids = [nodes[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        vals = [counts[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        changed = False
        for depth in range(self._bits, 0, -1):
            merged = _merge_light_pairs(ids[depth], vals[depth],
                                        ids[depth - 1], vals[depth - 1],
                                        threshold)
            if merged is not None:
                changed = True
                ids[depth], vals[depth], ids[depth - 1], vals[depth - 1] = (
                    merged
                )
        if changed:
            self._nodes = np.concatenate(ids)
            self._counts = np.concatenate(vals)

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
        nodes = np.union1d(self._nodes, other._nodes)
        counts = np.zeros(nodes.shape[0])
        counts[np.searchsorted(nodes, self._nodes)] = self._counts
        counts[np.searchsorted(nodes, other._nodes)] += other._counts
        merged._nodes, merged._counts = nodes, counts
        merged._total = self._total + other._total
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
        return {
            "bits": self._bits,
            "k": self._k,
            "compress_every": self._compress_every,
            "nodes": self._nodes,
            "counts": self._counts,
            "total": self._total,
            "since_compress": self._since_compress,
            "inserts": self._inserts,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingQDigest":
        """Rebuild a streaming q-digest from :meth:`to_state` output.

        Raises ``ValueError`` on a state no digest can be in: node ids
        outside ``[1, 2^(bits+1))`` or repeated, node and count arrays
        of different lengths, negative or non-finite counts or total,
        or ``since_compress`` outside ``[0, compress_every)``.  Nodes
        may come in any order (older frames list them unsorted); sorted
        arrays, such as read-only wire views, are kept as they are.
        """
        digest = cls(
            int(state["bits"]),
            int(state["k"]),
            compress_every=int(state["compress_every"]),
        )
        nodes = np.asarray(state["nodes"])
        counts = np.asarray(state["counts"], dtype=float)
        if nodes.ndim != 1 or counts.shape != nodes.shape:
            raise ValueError("q-digest nodes and counts must be matching "
                             "1-D arrays")
        if nodes.size and (
            nodes.dtype.kind not in "iu" or int(nodes.min()) < 1
            or int(nodes.max()) >= 2 << digest._bits
        ):
            raise ValueError("q-digest node ids must be integers in "
                             "[1, 2^(bits+1))")
        nodes = nodes.astype(np.int64, copy=False)
        if not bool(np.all(nodes[1:] > nodes[:-1])):
            order = np.argsort(nodes, kind="stable")
            nodes, counts = nodes[order], counts[order]
            if bool(np.any(nodes[1:] == nodes[:-1])):
                raise ValueError("q-digest node ids must be distinct")
        total = float(state["total"])
        if not (np.isfinite(counts).all() and bool(np.all(counts >= 0))
                and np.isfinite(total) and total >= 0):
            raise ValueError("q-digest counts and total must be finite "
                             "and non-negative")
        since_compress = int(state["since_compress"])
        if not 0 <= since_compress < digest._compress_every:
            raise ValueError("since_compress must be in [0, compress_every)")
        digest._nodes, digest._counts = nodes, counts
        digest._total = total
        digest._since_compress = since_compress
        digest._inserts = int(state["inserts"])
        return digest

    def range_sum(self, lo: int, hi: int) -> float:
        """Estimated weight of keys in ``[lo, hi]``.

        Nodes fully inside count fully; straddling nodes contribute the
        overlapped fraction of their span (midpoint-style estimate).
        """
        if lo > hi:
            raise ValueError("empty range")
        if self._nodes.shape[0] == 0:
            return 0.0
        return float(self.interval_table().scan_bounds(
            np.array([lo], dtype=np.int64), np.array([hi], dtype=np.int64)
        )[0])

    def query(self, box: Box) -> float:
        """Box interface used by the shared harness (1-D boxes)."""
        return self.range_sum(box.lows[0], box.highs[0])

    def interval_table(self) -> IntervalTable:
        """The node tree as a flat :class:`IntervalTable`.

        Cached per node array: every change binds new arrays, so
        repeated batteries over a frozen snapshot encode once.
        """
        cached = self._table
        if (cached is None or cached[0] is not self._nodes
                or cached[1] is not self._counts):
            table = IntervalTable.from_dyadic_nodes(
                self._bits, self._nodes, self._counts
            )
            cached = self._table = (self._nodes, self._counts, table)
        return cached[2]

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
        if self._nodes.shape[0] == 0:
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
        if self._nodes.shape[0]:
            # Walk the nodes by right endpoint (then left), summing
            # their weight: the classic q-digest quantile walk.
            table = self.interval_table()
            order = np.lexsort((table.lo, table.hi))
            reached = np.flatnonzero(np.cumsum(table.mass[order]) >= target)
            if reached.size:
                return int(table.hi[order[reached[0]]])
        return (1 << self._bits) - 1

    def error_bound(self) -> float:
        """The classic additive error guarantee per range endpoint."""
        return self._bits * self._total / self._k
