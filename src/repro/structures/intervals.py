"""Flat interval-encoded hierarchy store (the XPath-accelerator trick).

Every tree the repo serves queries from -- the streaming q-digest's
sparse dyadic forest, the batch q-digest's leaf partition, the radix
hierarchies, the kd partition trees -- is re-encoded here as one flat
table of *intervals*: contiguous NumPy columns ``pre``, ``post``,
``level``, ``lo``, ``hi`` and ``mass``, one row per materialized node.
``[lo, hi]`` is the key range a node covers and ``pre``/``post`` are
its pre/post-order ranks, so the classic tree predicates compile to
pure range comparisons (Grust's XPath accelerator):

* ``v`` is a descendant-or-self of ``u``  iff  ``pre[v] >= pre[u] and
  post[v] <= post[u]`` -- equivalently ``lo[v] >= lo[u] and
  hi[v] <= hi[u]`` for radix trees;
* the nodes containing a key ``x`` (the root-to-leaf path) are exactly
  the rows with ``lo <= x <= hi``.

Rows are kept in the canonical order ``(level, lo, pre)``: each level
is a sorted run, so subtree and containment lookups become
``searchsorted`` range scans and a range-sum battery folds per level
with one prefix-sum difference per query (see :meth:`IntervalTable.
scan_bounds`).  The same columns persist unchanged into the SQLite
pushdown backend (:mod:`repro.backends.pushdown`) and ship over the
distributed wire (codec tag ``interval-table``), so the in-memory
kernels, the out-of-core backend and the transport all share one
representation.  Encoding, invariants and the SQL shapes are specified
in ``INTERVALS.md`` next to this module.

The batched scan kernel answers every level of a battery at once: the
cells of all levels live in one level-major sorted key array, so one
rank pass places every query's bounds in every level, and the
contained runs and straddling cells become ``(levels x B)`` array
arithmetic -- a serving flush costs a fixed number of NumPy passes, not
a Python loop over tree levels.  Answers are bit-identical to the
retained per-depth loop kernel (pinned in
``tests/test_interval_store.py`` and ``tests/test_fused_kernels.py``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Kinds: how ``mass`` relates to the tree.
#:
#: * ``sparse`` -- each item's weight lives in exactly one node (the
#:   streaming q-digest); summing across levels is meaningful.
#: * ``aggregate`` -- every node carries the total weight of its
#:   subtree (hierarchy rollups, kd nodes); queries use one level.
#: * ``leaves`` -- a disjoint leaf partition (batch q-digest).
KIND_SPARSE = "sparse"
KIND_AGGREGATE = "aggregate"
KIND_LEAVES = "leaves"
_KINDS = (KIND_SPARSE, KIND_AGGREGATE, KIND_LEAVES)

#: Cap on ``levels x boxes`` per :meth:`IntervalTable.scan_bounds` pass:
#: 256 KB temporaries keep a bulk battery's passes in cache (at 2^18 a
#: B=10k battery ran ~25% slower).
_SCAN_CELLS = 1 << 15


def flat_kernels_default() -> bool:
    """Module-wide default for the flat-kernel flag.

    ``REPRO_FLAT_KERNELS=0`` retains the historical pointer-path
    kernels everywhere (the per-instance ``flat_kernel`` attribute
    overrides in either direction).
    """
    return os.environ.get("REPRO_FLAT_KERNELS", "1").lower() not in (
        "0", "false", "off"
    )


def use_flat(summary) -> bool:
    """Whether ``summary`` should use the flat interval-table kernels."""
    flag = getattr(summary, "flat_kernel", None)
    if flag is None:
        return flat_kernels_default()
    return bool(flag)


def _rank(keys: np.ndarray, probes: np.ndarray,
          bound: Optional[np.ndarray]) -> np.ndarray:
    """``searchsorted(keys, probes)`` for ``(levels x B)`` probes.

    Each row of ``probes`` rises with ``bound`` and, unless ``bound`` is
    None, every row lies at or above the previous one, so one
    ``argsort`` of ``bound`` sorts all of them.  Past a few probes per
    key it is cheaper to count the keys into the sorted probes -- one
    short search per key, then a ``bincount``/``cumsum`` turns the
    counts into per-probe ranks -- than to binary-search every probe.
    """
    if bound is None or probes.size <= max(1024, 2 * keys.size):
        return np.searchsorted(keys, probes)
    order = np.argsort(bound)
    flat = probes[:, order].ravel()
    counts = np.bincount(np.searchsorted(flat, keys, side="right"),
                         minlength=flat.size + 1)
    ranks = np.empty_like(probes)
    ranks[:, order] = np.cumsum(counts[:-1]).reshape(probes.shape)
    return ranks


def _synth_pre_post(
    level: np.ndarray, lo: np.ndarray, hi: np.ndarray, height: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Arithmetic pre/post ranks for 1-D radix/dyadic interval trees.

    For a node covering ``[lo, hi]`` at depth ``d`` in a tree of height
    ``H``: ``pre = lo*(H+1) + d`` and ``post = (hi+1)*(H+1) - d``.
    Entering a child strictly increases ``pre`` and strictly decreases
    ``post`` (same ``lo``/``hi`` but deeper), and disjoint subtrees
    order correctly, so the encoding satisfies the accelerator
    predicates without walking any tree.
    """
    scale = np.int64(height + 1)
    pre = lo * scale + level
    post = (hi + np.int64(1)) * scale - level
    return pre, post


class IntervalTable:
    """A tree of key intervals as contiguous sorted NumPy columns.

    Parameters
    ----------
    level:
        ``(n,)`` int64 node depths (root = 0).
    lo, hi:
        ``(n,)`` or ``(n, d)`` int64 inclusive key bounds per node.
    mass:
        ``(n,)`` float64 node weights (see the kind constants).
    pre, post:
        Optional explicit pre/post-order ranks (required for
        multi-dimensional tables; synthesized arithmetically for 1-D).
    kind:
        One of ``"sparse"`` / ``"aggregate"`` / ``"leaves"``.
    height:
        Tree height (max level); defaults to ``level.max()``.

    Rows are stored in the canonical ``(level, lo[:, 0], pre)`` order;
    all query kernels and the pushdown backend rely on it.
    """

    __slots__ = (
        "pre", "post", "level", "lo", "hi", "mass", "kind", "height",
        "level_values", "level_starts", "level_spans",
        "_prefix", "_scan_keys", "_leaf_memo",
    )

    def __init__(
        self,
        level,
        lo,
        hi,
        mass,
        *,
        pre=None,
        post=None,
        kind: str = KIND_SPARSE,
        height: Optional[int] = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown interval-table kind: {kind!r}")
        level = np.ascontiguousarray(level, dtype=np.int64)
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        if lo.ndim == 1:
            lo = lo.reshape(-1, 1)
            hi = hi.reshape(-1, 1)
        mass = np.ascontiguousarray(mass, dtype=float)
        n = level.shape[0]
        if lo.shape != hi.shape or lo.shape[0] != n or mass.shape[0] != n:
            raise ValueError("interval-table columns disagree on length")
        if height is None:
            height = int(level.max()) if n else 0
        if pre is None or post is None:
            if lo.shape[1] != 1:
                raise ValueError(
                    "multi-dimensional tables need explicit pre/post ranks"
                )
            pre, post = _synth_pre_post(level, lo[:, 0], hi[:, 0], height)
        pre = np.ascontiguousarray(pre, dtype=np.int64)
        post = np.ascontiguousarray(post, dtype=np.int64)
        order = np.lexsort((pre, lo[:, 0] if n else pre, level))
        self.level = level[order]
        self.lo = np.ascontiguousarray(lo[order])
        self.hi = np.ascontiguousarray(hi[order])
        self.mass = mass[order]
        self.pre = pre[order]
        self.post = post[order]
        self.kind = kind
        self.height = int(height)
        # Per-level layout: levels present (ascending), their row
        # ranges, and -- when every row of a level shares one span --
        # the level's cell width (-1 marks a mixed-span level, which
        # the dyadic scan kernel refuses).
        if n:
            values, starts = np.unique(self.level, return_index=True)
            starts = np.concatenate((starts, [n]))
        else:
            values = np.zeros(0, dtype=np.int64)
            starts = np.zeros(1, dtype=np.int64)
        self.level_values = values
        self.level_starts = starts.astype(np.int64)
        spans = self.hi[:, 0] - self.lo[:, 0] + 1
        level_spans = np.empty(values.shape[0], dtype=np.int64)
        for j in range(values.shape[0]):
            chunk = spans[starts[j]:starts[j + 1]]
            level_spans[j] = chunk[0] if (chunk == chunk[0]).all() else -1
        self.level_spans = level_spans
        self._prefix = None
        self._scan_keys = None
        self._leaf_memo = None

    # ------------------------------------------------------------------
    # Basic shape / accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.level.shape[0]

    @property
    def dims(self) -> int:
        """Key dimensionality."""
        return self.lo.shape[1]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the core columns (RAM-budget accounting)."""
        return (
            self.pre.nbytes + self.post.nbytes + self.level.nbytes
            + self.lo.nbytes + self.hi.nbytes + self.mass.nbytes
        )

    @property
    def total(self) -> float:
        """Total mass across rows."""
        return float(self.mass.sum())

    def equals(self, other: "IntervalTable") -> bool:
        """Exact structural equality (columns, kind, height)."""
        return (
            isinstance(other, IntervalTable)
            and self.kind == other.kind
            and self.height == other.height
            and self.lo.shape == other.lo.shape
            and bool(np.array_equal(self.level, other.level))
            and bool(np.array_equal(self.lo, other.lo))
            and bool(np.array_equal(self.hi, other.hi))
            and bool(np.array_equal(self.pre, other.pre))
            and bool(np.array_equal(self.post, other.post))
            and bool(np.array_equal(self.mass, other.mass))
        )

    # ------------------------------------------------------------------
    # Encoders
    # ------------------------------------------------------------------
    @classmethod
    def from_dyadic_nodes(
        cls, bits: int, nodes: np.ndarray, counts: np.ndarray
    ) -> "IntervalTable":
        """Encode a heap-numbered sparse dyadic node set (streaming
        q-digest): node ``v`` at depth ``d = floor(log2 v)`` covers
        ``[(v - 2^d) * 2^(bits-d), ...]``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = np.asarray(counts, dtype=float)
        # Depth = bit length - 1, via exact integer halving (no float
        # log); same computation as the retained per-depth kernel.
        remaining = nodes.copy()
        depths = np.zeros(nodes.shape[0], dtype=np.int64)
        for shift in (32, 16, 8, 4, 2, 1):
            big = remaining >= np.int64(1) << shift
            depths[big] += shift
            remaining[big] >>= shift
        spans = np.int64(1) << (np.int64(bits) - depths)
        lo = (nodes - (np.int64(1) << depths)) * spans
        hi = lo + spans - 1
        return cls(
            depths, lo, hi, counts, kind=KIND_SPARSE, height=int(bits)
        )

    @classmethod
    def from_leaves(
        cls, lows: np.ndarray, highs: np.ndarray, weights: np.ndarray
    ) -> "IntervalTable":
        """Encode a (possibly multi-dimensional) leaf partition.

        All rows land on level 0 with insertion-order pre/post ranks,
        so the canonical sort is a stable sort by ``lo`` -- exactly the
        batch q-digest's historical sorted-leaf order.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        if lows.ndim == 1:
            lows = lows.reshape(-1, 1)
            highs = highs.reshape(-1, 1)
        n = lows.shape[0]
        ranks = np.arange(n, dtype=np.int64)
        return cls(
            np.zeros(n, dtype=np.int64), lows, highs,
            np.asarray(weights, dtype=float),
            pre=ranks, post=ranks, kind=KIND_LEAVES, height=0,
        )

    @classmethod
    def from_hierarchy(
        cls,
        hierarchy,
        keys: np.ndarray,
        weights: np.ndarray,
        max_depth: Optional[int] = None,
    ) -> "IntervalTable":
        """Per-level rollups of weighted keys over a radix hierarchy.

        One row per induced node per level ``0..max_depth`` (default:
        the leaf depth), each carrying its subtree's total weight --
        the drilldown store: :meth:`scan_bounds` at the leaf level is
        exact, shallower levels answer subtree masses directly.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if keys.shape[0] != weights.shape[0]:
            raise ValueError("keys and weights disagree on length")
        depth = hierarchy.depth if max_depth is None else int(max_depth)
        if not 0 <= depth <= hierarchy.depth:
            raise ValueError("max_depth outside the hierarchy")
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_w = weights[order]
        levels: List[np.ndarray] = []
        los: List[np.ndarray] = []
        his: List[np.ndarray] = []
        masses: List[np.ndarray] = []
        for d in range(depth + 1):
            span = np.int64(hierarchy.span(d))
            nodes = sorted_keys // span
            cuts = np.flatnonzero(np.diff(nodes)) + 1
            starts = np.concatenate(([0], cuts))
            sums = np.add.reduceat(sorted_w, starts) if nodes.size else (
                np.zeros(0)
            )
            uniq = nodes[starts] if nodes.size else nodes
            levels.append(np.full(uniq.shape[0], d, dtype=np.int64))
            los.append(uniq * span)
            his.append(uniq * span + span - 1)
            masses.append(np.asarray(sums, dtype=float))
        return cls(
            np.concatenate(levels), np.concatenate(los),
            np.concatenate(his), np.concatenate(masses),
            kind=KIND_AGGREGATE, height=depth,
        )

    @classmethod
    def from_kd(cls, root) -> "IntervalTable":
        """Encode a kd partition tree (every node, internal and leaf).

        ``pre``/``post`` are the DFS entry/exit ranks; ``lo``/``hi``
        are the ``(n, d)`` node boxes and ``mass`` each node's subtree
        weight (kd nodes are aggregates).
        """
        rows: List[Tuple[int, int, int, Tuple, Tuple, float]] = []
        pre_counter = 0
        post_counter = 0
        # (node, depth, child iterator state) -- iterative DFS so deep
        # trees cannot blow the recursion limit.
        stack = [(root, 0, False, None)]
        pre_of: Dict[int, int] = {}
        while stack:
            node, depth, visited, slot = stack.pop()
            if not visited:
                pre_of[id(node)] = pre_counter
                pre_counter += 1
                stack.append((node, depth, True, len(rows)))
                rows.append(None)  # placeholder until exit rank known
                for child in (node.right, node.left):
                    if child is not None:
                        stack.append((child, depth + 1, False, None))
            else:
                rows[slot] = (
                    pre_of[id(node)], post_counter, depth,
                    tuple(int(v) for v in node.box.lows),
                    tuple(int(v) for v in node.box.highs),
                    float(node.mass),
                )
                post_counter += 1
        pre = np.asarray([r[0] for r in rows], dtype=np.int64)
        post = np.asarray([r[1] for r in rows], dtype=np.int64)
        level = np.asarray([r[2] for r in rows], dtype=np.int64)
        lo = np.asarray([r[3] for r in rows], dtype=np.int64)
        hi = np.asarray([r[4] for r in rows], dtype=np.int64)
        mass = np.asarray([r[5] for r in rows], dtype=float)
        return cls(
            level, lo, hi, mass, pre=pre, post=post,
            kind=KIND_AGGREGATE, height=int(level.max()) if len(rows) else 0,
        )

    # ------------------------------------------------------------------
    # Tree predicates (pre/post range tests)
    # ------------------------------------------------------------------
    def descendant_mask(self, row: int) -> np.ndarray:
        """Boolean mask of descendants-or-self of ``row`` -- the
        accelerator window ``pre >= pre[row] and post <= post[row]``."""
        return (self.pre >= self.pre[row]) & (self.post <= self.post[row])

    def subtree_mass(self, row: int) -> float:
        """Total mass under ``row`` (its own row included)."""
        if self.kind == KIND_AGGREGATE:
            return float(self.mass[row])
        return float(self.mass[self.descendant_mask(row)].sum())

    def ancestor_rows(self, key: Sequence[int]) -> np.ndarray:
        """Rows whose interval contains ``key`` (the root-to-leaf
        path), shallowest first -- a pure containment range scan."""
        point = np.asarray(key, dtype=np.int64).reshape(1, -1)
        if point.shape[1] != self.dims:
            raise ValueError("key dimensionality mismatch")
        mask = ((self.lo <= point) & (self.hi >= point)).all(axis=1)
        return np.flatnonzero(mask)

    def node_row(self, level: int, lo: int) -> Optional[int]:
        """Canonical-order row of the node at ``(level, lo)``, if any."""
        j = int(np.searchsorted(self.level_values, level))
        if j == self.level_values.shape[0] or self.level_values[j] != level:
            return None
        start, end = self.level_starts[j], self.level_starts[j + 1]
        pos = start + np.searchsorted(self.lo[start:end, 0], lo)
        if pos < end and self.lo[pos, 0] == lo:
            return int(pos)
        return None

    # ------------------------------------------------------------------
    # Range-sum kernels
    # ------------------------------------------------------------------
    def _ensure_prefix(self) -> np.ndarray:
        """Concatenated per-level exclusive prefix sums of ``mass``.

        Level ``j`` (rows ``[s_j, e_j)``) owns prefix positions
        ``[s_j + j, e_j + j]`` -- each level contributes one extra
        leading ``0.0``, so a run inside a level differences to the
        same floats as a standalone per-level ``cumsum`` (bit-identical
        to the retained per-depth kernel's prefixes).
        """
        if self._prefix is None:
            parts = []
            starts = self.level_starts
            for j in range(self.level_values.shape[0]):
                chunk = self.mass[starts[j]:starts[j + 1]]
                parts.append(np.concatenate(([0.0], np.cumsum(chunk))))
            self._prefix = (
                np.concatenate(parts) if parts else np.zeros(1)
            )
        return self._prefix

    def _ensure_scan_keys(self):
        """Per-row cells and level-major scan keys (1-D tables, cached).

        Row cells are ``lo // span(level)``.  Level ``j``'s cells map to
        the keys ``off[j] + (cell - first[j])``, where ``off`` packs the
        levels' cell ranges ``[first[j], last[j]]`` back to back, so one
        sorted key array serves every level's ``searchsorted``.  The key
        space is the sum of the ranges: below ``2^63`` for any dyadic
        table up to ``height`` 62 (level ``d`` spans at most ``2^d``
        cells), unlike a fixed per-level stride such as
        ``level * 2^(height+2)``.
        """
        if self._scan_keys is None:
            starts = self.level_starts
            counts = np.diff(starts)
            cells = self.lo[:, 0] // np.repeat(self.level_spans, counts)
            first = cells[starts[:-1]]
            last = cells[starts[1:] - 1]
            widths = last - first + 1
            if sum(int(w) for w in widths) >= 1 << 63:
                raise ValueError("interval table too wide to scan")
            off = np.concatenate(([0], np.cumsum(widths)[:-1]))
            keys = cells + np.repeat(off - first, counts)
            self._scan_keys = (keys, cells, off, first, last)
        return self._scan_keys

    def scannable(self) -> bool:
        """Whether the dyadic scan kernel applies: 1-D and every level
        a uniform-span sorted run."""
        return self.dims == 1 and bool((self.level_spans > 0).all())

    def leaves_disjoint(self) -> bool:
        """Whether rows are pairwise-disjoint sorted 1-D intervals."""
        if self.dims != 1 or self.level_values.shape[0] > 1:
            return False
        lo = self.lo[:, 0]
        hi = self.hi[:, 0]
        return lo.shape[0] <= 1 or bool((hi[:-1] < lo[1:]).all())

    def scan_bounds(self, lo: np.ndarray, hi: np.ndarray,
                    levels: Optional[Sequence[int]] = None) -> np.ndarray:
        """Range sums of the boxes ``[lo[i], hi[i]]``, all levels at once.

        For ``sparse`` tables all levels fold (each item's weight lives
        in one node); for ``aggregate`` tables the scan restricts to the
        deepest level unless ``levels`` selects others.  Every query's
        contained cell run and its two straddling-cell candidates are
        found for every selected level as ``(levels x B)`` arrays, from
        one rank pass over the level-major keys (:meth:`_ensure_scan_keys`,
        :func:`_rank`).  Straddling cells contribute their overlapped
        span fraction, exactly like the scalar ``range_sum`` path.  Per
        box the sum accumulates level by level -- the run, then the left
        straddler, then the right one -- which keeps the answers
        bit-identical to the per-depth loop kernel and the pushdown
        store (``INTERVALS.md``).
        """
        if not self.scannable():
            raise ValueError(
                "scan_bounds needs a 1-D table with uniform-span levels"
            )
        if levels is None:
            sel = np.arange(self.level_values.shape[0])
            if self.kind == KIND_AGGREGATE:
                sel = sel[-1:]
        else:
            sel = np.searchsorted(self.level_values, levels)
            for j, lvl in zip(sel.tolist(), levels):
                if (j >= self.level_values.shape[0]
                        or self.level_values[j] != lvl):
                    raise ValueError(f"level {lvl} not in table")
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        if sel.size == 0 or lo.size == 0:
            return np.zeros(lo.shape[0], dtype=float)
        # Keep the (levels x 3 x boxes) working set cache-sized.
        chunk = max(1, _SCAN_CELLS // sel.size)
        if lo.shape[0] > chunk:
            return np.concatenate([
                self.scan_bounds(lo[i:i + chunk], hi[i:i + chunk], levels)
                for i in range(0, lo.shape[0], chunk)
            ])
        keys, cells, off, first, last = self._ensure_scan_keys()
        n_sel = sel.size
        s, off, first, last, start, end = (
            column[sel][:, None] for column in (
                self.level_spans, off, first, last, self.level_starts,
                self.level_starts[1:],
            )
        )
        # Contained cell run [a, b] per level; probes clamped into the
        # level's key range find the first cell >= a and the first
        # cell > b (searchsorted 'right' on b == 'left' on b + 1).
        c_lo = lo // s
        lo_floor = c_lo * s
        lo_cut = lo != lo_floor
        a = c_lo + lo_cut
        hi1 = hi + 1
        b = hi1 // s - 1
        hi1_floor = (b + 1) * s
        hi_cut = hi1 != hi1_floor
        c_hi = b + hi_cut
        # Levels given out of order (or twice) cannot share one sort.
        rising = bool((np.diff(sel) > 0).all())
        run_lo = _rank(keys, np.minimum(np.maximum(a, first), last + 1)
                       - first + off, lo if rising else None)
        run_end = _rank(keys, np.minimum(np.maximum(b, first - 1), last)
                        - first + off + 1, hi if rising else None)
        prefix = self._ensure_prefix()
        parts = np.empty((n_sel, 3, lo.shape[0]))
        # Level j's prefix values sit j slots after its rows.
        parts[:, 0] = (prefix[np.maximum(run_end, run_lo) + sel[:, None]]
                       - prefix[run_lo + sel[:, None]])
        # Straddling cells, at most the one holding each endpoint: an
        # unaligned lo's cell sits just left of the run (an aligned box
        # narrower than a cell, a > b, in the run's first slot); an
        # unaligned hi's cell just right of it, unless it is lo's.
        rows = np.stack((
            np.where(lo_cut, run_lo - 1, np.where(a > b, run_lo, -1)),
            np.where(hi_cut & (c_hi != c_lo), run_end, -1),
        ))
        inside = (rows >= start) & (rows < end)
        rows = np.where(inside, rows, 0)
        # Overlap with [lo, hi]: lo's cell starts at or before lo, hi's
        # cell ends at or after hi.
        overlap = np.stack((np.minimum(hi1, lo_floor + s) - lo,
                            hi1 - np.maximum(lo, hi1_floor)))
        parts[:, 1:] = np.where(
            inside & (cells[rows] == np.stack((c_lo, c_hi))),
            self.mass[rows] * overlap / s.astype(float), 0.0,
        ).transpose(1, 0, 2)
        # Summing down axis 0 adds the rows strictly in order per box; a
        # lone box would reduce as one contiguous run, which NumPy sums
        # pairwise, so it takes the running sum instead.
        parts = parts.reshape(3 * n_sel, -1)
        if lo.shape[0] == 1:
            return np.cumsum(parts, axis=0)[-1]
        return np.add.reduce(parts, axis=0)

    # ------------------------------------------------------------------
    # Disjoint-leaf kernel (batch q-digest 1-D fast path)
    # ------------------------------------------------------------------
    def _ensure_leaf_arrays(self):
        """Float leaf views for :meth:`leaf_range_sums` (lazy memo)."""
        if self._leaf_memo is None:
            los = self.lo[:, 0].astype(float)
            his = self.hi[:, 0].astype(float)
            volumes = his - los + 1.0
            prefix = np.concatenate(([0.0], np.cumsum(self.mass)))
            self._leaf_memo = (los, his, self.mass, volumes, prefix)
        return self._leaf_memo

    def leaf_range_sums(self, bounds: np.ndarray, mode: str) -> np.ndarray:
        """Prefix-sum range sums over disjoint sorted 1-D leaves.

        The shared implementation of the batch q-digest's sorted-leaf
        fast path: fully-contained leaves are one prefix-sum run, and
        only the two leaves holding the query endpoints can be
        boundary leaves, handled per ``mode`` (``"half"`` /
        ``"uniform"`` / ``"lower"``).  Bit-identical to the retained
        ``QDigestSummary._query_boxes_1d``.
        """
        if not self.leaves_disjoint():
            raise ValueError("leaf_range_sums needs disjoint 1-D leaves")
        los, his, weights, volumes, prefix = self._ensure_leaf_arrays()
        q_lo = bounds[:, 0, 0]
        q_hi = bounds[:, 0, 1]
        first = np.searchsorted(los, q_lo, side="left")
        last = np.searchsorted(his, q_hi, side="right")
        per_box = np.where(last > first, prefix[last] - prefix[first], 0.0)
        if mode == "lower":
            return per_box
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
        return per_box

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The table as codec-friendly primitives (bit-exact)."""
        return {
            "kind": self.kind,
            "height": self.height,
            "level": self.level,
            "lo": self.lo,
            "hi": self.hi,
            "mass": self.mass,
            "pre": self.pre,
            "post": self.post,
        }

    @classmethod
    def from_state(cls, state: dict) -> "IntervalTable":
        """Rebuild an interval table from :meth:`to_state` output."""
        lo = np.asarray(state["lo"], dtype=np.int64)
        hi = np.asarray(state["hi"], dtype=np.int64)
        return cls(
            np.asarray(state["level"], dtype=np.int64),
            lo,
            hi,
            np.asarray(state["mass"], dtype=float),
            pre=np.asarray(state["pre"], dtype=np.int64),
            post=np.asarray(state["post"], dtype=np.int64),
            kind=str(state["kind"]),
            height=int(state["height"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntervalTable(kind={self.kind!r}, rows={len(self)}, "
            f"dims={self.dims}, levels={self.level_values.tolist()})"
        )
