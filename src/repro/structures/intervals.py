"""Flat interval table of the streaming q-digest's dyadic forest.

:class:`IntervalTable` re-encodes a streaming q-digest's sparse node
tree as four contiguous NumPy columns -- ``level``, ``lo``, ``hi`` and
``mass``, one row per materialized node, where ``[lo, hi]`` is the key
range the node covers.  Rows are kept in the canonical order
``(level, lo)``: each level is a sorted run of cells, so a range-sum
battery folds per level with one prefix-sum difference per query (see
:meth:`IntervalTable.scan_bounds`).  Encoding, invariants and the
bit-identity argument are specified in ``INTERVALS.md`` next to this
module.

The batched scan kernel answers every level of a battery at once: the
cells of all levels live in one level-major sorted key array, so one
rank pass places every query's bounds in every level, and the
contained runs and straddling cells become ``(levels x B)`` array
arithmetic -- a serving flush costs a fixed number of NumPy passes, not
a Python loop over tree levels.  Answers are bit-identical to the
per-depth loop kernel kept as the test oracle in ``tests/oracles.py``
(pinned in ``tests/test_interval_store.py`` and
``tests/test_fused_kernels.py``).
"""

from __future__ import annotations

import numpy as np

#: Cap on ``levels x boxes`` per :meth:`IntervalTable.scan_bounds` pass:
#: 256 KB temporaries keep a bulk battery's passes in cache (at 2^18 a
#: B=10k battery ran ~25% slower).
_SCAN_CELLS = 1 << 15
#: Fewest probes :func:`_rank` sorts before searching: below about 500
#: (B ~ 48 boxes at 10 levels) the argsort, gather and scatter cost
#: more than the sorted search saves (2-vCPU x86-64 VM).
_SORTED_SEARCH_MIN = 512


def _rank(keys: np.ndarray, probes: np.ndarray,
          bound: np.ndarray) -> np.ndarray:
    """``searchsorted(keys, probes)`` for ``(levels x B)`` probes.

    Each row of ``probes`` rises with ``bound`` and every row lies at or
    above the previous one, so one ``argsort`` of ``bound`` sorts all
    of them.  Sorted probes binary-search far faster than scattered
    ones (each search starts where the last one ended, and the branches
    predict), so a battery with enough probes to repay the sort
    searches them in that order.  Past a few probes per key it is
    cheaper still to count the keys into the sorted probes -- one short
    search per key, then a ``bincount``/``cumsum`` turns the counts
    into per-probe ranks.
    """
    if probes.size < _SORTED_SEARCH_MIN:
        return np.searchsorted(keys, probes)
    order = np.argsort(bound)
    flat = probes[:, order].ravel()
    ranks = np.empty_like(probes)
    if flat.size <= max(1024, 2 * keys.size):
        ranks[:, order] = np.searchsorted(keys, flat).reshape(probes.shape)
        return ranks
    counts = np.bincount(np.searchsorted(flat, keys, side="right"),
                         minlength=flat.size + 1)
    ranks[:, order] = np.cumsum(counts[:-1]).reshape(probes.shape)
    return ranks


class IntervalTable:
    """A sparse dyadic forest as contiguous sorted NumPy columns.

    Parameters
    ----------
    level:
        ``(n,)`` int64 node depths (root = 0).
    lo, hi:
        ``(n,)`` int64 inclusive key bounds per node; a node at depth
        ``d`` covers ``2^(height - d)`` keys.
    mass:
        ``(n,)`` float64 node weights.  Each item's weight lives in
        exactly one node, so a range sum folds every level.
    height:
        Tree height: the depth of a single-key node.

    Rows are stored in the canonical ``(level, lo)`` order, which the
    scan kernel relies on.
    """

    __slots__ = (
        "level", "lo", "hi", "mass", "height",
        "level_values", "level_starts", "level_spans",
        "_prefix", "_scan_keys", "_scan_consts",
    )

    def __init__(self, level, lo, hi, mass, *, height: int):
        level = np.asarray(level, dtype=np.int64)
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        mass = np.asarray(mass, dtype=float)
        n = level.shape[0]
        if not lo.shape == hi.shape == mass.shape == (n,):
            raise ValueError("interval table columns disagree on length")
        order = np.lexsort((lo, level))
        self.level = level[order]
        self.lo = lo[order]
        self.hi = hi[order]
        self.mass = mass[order]
        self.height = int(height)
        # Per-level layout: levels present (ascending), their row
        # ranges and their cell widths.
        values, starts = np.unique(self.level, return_index=True)
        self.level_values = values
        self.level_starts = np.append(starts, n).astype(np.int64)
        self.level_spans = np.int64(1) << (np.int64(height) - values)
        self._prefix = None
        self._scan_keys = None
        self._scan_consts = None

    def __len__(self) -> int:
        return self.level.shape[0]

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
        # log); same computation as the per-depth oracle kernel.
        remaining = nodes.copy()
        depths = np.zeros(nodes.shape[0], dtype=np.int64)
        for shift in (32, 16, 8, 4, 2, 1):
            big = remaining >= np.int64(1) << shift
            depths[big] += shift
            remaining[big] >>= shift
        spans = np.int64(1) << (np.int64(bits) - depths)
        lo = (nodes - (np.int64(1) << depths)) * spans
        hi = lo + spans - 1
        return cls(depths, lo, hi, counts, height=int(bits))

    # ------------------------------------------------------------------
    # Range-sum kernel
    # ------------------------------------------------------------------
    def _ensure_prefix(self) -> np.ndarray:
        """Concatenated per-level exclusive prefix sums of ``mass``.

        Level ``j`` (rows ``[s_j, e_j)``) owns prefix positions
        ``[s_j + j, e_j + j]`` -- each level contributes one extra
        leading ``0.0``, so a run inside a level differences to the
        same floats as a standalone per-level ``cumsum`` (bit-identical
        to the per-depth oracle kernel's prefixes).
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
        """Per-row cells and level-major scan keys (cached).

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
            cells = self.lo // np.repeat(self.level_spans, counts)
            first = cells[starts[:-1]]
            last = cells[starts[1:] - 1]
            widths = last - first + 1
            if sum(int(w) for w in widths) >= 1 << 63:
                raise ValueError("interval table too wide to scan")
            off = np.concatenate(([0], np.cumsum(widths)[:-1]))
            keys = cells + np.repeat(off - first, counts)
            self._scan_keys = (keys, cells, off, first, last)
        return self._scan_keys

    def _ensure_scan_consts(self):
        """The per-level ``(levels, 1)`` columns a scan broadcasts
        against its boxes (cached, like the keys they derive from).

        Cell widths are powers of two, so the scan divides by shifting:
        ``shift`` is ``height - level`` and ``span`` is ``1 << shift``.
        The clamp bounds and the key offsets of both probes are folded
        into ready columns, and ``level`` is each level's index, which
        is also its slot offset into :meth:`_ensure_prefix`.
        """
        if self._scan_consts is None:
            _keys, _cells, off, first, last = self._ensure_scan_keys()
            shift = self.height - self.level_values
            self._scan_consts = tuple(column[:, None] for column in (
                shift, self.level_spans, self.level_spans.astype(float),
                first, last + 1, off - first,
                first - 1, last, off - first + 1,
                self.level_starts[:-1], self.level_starts[1:],
                np.arange(self.level_values.shape[0]),
            ))
        return self._scan_consts

    def scan_bounds(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Range sums of the boxes ``[lo[i], hi[i]]``, all levels at once.

        Every query's contained cell run and its two straddling-cell
        candidates are found for every level as ``(levels x B)`` arrays,
        from one rank pass over the level-major keys
        (:meth:`_ensure_scan_keys`, :func:`_rank`).  Straddling cells
        contribute their overlapped span fraction, exactly like the
        scalar ``range_sum`` path.  Per box the sum accumulates level by
        level -- the run, then the left straddler, then the right one --
        which keeps the answers bit-identical to the per-depth loop
        kernel (``INTERVALS.md``).
        """
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        n_levels = self.level_values.shape[0]
        if n_levels == 0 or lo.size == 0:
            return np.zeros(lo.shape[0], dtype=float)
        # Keep the (levels x 3 x boxes) working set cache-sized.
        chunk = max(1, _SCAN_CELLS // n_levels)
        if lo.shape[0] > chunk:
            return np.concatenate([
                self.scan_bounds(lo[i:i + chunk], hi[i:i + chunk])
                for i in range(0, lo.shape[0], chunk)
            ])
        keys, cells = self._ensure_scan_keys()[:2]
        (shift, s, s_float, a_min, a_max, a_key, b_min, b_max, b_key,
         start, end, level) = self._ensure_scan_consts()
        # Contained cell run [a, b] per level; probes clamped into the
        # level's key range find the first cell >= a and the first
        # cell > b (searchsorted 'right' on b == 'left' on b + 1).
        c_lo = lo >> shift
        lo_floor = c_lo << shift
        lo_cut = lo != lo_floor
        a = c_lo + lo_cut
        hi1 = hi + 1
        b = (hi1 >> shift) - 1
        hi1_floor = (b + 1) << shift
        hi_cut = hi1 != hi1_floor
        c_hi = b + hi_cut
        run_lo = _rank(keys, np.minimum(np.maximum(a, a_min), a_max) + a_key,
                       lo)
        run_end = _rank(keys, np.minimum(np.maximum(b, b_min), b_max) + b_key,
                        hi)
        prefix = self._ensure_prefix()
        # Level j's prefix values sit j slots after its rows.
        parts = np.empty((n_levels, 3, lo.shape[0]))
        parts[:, 0] = (prefix[np.maximum(run_end, run_lo) + level]
                       - prefix[run_lo + level])
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
            self.mass[rows] * overlap / s_float, 0.0,
        ).transpose(1, 0, 2)
        # Summing down axis 0 adds the rows strictly in order per box; a
        # lone box would reduce as one contiguous run, which NumPy sums
        # pairwise, so it takes the running sum instead.
        parts = parts.reshape(3 * n_levels, -1)
        if lo.shape[0] == 1:
            return np.cumsum(parts, axis=0)[-1]
        return np.add.reduce(parts, axis=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntervalTable(rows={len(self)}, height={self.height}, "
            f"levels={self.level_values.tolist()})"
        )
