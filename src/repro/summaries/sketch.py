"""Count-Sketch and dyadic-rectangle sketch summaries (the ``sketch`` baseline).

The Count-Sketch of Charikar, Chen, Farach-Colton [4]: ``depth`` rows of
``width`` counters; each key hashes to one counter per row with a
random sign, and a key's frequency estimate is the median of its signed
counters.

For 2-D range sums we keep one sketch per pair of dyadic levels
(``O(log X * log Y)`` sketches); a box query decomposes into canonical
dyadic rectangles, each estimated from the sketch at its level pair.
The total counter budget is ``s``, split evenly across the sketches --
this is exactly why the paper finds sketches need "much larger" space
before becoming accurate on two-dimensional data.

Sketch tables are *linear* in the input: updating is vector addition,
so sketches are natively incremental (``update``/``snapshot``) and --
when two sketches share hash functions -- mergeable by plain table
addition.  Shard builds and stream panes therefore derive their hash
functions from a shared ``hash_seed`` (one seed per engine, not per
shard), which makes ``merge`` of per-shard sketches *exactly* equal to
a monolithic build of the union.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.types import Dataset
from repro.structures.dyadic import (
    dyadic_decompose_interval,
    dyadic_decompose_intervals,
)
from repro.structures.ranges import Box
from repro.summaries.base import (
    IncrementalSummary,
    Summary,
    battery_plans,
    coerce_batch,
)

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Hash seed used when the caller does not supply one; shared by every
#: build so independently-built sketches merge by default.
DEFAULT_HASH_SEED = 0xC0FFEE


def median_rows(block: np.ndarray) -> np.ndarray:
    """``np.median(block, axis=0)`` of a ``(depth, n)`` block, bit for bit.

    An odd-even transposition network of elementwise ``minimum`` /
    ``maximum`` sorts each column across the rows; the median is the
    middle row, or the mean of the two middle rows at even depth.
    ``np.median`` averages through a sum that starts at ``+0.0``, so a
    zero median is always ``+0.0``; adding ``0.0`` first does the same
    here, and the even case sums in the same order, which keeps every
    bit (signed zeros, subnormals and overflow to infinity included).
    ``depth`` elementwise passes replace a per-column partition, which
    costs far more on the short columns of a sketch.
    """
    rows = list(block)
    depth = len(rows)
    for round_ in range(depth):
        for i in range(round_ % 2, depth - 1, 2):
            low, high = rows[i], rows[i + 1]
            rows[i], rows[i + 1] = np.minimum(low, high), np.maximum(low, high)
    middle = depth // 2
    if depth % 2:
        return rows[middle] + 0.0
    return (rows[middle - 1] + 0.0 + rows[middle]) / 2


def _hash(keys, mul, add, sign_mul, sign_add, width):
    """Multiply-shift buckets and ``+-1`` signs of uint64 ``keys``.

    The four hash constants broadcast against ``keys``: one row's
    scalars, a ``(depth, 1)`` column for every row, or one row per key
    for the stacked level sketches of :class:`DyadicSketchSummary`.
    """
    with np.errstate(over="ignore"):
        buckets = ((keys * mul + add) >> np.uint64(33)) % np.uint64(width)
        sign_bits = (keys * sign_mul + sign_add) >> np.uint64(63)
    return buckets, 1.0 - 2.0 * sign_bits


class CountSketch:
    """A Count-Sketch over 64-bit integer keys.

    ``seed`` (or a ``rng``) determines the hash functions.  Two
    sketches merge iff their hash functions are identical, so shards of
    one logical sketch must be built from the same seed.
    """

    def __init__(
        self,
        width: int,
        depth: int,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[int] = None,
    ):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        if seed is not None:
            rng = np.random.default_rng(seed)
        elif rng is None:
            rng = np.random.default_rng(DEFAULT_HASH_SEED)
        self.width = int(width)
        self.depth = int(depth)
        self._table = np.zeros((self.depth, self.width), dtype=float)
        # Multiply-shift hashing: odd 64-bit multipliers per row.
        self._bucket_mul = rng.integers(
            1, 2**63, size=self.depth, dtype=np.uint64
        ) * np.uint64(2) + np.uint64(1)
        self._bucket_add = rng.integers(
            0, 2**63, size=self.depth, dtype=np.uint64
        )
        self._sign_mul = rng.integers(
            1, 2**63, size=self.depth, dtype=np.uint64
        ) * np.uint64(2) + np.uint64(1)
        self._sign_add = rng.integers(
            0, 2**63, size=self.depth, dtype=np.uint64
        )

    def _hash_rows(self, keys, rows) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`_hash` of ``keys`` under row ``rows`` (or a column of
        rows, hashing every key for each)."""
        return _hash(
            np.asarray(keys).astype(np.uint64, copy=False),
            self._bucket_mul[rows], self._bucket_add[rows],
            self._sign_mul[rows], self._sign_add[rows], self.width,
        )

    def update_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Add ``values`` to the sketch under ``keys`` (vectorized)."""
        values = np.asarray(values, dtype=float)
        for row in range(self.depth):
            buckets, signs = self._hash_rows(keys, row)
            np.add.at(self._table[row], buckets, signs * values)

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        """Median-of-rows estimates for a batch of keys."""
        if np.size(keys) == 0:
            return np.zeros(0)
        rows = np.arange(self.depth)[:, None]
        buckets, signs = self._hash_rows(keys, rows)
        return median_rows(self._table[rows, buckets] * signs)

    def estimate(self, key: int) -> float:
        """Estimate for a single key."""
        return float(self.estimate_many(np.asarray([key], dtype=np.uint64))[0])

    @property
    def counters(self) -> int:
        """Total number of counters held."""
        return self.depth * self.width

    def same_hashes(self, other: "CountSketch") -> bool:
        """Whether the two sketches share hash functions (mergeable)."""
        return (
            self.width == other.width
            and self.depth == other.depth
            and np.array_equal(self._bucket_mul, other._bucket_mul)
            and np.array_equal(self._bucket_add, other._bucket_add)
            and np.array_equal(self._sign_mul, other._sign_mul)
            and np.array_equal(self._sign_add, other._sign_add)
        )

    def copy(self) -> "CountSketch":
        """A sketch with the same hashes and a copied table."""
        clone = object.__new__(CountSketch)
        clone.width = self.width
        clone.depth = self.depth
        clone._table = self._table.copy()
        clone._bucket_mul = self._bucket_mul
        clone._bucket_add = self._bucket_add
        clone._sign_mul = self._sign_mul
        clone._sign_add = self._sign_add
        return clone

    def merge(self, other: "CountSketch") -> "CountSketch":
        """Merge two shared-seed sketches by table addition.

        Sketch tables are linear in the input, so the merged table
        equals the table a single sketch would hold after seeing both
        inputs -- the merge is exact, not an approximation of one.
        """
        if not isinstance(other, CountSketch):
            raise TypeError(
                f"cannot merge CountSketch with {type(other).__name__}"
            )
        if not self.same_hashes(other):
            raise ValueError(
                "cannot merge sketches with different hash functions; "
                "build shards from a shared hash seed"
            )
        merged = self.copy()
        merged._table += other._table
        return merged

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Table plus hash parameters as codec-friendly primitives."""
        return {
            "width": self.width,
            "depth": self.depth,
            "table": self._table,
            "bucket_mul": self._bucket_mul,
            "bucket_add": self._bucket_add,
            "sign_mul": self._sign_mul,
            "sign_add": self._sign_add,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CountSketch":
        """Rebuild a sketch from :meth:`to_state` output."""
        sketch = object.__new__(cls)
        sketch.width = int(state["width"])
        sketch.depth = int(state["depth"])
        sketch._table = np.asarray(state["table"], dtype=float)
        sketch._bucket_mul = np.asarray(state["bucket_mul"], dtype=np.uint64)
        sketch._bucket_add = np.asarray(state["bucket_add"], dtype=np.uint64)
        sketch._sign_mul = np.asarray(state["sign_mul"], dtype=np.uint64)
        sketch._sign_add = np.asarray(state["sign_add"], dtype=np.uint64)
        return sketch


def _axis_bits(size: int) -> int:
    bits = int(size - 1).bit_length() if size > 1 else 1
    if (1 << bits) < size:
        bits += 1
    return bits


class DyadicSketchSummary(Summary, IncrementalSummary):
    """Per-dyadic-level Count-Sketches answering box range sums (1-D/2-D).

    Hash functions come from ``hash_seed`` when given (the shard- and
    stream-friendly path: every build from the same seed is mergeable
    by table addition), from ``rng`` when only that is given (the
    legacy independent-hashes path), and from ``DEFAULT_HASH_SEED``
    when neither is.  Natively incremental: tables are linear, so
    :meth:`update` is vectorized addition and :meth:`snapshot` copies
    the tables.
    """

    def __init__(
        self,
        dataset: Optional[Dataset] = None,
        s: int = 1,
        depth: int = 3,
        rng: Optional[np.random.Generator] = None,
        hash_seed: Optional[int] = None,
        *,
        domain=None,
    ):
        if dataset is None and domain is None:
            raise ValueError("need a dataset or a domain")
        if domain is None:
            domain = dataset.domain
        if domain.dims not in (1, 2):
            raise ValueError("sketch summary supports 1-D and 2-D data")
        if s < 1:
            raise ValueError("counter budget must be >= 1")
        if hash_seed is None and rng is None:
            hash_seed = DEFAULT_HASH_SEED
        hash_rng = (
            np.random.default_rng(hash_seed) if hash_seed is not None else rng
        )
        self._dims = domain.dims
        self._bits = tuple(_axis_bits(size) for size in domain.sizes)
        self._depth = int(depth)
        level_pairs = self._level_pairs()
        self._width = max(1, s // (len(level_pairs) * depth))
        self._sketches: Dict[tuple, CountSketch] = {
            pair: CountSketch(self._width, depth, hash_rng)
            for pair in level_pairs
        }
        self._version = 0
        if dataset is not None:
            self.update(dataset.coords, dataset.weights)

    def _level_pairs(self) -> List[tuple]:
        """Every dyadic level(-pair), ``x`` major: pair ``(dx, dy)`` has
        index ``dx * (bits_y + 1) + dy``."""
        return list(product(*(range(bits + 1) for bits in self._bits)))

    @classmethod
    def for_domain(
        cls,
        domain,
        s: int,
        depth: int = 3,
        hash_seed: int = DEFAULT_HASH_SEED,
    ) -> "DyadicSketchSummary":
        """An empty sketch summary over ``domain`` (streaming entry)."""
        return cls(None, s, depth, hash_seed=hash_seed, domain=domain)

    def _pack(self, level_pair: tuple, coords: np.ndarray) -> np.ndarray:
        """Cell ids of points (or cells) at a dyadic level pair."""
        if self._dims == 1:
            (dx,) = level_pair
            return (coords[:, 0].astype(np.uint64)) >> np.uint64(
                self._bits[0] - dx
            )
        dx, dy = level_pair
        kx = coords[:, 0].astype(np.uint64) >> np.uint64(self._bits[0] - dx)
        ky = coords[:, 1].astype(np.uint64) >> np.uint64(self._bits[1] - dy)
        return (kx << np.uint64(32)) | ky

    # ------------------------------------------------------------------
    # Incremental summary protocol
    # ------------------------------------------------------------------
    def update(self, keys, weights) -> None:
        """Add one micro-batch of weighted keys to every level sketch."""
        coords, weights = coerce_batch(keys, weights, dims=self._dims)
        if coords.shape[0] == 0:
            return
        for pair, sketch in self._sketches.items():
            sketch.update_many(self._pack(pair, coords), weights)
        self._version += 1

    def snapshot(self) -> "DyadicSketchSummary":
        """A table-copied clone, insulated from later updates."""
        clone = object.__new__(DyadicSketchSummary)
        clone._dims = self._dims
        clone._bits = self._bits
        clone._depth = self._depth
        clone._width = self._width
        clone._sketches = {
            pair: sketch.copy() for pair, sketch in self._sketches.items()
        }
        clone._version = self._version
        return clone

    @property
    def version(self) -> int:
        """Counter bumped on every update batch."""
        return self._version

    # ------------------------------------------------------------------
    # Mergeable summary protocol
    # ------------------------------------------------------------------
    def merge(self, other: "DyadicSketchSummary") -> "DyadicSketchSummary":
        """Merge shard sketches by per-level table addition (exact)."""
        if not isinstance(other, DyadicSketchSummary):
            raise TypeError(
                f"cannot merge DyadicSketchSummary with {type(other).__name__}"
            )
        if self._dims != other._dims or self._bits != other._bits:
            raise ValueError("cannot merge sketches over different domains")
        if set(self._sketches) != set(other._sketches):
            raise ValueError("cannot merge sketches with different levels")
        merged = object.__new__(DyadicSketchSummary)
        merged._dims = self._dims
        merged._bits = self._bits
        merged._depth = self._depth
        merged._width = self._width
        merged._sketches = {
            pair: sketch.merge(other._sketches[pair])
            for pair, sketch in self._sketches.items()
        }
        merged._version = self._version + other._version
        return merged

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Every level sketch's state as codec-friendly primitives."""
        return {
            "dims": self._dims,
            "bits": self._bits,
            "depth": self._depth,
            "width": self._width,
            "version": self._version,
            "sketches": {
                pair: sketch.to_state()
                for pair, sketch in self._sketches.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "DyadicSketchSummary":
        """Rebuild a dyadic sketch summary from :meth:`to_state` output."""
        summary = object.__new__(cls)
        summary._dims = int(state["dims"])
        summary._bits = tuple(int(b) for b in state["bits"])
        summary._depth = int(state["depth"])
        summary._width = int(state["width"])
        summary._version = int(state["version"])
        summary._sketches = {
            tuple(int(level) for level in pair): CountSketch.from_state(sk)
            for pair, sk in state["sketches"].items()
        }
        return summary

    @property
    def size(self) -> int:
        """Total number of counters across all sketches."""
        return sum(sk.counters for sk in self._sketches.values())

    def query(self, box: Box) -> float:
        """Range-sum estimate via canonical dyadic decomposition."""
        per_axis = [
            dyadic_decompose_interval(
                box.lows[a], box.highs[a], self._bits[a]
            )
            for a in range(self._dims)
        ]
        # Group the decomposition rectangles by level pair so each
        # sketch is probed once with a vector of keys.
        grouped: Dict[tuple, List[int]] = defaultdict(list)
        if self._dims == 1:
            for depth_x, idx_x in per_axis[0]:
                grouped[(depth_x,)].append(idx_x)
        else:
            for depth_x, idx_x in per_axis[0]:
                for depth_y, idx_y in per_axis[1]:
                    grouped[(depth_x, depth_y)].append(
                        (idx_x << 32) | idx_y
                    )
        total = 0.0
        for pair, cell_keys in grouped.items():
            keys = np.asarray(cell_keys, dtype=np.uint64)
            total += float(self._sketches[pair].estimate_many(keys).sum())
        return total

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def query_many(self, queries: Iterable) -> List[float]:
        """Estimates for a whole battery in one decomposition pass.

        All query boxes are dyadically decomposed at once
        (:meth:`_cover`), every cell or rectangle of every level is
        estimated in one pass over the stacked level sketches
        (:meth:`_estimate`), and the estimates add into their boxes in
        the per-level kernels' order -- bit-identical to probing each
        level sketch in turn.  Answers match the scalar :meth:`query`
        up to floating-point summation order.
        """
        plan = battery_plans(self).fetch_plan(queries)
        if len(plan) == 0:
            return []
        if plan.dims != self._dims:
            raise ValueError(
                f"dimensionality mismatch: sketch is {self._dims}-D, "
                f"queries are {plan.dims}-D"
            )
        bounds = plan.bounds
        # Cap the hashed (cell, row) pairs per chunk: a box covers up
        # to 2 bits cells per axis.
        chunk = max(1, 4_000_000 // (
            self._depth * int(np.prod([2 * bits for bits in self._bits]))
        ))
        per_box = []
        for start in range(0, bounds.shape[0], chunk):
            part = bounds[start:start + chunk]
            pairs, keys, owners = self._cover(part)
            per_box.append(np.bincount(
                owners, weights=self._estimate(pairs, keys),
                minlength=part.shape[0],
            ))
        return plan.reduce_boxes(np.concatenate(per_box)).tolist()

    def _stacked_levels(self):
        """Every level sketch's table and hash constants, stacked.

        ``tables`` holds the ``(depth, width)`` tables back to back in
        :meth:`_level_pairs` order.  ``consts`` is ``(pairs, 5 *
        depth)``: row ``p`` holds pair ``p``'s per-row bucket
        multipliers and addends, sign multipliers and addends, and the
        rows' offsets into ``tables``, so a battery gathers its cells'
        constants as whole rows.  Rebuilt only after :meth:`update`
        bumps :attr:`version`.
        """
        cached = self.__dict__.get("_stacked")
        if cached is None or cached[0] != self._version:
            states = [self._sketches[pair].to_state()
                      for pair in self._level_pairs()]
            rows = np.arange(len(states) * self._depth, dtype=np.uint64)
            consts = np.array([
                [state[name] for state in states]
                for name in ("bucket_mul", "bucket_add", "sign_mul",
                             "sign_add")
            ] + [rows.reshape(len(states), -1) * np.uint64(self._width)],
                dtype=np.uint64)
            consts = np.ascontiguousarray(
                consts.transpose(1, 0, 2).reshape(len(states), -1)
            )
            tables = np.concatenate([state["table"].ravel()
                                     for state in states])
            cached = (self._version, tables, consts)
            self.__dict__["_stacked"] = cached
        return cached[1], cached[2]

    def _estimate(self, pairs: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Estimates of cells ``keys`` at level-pair indices ``pairs``.

        Every cell is hashed for every row in one :func:`_hash` call, on
        the pair's constants, and the median over rows taken
        (:func:`median_rows`) -- bit for bit the level sketch's own
        ``estimate_many``.  A cell shared by several boxes is simply
        estimated once per box.
        """
        tables, consts = self._stacked_levels()
        # Gathered as rows, then laid out rows-first: every hash and
        # median pass below runs over contiguous (depth, cells) arrays.
        mul, add, sign_mul, sign_add, rows = np.ascontiguousarray(
            consts.take(pairs, axis=0).T
        ).reshape(5, self._depth, -1)
        buckets, signs = _hash(keys.astype(np.uint64, copy=False), mul, add,
                               sign_mul, sign_add, self._width)
        return median_rows(tables[rows + buckets] * signs)

    def _cover(self, bounds: np.ndarray):
        """``(level-pair indices, cell keys, owners)`` covering a chunk
        of boxes, in the order the estimates add into each box.

        1-D: the dyadic decomposition's order.  2-D: the per-axis
        decompositions crossed into rectangles with repeat/rank
        arithmetic (no per-query Python), grouped by level pair
        (stable).
        """
        if self._dims == 1:
            return dyadic_decompose_intervals(
                bounds[:, 0, 0], bounds[:, 0, 1], self._bits[0]
            )
        n_boxes = bounds.shape[0]
        dx, ix, ox = dyadic_decompose_intervals(
            bounds[:, 0, 0], bounds[:, 0, 1], self._bits[0]
        )
        dy, iy, oy = dyadic_decompose_intervals(
            bounds[:, 1, 0], bounds[:, 1, 1], self._bits[1]
        )
        # Owner-major cell lists (decomposition output is depth-major).
        x_order = np.argsort(ox, kind="stable")
        dx, ix, ox = dx[x_order], ix[x_order], ox[x_order]
        y_order = np.argsort(oy, kind="stable")
        dy, iy = dy[y_order], iy[y_order]
        cx = np.bincount(ox, minlength=n_boxes)
        cy = np.bincount(oy[y_order], minlength=n_boxes)
        counts_xy = cx * cy
        total = int(counts_xy.sum())
        rect_owner = np.repeat(np.arange(n_boxes), counts_xy)
        # Rectangle k of box b is (x-cell k // cy[b], y-cell k % cy[b]).
        rect_dx = np.repeat(dx, cy[ox])
        rect_ix = np.repeat(ix, cy[ox])
        xy_starts = np.concatenate(([0], np.cumsum(counts_xy)[:-1]))
        rank = np.arange(total) - np.repeat(xy_starts, counts_xy)
        y_starts = np.concatenate(([0], np.cumsum(cy)[:-1]))
        pos = y_starts[rect_owner] + rank % cy[rect_owner]
        rect_dy = dy[pos]
        rect_iy = iy[pos]
        packed = (rect_ix.astype(np.uint64) << np.uint64(32)) | rect_iy.astype(
            np.uint64
        )
        pair_id = rect_dx * (self._bits[1] + 1) + rect_dy
        order = np.argsort(pair_id, kind="stable")
        return pair_id[order], packed[order], rect_owner[order]
