"""Range (query) objects: axis-parallel boxes and multi-range unions.

All summaries in the library answer the same query type: the total
weight of keys inside a :class:`Box` or a :class:`MultiRangeQuery`
(a union of disjoint boxes).  Intervals use *closed* integer endpoints
``[lo, hi]`` so that a single leaf is the box with ``lo == hi``.

Query-plan compiler
-------------------
Every vectorized ``query_many`` kernel consumes the same compiled form
of a query battery, built once by :func:`compile_query_plan`:

* the **flat** layout -- a ``(B, d, 2)`` bounds array over every
  constituent box of every query in battery order, plus per-query box
  ``counts``/``offsets`` (``B = counts.sum()``); per-box kernels sweep
  the flat stack and :meth:`QueryPlan.reduce_boxes` folds per-box
  values back onto queries.  This is the layout every shipped
  ``query_many`` kernel consumes;
* the **padded** layout -- a ``(q, r, d, 2)`` array with
  ``r = max(counts)``: row ``i`` holds query ``i``'s boxes left-aligned
  and is padded with the empty sentinel box ``lo=0, hi=-1`` (zero
  volume, zero overlap with everything).  Exposed (lazily, cached) for
  kernels that want per-query-aligned rectangular broadcasting instead
  of ragged ``reduceat`` folds.

An all-:class:`Box` battery -- what a serving flush compiles -- is
stacked from the boxes' fields in one array construction.  Batteries
with :class:`MultiRangeQuery` members concatenate per-query stacks,
which each query memoizes (queries are immutable, so the memo is
one-shot).  :class:`SortOrderCache` keeps the last compiled battery so
repeated batteries over a snapshot skip the stacking entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class Box:
    """An axis-parallel hyper-rectangle with closed integer extents."""

    lows: Tuple[int, ...]
    highs: Tuple[int, ...]

    def __post_init__(self):
        if len(self.lows) != len(self.highs):
            raise ValueError("lows and highs must have equal length")
        if any(lo > hi for lo, hi in zip(self.lows, self.highs)):
            raise ValueError(f"empty box: lows={self.lows} highs={self.highs}")

    @property
    def dims(self) -> int:
        """Number of dimensions."""
        return len(self.lows)

    @property
    def volume(self) -> int:
        """Number of key values covered."""
        vol = 1
        for lo, hi in zip(self.lows, self.highs):
            vol *= hi - lo + 1
        return vol

    def side(self, axis: int) -> Tuple[int, int]:
        """The closed interval on ``axis``."""
        return self.lows[axis], self.highs[axis]

    def stacked_bounds(self) -> np.ndarray:
        """This box as a ``(1, d, 2)`` bounds array (one-shot memo).

        Boxes are immutable, so the stack is computed once and reused
        by every battery the box appears in.
        """
        cached = self.__dict__.get("_bounds")
        if cached is None:
            cached = np.empty((1, self.dims, 2), dtype=np.int64)
            cached[0, :, 0] = self.lows
            cached[0, :, 1] = self.highs
            cached.setflags(write=False)
            object.__setattr__(self, "_bounds", cached)
        return cached

    def contains_point(self, point: Sequence[int]) -> bool:
        """Whether a single coordinate tuple lies inside the box."""
        return all(
            lo <= int(x) <= hi
            for x, lo, hi in zip(point, self.lows, self.highs)
        )

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized membership over an ``(n, d)`` coordinate array."""
        coords = np.asarray(coords)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        if len(self.lows) == 1:
            # 1-D fast path (the dominant case for interval queries):
            # two fused comparisons, no all-ones mask to initialize.
            column = coords[:, 0]
            return (column >= self.lows[0]) & (column <= self.highs[0])
        mask = np.ones(coords.shape[0], dtype=bool)
        for axis, (lo, hi) in enumerate(zip(self.lows, self.highs)):
            column = coords[:, axis]
            mask &= (column >= lo) & (column <= hi)
        return mask

    @staticmethod
    def contains_many(coords: np.ndarray, boxes) -> np.ndarray:
        """Batched membership of ``coords`` in many boxes at once.

        Parameters
        ----------
        coords:
            ``(n, d)`` integer coordinate array.
        boxes:
            Either an iterable of :class:`Box` or a pre-stacked
            ``(q, d, 2)`` bounds array (see :func:`stack_boxes`).

        Returns
        -------
        ``(q, n)`` boolean mask; row ``i`` is ``boxes[i].contains(coords)``.
        All q x n comparisons happen in one broadcasted NumPy pass.
        """
        bounds = boxes if isinstance(boxes, np.ndarray) else stack_boxes(boxes)
        coords = np.asarray(coords)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        if bounds.shape[0] == 0:
            return np.zeros((0, coords.shape[0]), dtype=bool)
        if bounds.shape[1] != coords.shape[1]:
            raise ValueError(
                f"dimensionality mismatch: boxes have {bounds.shape[1]} "
                f"axes, coords have {coords.shape[1]}"
            )
        if bounds.shape[1] == 1:
            # 1-D fast path: one broadcasted double comparison, no
            # per-axis accumulation loop.
            column = coords[:, 0]
            return (column >= bounds[:, 0, 0, None]) & (
                column <= bounds[:, 0, 1, None]
            )
        # Accumulate per axis so intermediates stay (q, n), never
        # (q, n, d) -- the memory traffic dominates at scale.
        mask = np.empty((bounds.shape[0], coords.shape[0]), dtype=bool)
        np.greater_equal(coords[:, 0], bounds[:, 0, 0, None], out=mask)
        mask &= coords[:, 0] <= bounds[:, 0, 1, None]
        for axis in range(1, coords.shape[1]):
            column = coords[:, axis]
            axis_mask = column >= bounds[:, axis, 0, None]
            axis_mask &= column <= bounds[:, axis, 1, None]
            mask &= axis_mask
        return mask

    def intersects(self, other: "Box") -> bool:
        """Whether the two boxes share at least one key value."""
        return all(
            lo_a <= hi_b and lo_b <= hi_a
            for lo_a, hi_a, lo_b, hi_b in zip(
                self.lows, self.highs, other.lows, other.highs
            )
        )

    def intersection(self, other: "Box") -> Optional["Box"]:
        """The overlapping box, or ``None`` if disjoint."""
        lows = tuple(max(a, b) for a, b in zip(self.lows, other.lows))
        highs = tuple(min(a, b) for a, b in zip(self.highs, other.highs))
        if any(lo > hi for lo, hi in zip(lows, highs)):
            return None
        return Box(lows, highs)

    def contains_box(self, other: "Box") -> bool:
        """Whether ``other`` lies entirely inside this box."""
        return all(
            lo_a <= lo_b and hi_b <= hi_a
            for lo_a, hi_a, lo_b, hi_b in zip(
                self.lows, self.highs, other.lows, other.highs
            )
        )

    def overlap_fraction(self, other: "Box") -> float:
        """Fraction of this box's volume overlapped by ``other``."""
        inter = self.intersection(other)
        if inter is None:
            return 0.0
        return inter.volume / self.volume

    def split(self, axis: int, split_value: int) -> Tuple["Box", "Box"]:
        """Split into ``coord <= split_value`` and ``coord > split_value``."""
        lo, hi = self.side(axis)
        if not lo <= split_value < hi:
            raise ValueError("split value must leave both halves non-empty")
        left_highs = list(self.highs)
        left_highs[axis] = split_value
        right_lows = list(self.lows)
        right_lows[axis] = split_value + 1
        return (
            Box(self.lows, tuple(left_highs)),
            Box(tuple(right_lows), self.highs),
        )


class MultiRangeQuery:
    """A union of pairwise-disjoint boxes (the paper's multi-range query).

    Query accuracy experiments in Section 6 evaluate queries that are
    collections of non-overlapping rectangles; discrepancy on such a
    query grows with the square root of the number of ranges for samples
    (Lemma 4) but linearly for deterministic summaries.
    """

    def __init__(self, boxes: Iterable[Box], check_disjoint: bool = True):
        self._boxes: List[Box] = list(boxes)
        if not self._boxes:
            raise ValueError("query must contain at least one box")
        dims = self._boxes[0].dims
        if any(b.dims != dims for b in self._boxes):
            raise ValueError("all boxes must share dimensionality")
        self._bounds: Optional[np.ndarray] = None
        self._disjoint: Optional[bool] = len(self._boxes) == 1 or None
        if check_disjoint:
            for i, a in enumerate(self._boxes):
                for b in self._boxes[i + 1:]:
                    if a.intersects(b):
                        raise ValueError("query boxes must be disjoint")
            self._disjoint = True

    @property
    def boxes_disjoint(self) -> bool:
        """Whether the boxes are pairwise disjoint (verified lazily).

        Queries built with ``check_disjoint=False`` defer the pairwise
        check until something needs it (e.g. the batched query kernel,
        which is only additive over disjoint boxes); the answer is
        cached.
        """
        if self._disjoint is None:
            self._disjoint = not any(
                a.intersects(b)
                for i, a in enumerate(self._boxes)
                for b in self._boxes[i + 1:]
            )
        return self._disjoint

    @property
    def boxes(self) -> Tuple[Box, ...]:
        """The constituent boxes."""
        return tuple(self._boxes)

    def stacked_bounds(self) -> np.ndarray:
        """The boxes as an ``(r, d, 2)`` bounds array (one-shot memo).

        The box list never changes after construction, so the stack is
        computed on first use and shared by every battery this query
        appears in -- repeated batteries stop re-stacking bounds.
        """
        if self._bounds is None:
            bounds = stack_boxes(self._boxes)
            bounds.setflags(write=False)
            self._bounds = bounds
        return self._bounds

    @property
    def num_ranges(self) -> int:
        """Number of boxes in the union."""
        return len(self._boxes)

    @property
    def dims(self) -> int:
        """Dimensionality of the query."""
        return self._boxes[0].dims

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized membership in the union."""
        coords = np.asarray(coords)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        mask = np.zeros(coords.shape[0], dtype=bool)
        for box in self._boxes:
            mask |= box.contains(coords)
        return mask

    def __iter__(self):
        return iter(self._boxes)

    def __len__(self) -> int:
        return len(self._boxes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiRangeQuery({len(self._boxes)} boxes)"


def interval(lo: int, hi: int) -> Box:
    """One-dimensional closed-interval box."""
    return Box((int(lo),), (int(hi),))


def hierarchy_node_box(hierarchy, depth: int, node: int) -> Box:
    """The 1-D box covered by a hierarchy node."""
    lo, hi = hierarchy.node_interval(depth, node)
    return Box((lo,), (hi - 1,))


def product_box(*sides: Tuple[int, int]) -> Box:
    """Build a box from per-axis closed ``(lo, hi)`` intervals."""
    lows = tuple(int(lo) for lo, _ in sides)
    highs = tuple(int(hi) for _, hi in sides)
    return Box(lows, highs)


# ----------------------------------------------------------------------
# Batched query evaluation (the engine's vectorized hot path)
# ----------------------------------------------------------------------

def stack_boxes(boxes) -> np.ndarray:
    """Stack box bounds into a ``(q, d, 2)`` integer array.

    ``out[i, :, 0]`` are ``boxes[i].lows`` and ``out[i, :, 1]`` the
    highs.  This is the layout :meth:`Box.contains_many` consumes.  The
    fields are read as sequences in one array construction, never
    combined with ``+``: they may be tuples, lists or NumPy arrays (on
    which ``lows + highs`` adds).
    """
    boxes = list(boxes)
    if not boxes:
        return np.zeros((0, 0, 2), dtype=np.int64)
    lows = [box.lows for box in boxes]
    highs = [box.highs for box in boxes]
    dims = len(lows[0])
    lengths = set(map(len, lows))
    lengths.update(map(len, highs))
    if lengths != {dims}:
        raise ValueError("all boxes must share dimensionality")
    values = np.fromiter(
        chain.from_iterable(chain(lows, highs)),
        dtype=np.int64, count=2 * dims * len(boxes),
    )
    return np.ascontiguousarray(
        values.reshape(2, len(boxes), dims).transpose(1, 2, 0)
    )


class QueryPlan(Sequence):
    """A compiled query battery: stacked bounds plus per-query offsets.

    Built by :func:`compile_query_plan`; every vectorized ``query_many``
    kernel consumes one.  The plan behaves as a read-only sequence of
    the original query objects, so it can be handed to any code that
    expects the raw battery (including the scalar fallback loop).

    Layouts (see the module docstring):

    * :attr:`bounds` -- flat ``(B, d, 2)`` stack of every constituent
      box in battery order; :attr:`counts` / :attr:`offsets` delimit
      each query's boxes; :meth:`reduce_boxes` folds per-box values
      back onto queries.  An all-:class:`Box` battery (the serving
      shape) is stacked straight from the boxes' fields in one array
      construction; batteries with :class:`MultiRangeQuery` members
      concatenate each query's memoized ``stacked_bounds()``.
    * :meth:`padded` -- ``(q, r, d, 2)`` with ``r = max(counts)``,
      left-aligned and padded with the empty sentinel box ``lo=0,
      hi=-1`` (computed lazily, cached on the plan).

    :attr:`single_box` says whether every query is a single box (flat
    == padded, and :meth:`reduce_boxes` is the identity).
    """

    __slots__ = (
        "queries", "bounds", "counts", "offsets", "single_box", "_padded",
    )

    def __init__(self, queries: List[Union[Box, MultiRangeQuery]]):
        self.queries = queries
        self._padded: Optional[np.ndarray] = None
        # One type check per distinct type, not per query.
        if queries and all(
            issubclass(kind, Box) for kind in set(map(type, queries))
        ):
            self.bounds = stack_boxes(queries)
            self.counts = np.ones(len(queries), dtype=np.int64)
            self.offsets = np.arange(len(queries), dtype=np.int64)
            self.single_box = True
            return
        parts = [
            query.stacked_bounds() for query in queries
        ]
        if parts:
            dims = parts[0].shape[1]
            if any(part.shape[1] != dims for part in parts):
                raise ValueError("all queries must share dimensionality")
            self.bounds = (
                parts[0] if len(parts) == 1 else np.concatenate(parts)
            )
        else:
            self.bounds = np.zeros((0, 0, 2), dtype=np.int64)
        self.counts = np.asarray(
            [part.shape[0] for part in parts], dtype=np.int64
        )
        self.offsets = np.concatenate(
            ([0], np.cumsum(self.counts)[:-1])
        ) if parts else np.zeros(0, dtype=np.int64)
        self.single_box = bool((self.counts == 1).all())

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, index):
        return self.queries[index]

    @property
    def dims(self) -> int:
        """Dimensionality of the battery (0 for an empty one)."""
        return self.bounds.shape[1]

    @property
    def num_boxes(self) -> int:
        """Total constituent boxes across the battery."""
        return self.bounds.shape[0]

    def padded(self) -> np.ndarray:
        """The ``(q, r, d, 2)`` padded-bounds layout (lazy, cached).

        Row ``i`` holds query ``i``'s boxes left-aligned; padding slots
        are the empty sentinel ``lo=0, hi=-1``, whose overlap with any
        box (and whose volume) is zero, so rectangular kernels need no
        validity mask for additive contributions.
        """
        if self._padded is None:
            q = len(self.queries)
            r = int(self.counts.max()) if q else 0
            padded = np.zeros((q, r, self.dims, 2), dtype=np.int64)
            padded[:, :, :, 1] = -1
            slot = (
                np.arange(self.bounds.shape[0])
                - np.repeat(self.offsets, self.counts)
            )
            padded[np.repeat(np.arange(q), self.counts), slot] = self.bounds
            padded.setflags(write=False)
            self._padded = padded
        return self._padded

    def reduce_boxes(self, per_box: np.ndarray) -> np.ndarray:
        """Fold per-box values into per-query sums (additive unions)."""
        per_box = np.asarray(per_box)
        if self.single_box:
            return per_box
        return np.add.reduceat(per_box, self.offsets)


def compile_query_plan(
    queries: Union["QueryPlan", Iterable[Union[Box, MultiRangeQuery]]]
) -> QueryPlan:
    """Compile a battery into a :class:`QueryPlan` (idempotent).

    A battery that is already a plan is returned as-is, so kernels can
    unconditionally compile their input and callers that serve several
    summaries from one battery (the stream engine, the frontend) pay
    the stacking once.
    """
    if isinstance(queries, QueryPlan):
        return queries
    return QueryPlan(list(queries))


def flatten_queries(
    queries: Sequence[Union[Box, MultiRangeQuery]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a battery of queries into stacked box bounds.

    Accepts any sequence (list, tuple, ...) whose elements are
    :class:`Box` or :class:`MultiRangeQuery`, or an already-compiled
    :class:`QueryPlan`.  Returns ``(bounds, counts)`` where
    ``bounds`` is the ``(B, d, 2)`` stack of every constituent box in
    order and ``counts[i]`` is the number of boxes of query ``i``.
    """
    plan = compile_query_plan(queries)
    return plan.bounds, plan.counts


def batch_union_masks(queries, coords: np.ndarray) -> np.ndarray:
    """``(q, n)`` union-membership masks for a battery of queries.

    Row ``i`` equals ``queries[i].contains(coords)`` -- membership in
    the *union* of the query's boxes -- but every box of every query is
    evaluated in a single broadcasted pass and the per-query OR is a
    single ``logical_or.reduceat``.
    """
    coords = np.asarray(coords)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    plan = compile_query_plan(queries)
    if plan.counts.size == 0:
        return np.zeros((0, coords.shape[0]), dtype=bool)
    box_masks = Box.contains_many(coords, plan.bounds)
    if plan.single_box:
        return box_masks
    return np.logical_or.reduceat(box_masks, plan.offsets, axis=0)


def _dense_box_sums(
    bounds: np.ndarray,
    coords: np.ndarray,
    values: np.ndarray,
    chunk_elems: int,
) -> np.ndarray:
    """Weighted in-box sums via chunked dense membership masks.

    ``O(B * n * d)`` streaming boolean work; the right kernel when most
    boxes cover most points (sparse candidate lists would be as large
    as the dense mask but cost per-element index arithmetic).
    """
    n_boxes = bounds.shape[0]
    n = coords.shape[0]
    per_box = np.empty(n_boxes, dtype=float)
    rows = max(1, chunk_elems // max(1, n))
    for start in range(0, n_boxes, rows):
        stop = min(n_boxes, start + rows)
        mask = Box.contains_many(coords, bounds[start:stop])
        per_box[start:stop] = mask.astype(values.dtype) @ values
    return per_box


def _sparse_pivot_sums(
    pivot: int,
    sorted_coords: np.ndarray,
    sorted_values: np.ndarray,
    bounds: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    chunk_elems: int,
) -> np.ndarray:
    """In-box sums for boxes sharing one pivot axis (sort-based sweep).

    ``sorted_coords``/``sorted_values`` are the data ordered by the
    pivot axis; ``left``/``right`` delimit each box's candidate slice
    in that order.  Only candidates are verified against the remaining
    axes, chunked so the concatenated index arrays stay small.
    """
    n_boxes = bounds.shape[0]
    dims = sorted_coords.shape[1]
    other_axes = [axis for axis in range(dims) if axis != pivot]
    # Contiguous per-axis columns make the candidate gathers 1-D.
    axis_columns = {
        axis: np.ascontiguousarray(sorted_coords[:, axis])
        for axis in other_axes
    }
    spans = {
        axis: (bounds[:, axis, 1] - bounds[:, axis, 0]).astype(np.uint64)
        for axis in other_axes
    }
    lengths = right - left
    per_box = np.zeros(n_boxes, dtype=float)
    # Chunk boundaries come from one cumsum, not a Python scan.
    cum = np.concatenate(([0], np.cumsum(lengths)))
    chunk_starts = [0]
    while chunk_starts[-1] < n_boxes:
        start = chunk_starts[-1]
        stop = int(
            np.searchsorted(cum, cum[start] + chunk_elems, side="right") - 1
        )
        chunk_starts.append(max(stop, start + 1))
    for start, stop in zip(chunk_starts[:-1], chunk_starts[1:]):
        chunk_lengths = lengths[start:stop]
        total = int(cum[stop] - cum[start])
        if total == 0:
            continue
        # rows[k]: the k-th candidate row (in pivot-sorted order), by
        # the concatenated-ranges trick fused into a single repeat.
        offsets = cum[start:stop] - cum[start]
        rows = np.arange(total, dtype=np.int64) + np.repeat(
            left[start:stop] - offsets, chunk_lengths
        )
        weights = sorted_values[rows]
        for axis in other_axes:
            column = axis_columns[axis][rows]
            lo = np.repeat(bounds[start:stop, axis, 0], chunk_lengths)
            span = np.repeat(spans[axis][start:stop], chunk_lengths)
            # Closed-interval check in one compare: (column - lo)
            # reinterpreted as unsigned wraps negatives far above any
            # span.  In-place ops keep the temporaries down.
            np.subtract(column, lo, out=column)
            weights *= column.view(np.uint64) <= span
        nonzero = chunk_lengths > 0
        per_box[start:stop][nonzero] = np.add.reduceat(
            weights, offsets[nonzero]
        )
    return per_box


def prepare_sort_orders(coords: np.ndarray, values: np.ndarray) -> dict:
    """Precompute the per-axis sort orders used by the batched kernel.

    The ``O(d n log n)`` argsorts (plus the sorted coordinate/value
    gathers and, in 1-D, the prefix sums) dominate
    :func:`batch_query_sums` on repeated batteries over an unchanged
    snapshot.  This captures everything that depends only on the data
    -- not on the queries -- so a cached result leaves just the
    per-battery ``searchsorted`` and candidate sweeps.
    """
    coords = np.asarray(coords)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    values = np.asarray(values, dtype=float)
    if coords.shape[0] == 0 or not np.issubdtype(coords.dtype, np.integer):
        # Float coordinates (or no data): only the dense kernel applies.
        return {"sorted": False}
    coords = coords.astype(np.int64, copy=False)
    dims = coords.shape[1]
    axes = []
    prepared = {"sorted": True, "axes": axes}
    for axis in range(dims):
        order = np.argsort(coords[:, axis], kind="stable")
        if dims == 1:
            axes.append({"column": coords[order, 0]})
            prepared["prefix"] = np.concatenate(
                ([0.0], np.cumsum(values[order]))
            )
        else:
            sorted_coords = coords[order]
            axes.append({
                "column": np.ascontiguousarray(sorted_coords[:, axis]),
                "coords": sorted_coords,
                "values": values[order],
            })
    return prepared


class SortOrderCache:
    """Single-slot cache of :func:`prepare_sort_orders`, keyed by version.

    A summary that answers repeated query batteries over a
    slowly-changing snapshot holds one of these and passes it -- with a
    version counter it bumps on every data change -- to
    :func:`batch_query_sums`.  The per-axis sorts are then computed
    once per snapshot version instead of once per battery.  Only the
    latest version is retained (the stream use case never queries old
    snapshots through the same cache).
    """

    __slots__ = ("_version", "_prepared", "_plan_key", "_plan")

    def __init__(self):
        self._version = None
        self._prepared = None
        self._plan_key = None
        self._plan = None

    def fetch(self, version, coords: np.ndarray, values: np.ndarray) -> dict:
        """The prepared orders for ``version``, computing on miss."""
        if self._version != version or self._prepared is None:
            self._prepared = prepare_sort_orders(coords, values)
            self._version = version
        return self._prepared

    def fetch_plan(self, queries) -> "QueryPlan":
        """The compiled :class:`QueryPlan` of a battery (one-slot memo).

        Keyed by the identity of the query objects; the cached plan
        holds strong references to them, so the ids stay valid for the
        lifetime of the slot.  Repeated batteries of the same query
        objects (the serving hot path) skip the stacking entirely;
        plans are data-independent, so the slot survives version bumps.
        """
        if isinstance(queries, QueryPlan):
            return queries
        queries = list(queries)
        key = tuple(map(id, queries))
        if self._plan is None or self._plan_key != key:
            self._plan = QueryPlan(queries)
            self._plan_key = key
        return self._plan

    def invalidate(self) -> None:
        """Drop the cached orders (e.g. after an in-place data change)."""
        self._version = None
        self._prepared = None
        self._plan_key = None
        self._plan = None


def _batch_box_sums(
    bounds: np.ndarray,
    coords: np.ndarray,
    values: np.ndarray,
    chunk_elems: int,
    prepared: Optional[dict] = None,
) -> np.ndarray:
    """Weighted in-box sums for a stack of boxes via sort-based sweeps.

    Every axis is sorted once and each box's candidate range on each
    axis is located with ``searchsorted``; each box is then swept along
    its most selective (*pivot*) axis, verifying only the candidates
    against the remaining axes.  Total work is
    ``O(d n log n + sum_b min_axis |candidates_b|)`` instead of the
    dense ``O(B * n * d)`` of a broadcasted membership matrix -- for
    the selective boxes of real query batteries that is an order of
    magnitude less, and it never materializes a ``(B, n)`` array.
    Batteries whose boxes cover most of the data fall back to the
    dense kernel, which wins at high density.

    ``prepared`` (from :func:`prepare_sort_orders`, possibly via a
    :class:`SortOrderCache`) supplies the data-dependent sort orders so
    repeated batteries over the same snapshot skip the re-sort.
    """
    n_boxes = bounds.shape[0]
    n, dims = coords.shape
    if prepared is None:
        prepared = prepare_sort_orders(coords, values)
    if not prepared["sorted"]:
        return _dense_box_sums(bounds, coords, values, chunk_elems)
    axes = prepared["axes"]
    lefts, rights = [], []
    for axis in range(dims):
        column = axes[axis]["column"]
        lefts.append(np.searchsorted(column, bounds[:, axis, 0], side="left"))
        rights.append(
            np.searchsorted(column, bounds[:, axis, 1], side="right")
        )
    if dims == 1:
        prefix = prepared["prefix"]
        return prefix[rights[0]] - prefix[lefts[0]]
    lengths_by_axis = np.stack(
        [right - left for left, right in zip(lefts, rights)]
    )
    if 3 * int(lengths_by_axis.min(axis=0).sum()) > n_boxes * n:
        return _dense_box_sums(bounds, coords, values, chunk_elems)
    pivot_of = np.argmin(lengths_by_axis, axis=0)
    per_box = np.zeros(n_boxes, dtype=float)
    for pivot in range(dims):
        selected = np.flatnonzero(pivot_of == pivot)
        if selected.size == 0:
            continue
        per_box[selected] = _sparse_pivot_sums(
            pivot,
            axes[pivot]["coords"],
            axes[pivot]["values"],
            bounds[selected],
            lefts[pivot][selected],
            rights[pivot][selected],
            chunk_elems,
        )
    return per_box


def batch_query_sums(
    queries: Sequence[Union[Box, MultiRangeQuery]],
    coords: np.ndarray,
    values: np.ndarray,
    chunk_elems: int = 4_000_000,
    *,
    cache: Optional[SortOrderCache] = None,
    version: int = 0,
) -> np.ndarray:
    """Weighted range sums for a battery of queries in one NumPy pass.

    For each query (a :class:`Box` or :class:`MultiRangeQuery`) returns
    ``values[query.contains(coords)].sum()``.  Query bounds are stacked
    into a ``(B, d, 2)`` array, all per-box weighted sums are computed
    by one sort-based sweep (:func:`_batch_box_sums`), and per-query
    totals fall out of an ``add.reduceat`` over each query's boxes
    (disjointness makes the union sum additive).  Queries whose boxes
    are *not* pairwise disjoint (possible only with
    ``check_disjoint=False``) are answered with a union mask instead,
    so the result always matches the per-query reference.

    ``chunk_elems`` caps the length of the intermediate candidate
    arrays so huge batteries stay cache- and memory-friendly.

    ``cache``/``version`` enable the repeated-battery fast path: pass a
    :class:`SortOrderCache` together with a counter identifying the
    current ``(coords, values)`` snapshot, and the data's sort orders
    are reused across calls until the version changes.  The caller owns
    the contract that a version uniquely identifies the snapshot.  The
    cache also retains the last compiled :class:`QueryPlan`, so a
    repeated battery of the same query objects skips the bounds
    stacking too; alternatively pass a pre-compiled plan as
    ``queries``.
    """
    plan = (
        cache.fetch_plan(queries)
        if cache is not None
        else compile_query_plan(queries)
    )
    queries = plan.queries
    q = len(queries)
    coords = np.asarray(coords)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    values = np.asarray(values, dtype=float)
    if q == 0:
        return np.zeros(0, dtype=float)
    if coords.shape[0] == 0:
        return np.zeros(q, dtype=float)
    if plan.dims != coords.shape[1]:
        raise ValueError(
            f"dimensionality mismatch: boxes have {plan.dims} "
            f"axes, coords have {coords.shape[1]}"
        )
    # A battery of single boxes has no union to double-count.
    overlapping = [] if plan.single_box else [
        i
        for i, query in enumerate(queries)
        if plan.counts[i] > 1
        and isinstance(query, MultiRangeQuery)
        and not query.boxes_disjoint
    ]
    prepared = (
        cache.fetch(version, coords, values) if cache is not None else None
    )
    per_box = _batch_box_sums(
        plan.bounds, coords, values, chunk_elems, prepared
    )
    out = plan.reduce_boxes(per_box)
    for i in overlapping:  # rare: additive sum would double-count
        mask = queries[i].contains(coords)
        out[i] = float(values[mask].sum())
    return out
