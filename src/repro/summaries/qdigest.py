"""Deterministic adaptive spatial partitioning (the ``qdigest`` baseline).

A multi-dimensional variant of the q-digest [22] in the style of
Hershberger, Shrivastava, Suri, Toth [14]: the domain is recursively
divided "on each dimension in turn" at dyadic midpoints, materializing
the heavy regions.  We drive the division greedily -- always split the
heaviest splittable leaf -- until the node budget is reached, which
adapts the resolution to the weight distribution exactly as retaining
heavy ranges does.  The build expands the splitting tree in array
passes and replays the heap loop (``tests/oracles.py``) over it.

Queries sum fully-contained leaves exactly and spread a partially
overlapped leaf's weight uniformly over its box (the classic histogram
assumption); the deterministic error is bounded by the total weight of
boundary leaves.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List

import numpy as np

from repro.core.segments import segment_layout, segment_sums, stable_partition
from repro.core.types import Dataset
from repro.structures.ranges import Box, MultiRangeQuery
from repro.summaries.base import Summary, battery_plans


def _expand(coords, weights, lows, highs, s, floor):
    """The greedy build's splitting tree, expanded where pops can reach.

    Each cell expands as its pop would: while its points sit on one
    side of the dyadic midpoint the box shrinks to that half, cycling
    the axes from the cell's depth, then it splits (children get the
    popped depth + 1).  Only each axis' point min/max is needed, and
    every cell in flight halves once per pass.  Pops come in
    non-increasing weight and each splittable pop adds a leaf, so cells
    lighter than the ``(s - 1)``-th heaviest splittable cell found are
    never popped and stay unexpanded, unless at least ``floor`` heavy.

    Returns per-cell weight, pushed box lows/highs, point min/max and
    first child id (-1 if unsplit); the root is cell 0.
    """
    n, dims = coords.shape
    flat, rows = coords.ravel(), np.arange(n)
    root = (np.array([weights.sum()]), lows[None], highs[None],
            coords.min(axis=0)[None], coords.max(axis=0)[None])
    store, parents, firsts, next_id = [root], [], [], 1
    ids = np.flatnonzero((root[3] < root[4]).any(axis=1))
    weight, cur_lo, cur_hi, mn, mx = (part[ids] for part in root)
    top = weight
    t = depth = start = np.zeros(ids.size, dtype=np.int64)
    length = np.full(ids.size, n)
    while ids.size:
        cut = min(top.min() if top.size >= s - 1 else -np.inf, floor)
        live = weight >= cut
        ids, weight, cur_lo, cur_hi, t, depth, mn, mx, start, length = (
            a[live] for a in (
                ids, weight, cur_lo, cur_hi, t, depth, mn, mx, start, length
            )
        )
        r = np.arange(ids.size)
        ax = t % dims
        for k in range(1, dims):  # first axis from t % dims with lo < hi
            ax = np.where(cur_lo[r, ax] < cur_hi[r, ax], ax, (t + k) % dims)
        lo, hi = cur_lo[r, ax], cur_hi[r, ax]
        mid = lo + ((hi - lo) >> 1)
        to_left, to_right = mx[r, ax] <= mid, mn[r, ax] > mid
        cur_hi[r[to_left], ax[to_left]] = mid[to_left]
        cur_lo[r[to_right], ax[to_right]] = mid[to_right] + 1
        t = t + 1
        shrunk = to_left | to_right
        sp = np.flatnonzero(~shrunk)
        pos, seg, off = segment_layout(start[sp], length[sp])
        moved = rows[pos]
        left = flat[moved * dims + ax[sp][seg]] <= mid[sp][seg]
        dest, n_left = stable_partition(left, seg, off)
        moved[dest] = moved.copy()
        rows[pos] = moved
        c_off = np.column_stack((off, off + n_left)).ravel()
        c_len = np.column_stack((n_left, length[sp] - n_left)).ravel()
        c_weight = segment_sums(weights[moved], c_off, c_len)
        points = coords[moved]
        c_mn = np.minimum.reduceat(points, c_off, axis=0)
        c_mx = np.maximum.reduceat(points, c_off, axis=0)
        c_lo, c_hi = (np.repeat(b[sp], 2, axis=0) for b in (cur_lo, cur_hi))
        pair = 2 * np.arange(sp.size)
        c_hi[pair, ax[sp]] = mid[sp]
        c_lo[pair + 1, ax[sp]] = mid[sp] + 1
        c_ids = next_id + np.arange(c_len.size)
        next_id += c_len.size
        store.append((c_weight, c_lo, c_hi, c_mn, c_mx))
        parents.append(ids[sp])
        firsts.append(c_ids[0::2])
        grow = np.flatnonzero((c_mn < c_mx).any(axis=1))
        top = np.concatenate((top, c_weight[grow]))
        if top.size > s - 1:
            top = np.partition(top, top.size - (s - 1))[top.size - (s - 1):]
        c_depth = np.repeat(depth[sp] + 1, 2)
        c_start = np.column_stack((start[sp], start[sp] + n_left)).ravel()
        ids, weight, cur_lo, cur_hi, t, depth, mn, mx, start, length = (
            np.concatenate((a[shrunk], b[grow])) for a, b in (
                (ids, c_ids), (weight, c_weight), (cur_lo, c_lo),
                (cur_hi, c_hi), (t, c_depth), (depth, c_depth), (mn, c_mn),
                (mx, c_mx), (start, c_start), (length, c_len),
            )
        )
    child = np.full(next_id, -1, dtype=np.int64)
    if parents:
        child[np.concatenate(parents)] = np.concatenate(firsts)
    return (*(np.concatenate(column) for column in zip(*store)), child)


def _digest_leaves(coords, weights, lows, highs, s):
    """The greedy build's leaves ``(box_lows, box_highs, weights)``.

    The heap loop (pop the heaviest leaf, ties by insertion counter;
    push its children) replays over ``(-weight, counter, cell)`` tuples
    on the :func:`_expand` tree.  Leaves: the popped unsplittable cells
    (shrunk to their point), then the heap list, in order.
    """
    if coords.shape[0] == 0 or s < 2:  # s == 1: whole; empty: low corner
        corner = highs if s < 2 else lows
        return lows[None], corner[None], np.array([weights.sum()], float)
    floor = np.inf
    while True:
        weight, box_lo, box_hi, mn, mx, child = _expand(
            coords, weights, lows, highs, s, floor
        )
        w, first = weight.tolist(), child.tolist()
        splittable = (mn < mx).any(axis=1).tolist()
        heap, counter, done = [(-w[0], 0, 0)], 1, []
        while heap and len(heap) + len(done) < s:
            cell = heapq.heappop(heap)[2]
            if not splittable[cell]:
                done.append(cell)
            elif first[cell] < 0:
                break  # pruned by a rounding-inverted weight: expand more
            else:
                kid = first[cell]
                heapq.heappush(heap, (-w[kid], counter, kid))
                heapq.heappush(heap, (-w[kid + 1], counter + 1, kid + 1))
                counter += 2
        else:
            leaves = np.asarray(done + [entry[2] for entry in heap])
            popped = (np.arange(leaves.size) < len(done))[:, None]
            return (
                np.where(popped, mn[leaves], box_lo[leaves]),
                np.where(popped, mx[leaves], box_hi[leaves]),
                weight[leaves],
            )
        floor = w[cell]


class QDigestSummary(Summary):
    """Greedy heavy-first dyadic partitioning summary.

    ``partial`` selects how partially-overlapped leaves contribute to a
    query:

    * ``"half"`` (default) -- the midpoint of the deterministic bounds:
      fully-contained weight plus half of each boundary leaf's weight.
      This matches the guaranteed-error flavour of [14]/q-digest and
      reproduces the paper's observed accuracy gap vs sampling.
    * ``"uniform"`` -- spread each boundary leaf's weight uniformly over
      its box (the multi-dimensional-histogram assumption); much more
      accurate on clustered data but offers no deterministic bound.
    * ``"lower"`` -- only fully-contained leaves (the conservative
      deterministic lower bound).
    """

    def __init__(self, dataset: Dataset, s: int, partial: str = "half"):
        if s < 1:
            raise ValueError("node budget must be >= 1")
        if partial not in ("half", "uniform", "lower"):
            raise ValueError(f"unknown partial mode: {partial}")
        self._partial = partial
        self._dims = dataset.dims
        box = dataset.domain.full_box()
        lows, highs = (np.array(b, np.int64) for b in (box.lows, box.highs))
        self._set_leaves(*_digest_leaves(
            dataset.coords, dataset.weights, lows, highs, s
        ))

    def _set_leaves(self, box_lows, box_highs, weights) -> None:
        """Install the leaves: int64 box bounds and float weights."""
        n = weights.shape[0]
        self._box_lows = box_lows.reshape(n, self._dims)
        self._box_highs = box_highs.reshape(n, self._dims)
        self._weights = np.asarray(weights, dtype=float)
        self._lows = self._box_lows.astype(float)
        self._highs = self._box_highs.astype(float)
        self._volumes = np.prod(self._highs - self._lows + 1.0, axis=1)

    @property
    def size(self) -> int:
        """Number of materialized nodes."""
        return self._weights.shape[0]

    def _fractions(self, overlap_volume: np.ndarray) -> np.ndarray:
        """Per-leaf contribution fractions from overlap volumes.

        Shared by the scalar and batched query paths; the trailing
        axis of ``overlap_volume`` indexes the leaves.
        """
        if self._partial == "uniform":
            return overlap_volume / self._volumes
        contained = overlap_volume >= self._volumes
        boundary = (overlap_volume > 0) & ~contained
        fractions = contained.astype(float)
        if self._partial == "half":
            fractions += 0.5 * boundary
        return fractions

    def _overlap_volume(self, box: Box) -> np.ndarray:
        """Each leaf's volume of overlap with ``box``."""
        overlap = (
            np.minimum(self._highs, np.asarray(box.highs, dtype=float))
            - np.maximum(self._lows, np.asarray(box.lows, dtype=float))
            + 1.0
        )
        np.clip(overlap, 0.0, None, out=overlap)
        return np.prod(overlap, axis=1)

    def query(self, box: Box) -> float:
        """Range-sum estimate (see ``partial`` in the class docstring).

        Vectorized over all leaves: fully contained cells contribute
        their weight; boundary cells contribute per the partial mode.
        """
        fractions = self._fractions(self._overlap_volume(box))
        return float((self._weights * fractions).sum())

    def _sorted_1d(self):
        """Sorted-leaf arrays for the 1-D prefix fast path (lazy memo).

        Returns ``None`` unless the digest is 1-D with pairwise-disjoint
        leaves (a fresh build always is; a merge of shards may overlap
        spatially, in which case the dense kernel applies).  Otherwise
        returns ``(los, his, weights, volumes, prefix)`` sorted by leaf
        low endpoint; leaves never change after construction, so the
        memo is one-shot.
        """
        if self._dims != 1:
            return None
        cached = self.__dict__.get("_sorted_leaves")
        if cached is None:
            order = np.argsort(self._lows[:, 0], kind="stable")
            los = self._lows[order, 0]
            his = self._highs[order, 0]
            if los.size > 1 and not bool((his[:-1] < los[1:]).all()):
                cached = (False,)  # overlapping leaves: merged digest
            else:
                weights = self._weights[order]
                volumes = self._volumes[order]
                prefix = np.concatenate(([0.0], np.cumsum(weights)))
                cached = (True, los, his, weights, volumes, prefix)
            self.__dict__["_sorted_leaves"] = cached
        return cached[1:] if cached[0] else None

    def _query_boxes_1d(self, bounds: np.ndarray, sorted_1d) -> np.ndarray:
        """Prefix-sum kernel over disjoint sorted 1-D leaves.

        Fully-contained leaves form one contiguous run in the sorted
        order (two ``searchsorted`` calls and a prefix-sum difference);
        at most two leaves -- the ones containing the query endpoints --
        can be boundary leaves, handled per the ``partial`` mode.
        ``O(q log L)`` instead of the dense ``O(q L)``.
        """
        los, his, weights, volumes, prefix = sorted_1d
        q_lo = bounds[:, 0, 0]
        q_hi = bounds[:, 0, 1]
        first = np.searchsorted(los, q_lo, side="left")
        last = np.searchsorted(his, q_hi, side="right")
        per_box = np.where(last > first, prefix[last] - prefix[first], 0.0)
        if self._partial == "lower":
            return per_box
        # Boundary candidates: the leaf containing each endpoint.
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
            if self._partial == "half":
                per_box[rows] += 0.5 * weights[leaf]
            else:  # uniform
                overlap = (
                    np.minimum(his[leaf], q_hi[rows])
                    - np.maximum(los[leaf], q_lo[rows])
                    + 1.0
                )
                per_box[rows] += overlap / volumes[leaf] * weights[leaf]
        return per_box

    def query_many(self, queries: Iterable[MultiRangeQuery]) -> List[float]:
        """Batch evaluation: all boxes against all leaves in one pass.

        The battery is compiled once into a
        :class:`~repro.structures.ranges.QueryPlan` (bounds stacking is
        memoized on the query objects and on the summary, so repeated
        batteries stop re-stacking).  Disjoint 1-D digests take the
        sorted prefix-sum fast path (:meth:`_query_boxes_1d`); anything
        else computes the ``(B, L)`` leaf-overlap volumes by
        broadcasting, chunked over boxes to bound the intermediate
        array.  Per-box contributions fold back onto queries with
        ``add.reduceat`` (boxes of a multi-range query are disjoint, so
        contributions add).
        """
        plan = battery_plans(self).fetch_plan(queries)
        if len(plan) == 0:
            return []
        if plan.dims != self._dims:
            raise ValueError(
                f"dimensionality mismatch: q-digest is {self._dims}-D, "
                f"queries are {plan.dims}-D"
            )
        if self.size == 0:
            return [0.0] * len(plan)
        bounds = plan.bounds
        sorted_1d = self._sorted_1d()
        if sorted_1d is not None:
            return plan.reduce_boxes(
                self._query_boxes_1d(bounds, sorted_1d)
            ).tolist()
        n_boxes = bounds.shape[0]
        n_leaves = self._weights.shape[0]
        per_box = np.empty(n_boxes, dtype=float)
        chunk = max(1, 8_000_000 // max(1, n_leaves * self._dims))
        for start in range(0, n_boxes, chunk):
            stop = min(n_boxes, start + chunk)
            q_lows = bounds[start:stop, :, 0].astype(float)
            q_highs = bounds[start:stop, :, 1].astype(float)
            overlap = (
                np.minimum(self._highs[None, :, :], q_highs[:, None, :])
                - np.maximum(self._lows[None, :, :], q_lows[:, None, :])
                + 1.0
            )
            np.clip(overlap, 0.0, None, out=overlap)
            overlap_volume = np.prod(overlap, axis=2)
            # Elementwise product + row sum (not a matmul) so each
            # box's answer is bit-identical to the scalar query path.
            per_box[start:stop] = (
                self._weights * self._fractions(overlap_volume)
            ).sum(axis=1)
        return plan.reduce_boxes(per_box).tolist()

    def merge(self, other: "QDigestSummary") -> "QDigestSummary":
        """Merge by taking the union of the two leaf partitions.

        Each shard's leaves partition the (shared) domain over *its*
        keys, so the union of the leaf sets is a valid materialized
        node set for the union of the shards: range sums add.  The
        footprint is the sum of the two node counts; re-compressing to
        a budget would require the original keys, which a q-digest no
        longer has.
        """
        if not isinstance(other, QDigestSummary):
            raise TypeError(
                f"cannot merge QDigestSummary with {type(other).__name__}"
            )
        if self._partial != other._partial:
            raise ValueError("cannot merge q-digests with different modes")
        if self._dims != other._dims:
            raise ValueError("dimensionality mismatch")
        merged = object.__new__(QDigestSummary)
        merged._partial = self._partial
        merged._dims = self._dims
        merged._set_leaves(
            np.concatenate((self._box_lows, other._box_lows)),
            np.concatenate((self._box_highs, other._box_highs)),
            np.concatenate((self._weights, other._weights)),
        )
        return merged

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The materialized leaves as codec-friendly primitives."""
        return {
            "partial": self._partial,
            "dims": self._dims,
            "box_lows": self._box_lows,
            "box_highs": self._box_highs,
            "weights": self._weights,
        }

    @classmethod
    def from_state(cls, state: dict) -> "QDigestSummary":
        """Rebuild a q-digest from :meth:`to_state` output."""
        digest = object.__new__(cls)
        digest._partial = state["partial"]
        digest._dims = int(state["dims"])
        digest._set_leaves(
            np.asarray(state["box_lows"], dtype=np.int64),
            np.asarray(state["box_highs"], dtype=np.int64),
            state["weights"],
        )
        return digest

    def query_bounds(self, box: Box):
        """Deterministic (lower, upper) bounds on the true range sum."""
        overlap_volume = self._overlap_volume(box)
        lower = float(self._weights[overlap_volume >= self._volumes].sum())
        upper = float(self._weights[overlap_volume > 0].sum())
        return lower, upper
