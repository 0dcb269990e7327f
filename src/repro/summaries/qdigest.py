"""Deterministic adaptive spatial partitioning (the ``qdigest`` baseline).

A multi-dimensional variant of the q-digest [22] in the style of
Hershberger, Shrivastava, Suri, Toth [14]: the domain is recursively
halved "on each dimension in turn" at dyadic boundaries, materializing
the heavy regions.  We drive the division greedily -- always split the
heaviest splittable cell -- until the node budget is reached, which
adapts the resolution to the weight distribution exactly as retaining
heavy ranges does.

Cell rule.  The cells are prefixes of the keys' Morton codes
(:mod:`repro.structures.morton`): each halving fixes one more code bit,
taking the axes round-robin, so a cell's shape depends only on how many
halvings lie above it.  That is our reading of [14]'s "each dimension in
turn": the turn passes at every halving, not at every split, so two
digests over one domain draw their cells from one trie.  A split
happens where the cell's keys part; halves without keys are skipped,
and every cell shrinks to its keys' longest common prefix.  The cells
are thus the nodes of the binary radix tree over the distinct codes,
and the leaves are disjoint dyadic boxes, kept in Morton order.

Tie rule.  The build splits the ``s - 1`` heaviest radix-tree nodes; of
two nodes of equal weight the shorter prefix (the larger cell) splits
first, then the one earlier in Morton order.  Node weights are
differences of one prefix sum over the code-sorted weights, so a child
never outweighs its parent, and the greedy heap walk over the trie
(``tests/oracles.py::qdigest_leaves``) splits exactly these nodes.

The build sorts the codes once, takes the common-prefix lengths of
adjacent distinct codes from their XORs (Karras, HPG 2012), and expands
the radix tree top down, one ``np.minimum.reduceat`` per level, never
expanding a node lighter than the ``(s - 1)``-th heaviest found.

Queries sum fully-contained leaves exactly and spread a partially
overlapped leaf's weight uniformly over its box (the classic histogram
assumption); the deterministic error is bounded by the total weight of
boundary leaves.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.core.types import Dataset
from repro.structures.morton import MortonLayout, bit_lengths
from repro.structures.ranges import Box, MultiRangeQuery
from repro.summaries.base import Summary, battery_plans

#: How partially-overlapped leaves count (see :class:`QDigestSummary`).
PARTIAL_MODES = ("half", "uniform", "lower")


def _interleave(first, second):
    """``first[0], second[0], first[1], second[1], ...``"""
    out = np.empty(2 * first.size, dtype=first.dtype)
    out[0::2], out[1::2] = first, second
    return out


def _split_points(keys, mass, bits, s):
    """Where the ``s - 1`` heaviest radix-tree nodes split, ascending.

    ``keys`` are the distinct codes, ascending; node ``[a, b]`` holds
    ``keys[a..b]`` and weighs ``mass[b + 1] - mass[a]``.  It splits
    after the adjacent pair with the shortest common prefix, which is
    unique in it, so one ``minimum.reduceat`` of ``common * m + pair``
    per level yields every frontier node's prefix length and split.
    """
    m = keys.size
    if m < 2 or s < 2:
        return np.empty(0, dtype=np.int64)
    common = bits - bit_lengths(keys[:-1] ^ keys[1:])
    rank = np.append(common * m + np.arange(m - 1), 0)
    lo, hi = np.zeros(1, dtype=np.int64), np.full(1, m - 1)
    weight = mass[-1:] - mass[:1]
    top, found = weight, []
    while lo.size:
        if top.size == s - 1:  # lighter than s - 1 found nodes: never split
            live = weight >= top.min()
            lo, hi, weight = lo[live], hi[live], weight[live]
        pair = np.minimum.reduceat(rank, _interleave(lo, hi))[::2]
        split = pair % m
        found.append((weight, pair // m, lo, split))
        lo, hi = _interleave(lo, split + 1), _interleave(split, hi)
        weight = mass[hi + 1] - mass[lo]
        inner = lo < hi
        lo, hi, weight = lo[inner], hi[inner], weight[inner]
        top = np.concatenate((top, weight))
        if top.size > s - 1:
            top = np.partition(top, top.size - (s - 1))[top.size - (s - 1):]
    weight, length, first, split = (np.concatenate(c) for c in zip(*found))
    return np.sort(split[np.lexsort((first, length, -weight))[: s - 1]])


def _trie_leaves(layout, coords, weights, s):
    """The greedy build's leaves ``(box_lows, box_highs, weights)``.

    The leaves are the runs of distinct codes between split points,
    each boxed by its codes' common prefix.  An empty dataset is one
    weightless leaf: the whole domain.
    """
    n = coords.shape[0]
    if n == 0:
        lows, highs = layout.decode(np.zeros(1, dtype=np.uint64), 0)
        return lows, highs, np.zeros(1)
    codes = layout.encode(coords)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    prefix = np.concatenate(([0.0], np.cumsum(weights[order])))
    rows = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    keys = codes[np.concatenate(([0], rows))]
    mass = prefix[np.concatenate(([0], rows, [n]))]
    cuts = _split_points(keys, mass, layout.bits, s)
    first = np.concatenate(([0], cuts + 1))
    last = np.append(cuts, keys.size - 1)
    lows, highs = layout.decode(
        keys[first], layout.bits - bit_lengths(keys[first] ^ keys[last])
    )
    return lows, highs, mass[last + 1] - mass[first]


class QDigestSummary(Summary):
    """Greedy heavy-first dyadic partitioning summary.

    The leaves are the unsplit nodes of the radix tree over the keys'
    Morton codes after its ``s - 1`` heaviest nodes split (ties: the
    shorter prefix, then the earlier code), each boxed by its keys'
    common prefix.  The axis alternates at every halving -- [14]'s
    "each dimension in turn", read per halving so that every digest
    over a domain draws from one trie (see the module docstring).

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
        if partial not in PARTIAL_MODES:
            raise ValueError(f"unknown partial mode: {partial}")
        self._partial = partial
        self._dims = dataset.dims
        self._set_leaves(*_trie_leaves(
            MortonLayout.for_domain(dataset.domain),
            dataset.coords, dataset.weights, s,
        ))

    def _set_leaves(self, box_lows, box_highs, weights) -> None:
        """Install the leaves: ``(L, dims)`` int64 boxes, float weights."""
        self._box_lows = box_lows
        self._box_highs = box_highs
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
        footprint is the sum of the two node counts.  The leaves of two
        digests over one domain are cells of one Morton trie, so light
        sibling pairs could be folded into their parents until ``s``
        nodes remain; the merge stays a union because that compression
        costs accuracy the union keeps (a best-case 3,000-node digest
        of a 4-pane flow window read 5.4e-4 mean error where the union
        of the pane digests read 4.5e-4).
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
        """Rebuild a q-digest from :meth:`to_state` output.

        Raises ``ValueError`` on a state no digest can be in: an unknown
        ``partial`` mode, box arrays that are not ``(L, dims)`` integer
        arrays of one shape, a weight count other than ``L``, a leaf
        whose low exceeds its high on some axis, or a negative or
        non-finite weight.
        """
        partial = state["partial"]
        if partial not in PARTIAL_MODES:
            raise ValueError(f"unknown partial mode: {partial!r}")
        dims = int(state["dims"])
        lows, highs = (
            np.asarray(state[key]) for key in ("box_lows", "box_highs")
        )
        weights = np.asarray(state["weights"], dtype=float)
        if lows.ndim != 2 or lows.shape[1:] != (dims,) or dims < 1:
            raise ValueError(
                f"q-digest boxes of shape {lows.shape} do not hold "
                f"{dims}-D leaves"
            )
        if highs.shape != lows.shape or weights.shape != lows.shape[:1]:
            raise ValueError(
                "q-digest box lows, box highs and weights must have one "
                "row per leaf"
            )
        if lows.size and (lows.dtype.kind not in "iu"
                          or highs.dtype.kind not in "iu"):
            raise ValueError("q-digest boxes must be integer arrays")
        lows = lows.astype(np.int64, copy=False)
        highs = highs.astype(np.int64, copy=False)
        if bool((lows > highs).any()):
            raise ValueError("q-digest leaf with a low above its high")
        if not (np.isfinite(weights).all() and bool((weights >= 0).all())):
            raise ValueError(
                "q-digest weights must be finite and non-negative"
            )
        digest = object.__new__(cls)
        digest._partial = partial
        digest._dims = dims
        digest._set_leaves(lows, highs, weights)
        return digest

    def query_bounds(self, box: Box):
        """Deterministic (lower, upper) bounds on the true range sum."""
        overlap_volume = self._overlap_volume(box)
        lower = float(self._weights[overlap_volume >= self._volumes].sum())
        upper = float(self._weights[overlap_volume > 0].sum())
        return lower, upper
