"""Common interface for all summaries.

Every summary -- samples and dedicated structures alike -- answers
box-range-sum queries, reports its size measured "in terms of elements
on the original data" (Section 6.2: sampled keys for samples, retained
coefficients for wavelets, materialized nodes for q-digest, counters
for sketches), and is built from a :class:`~repro.core.types.Dataset`.

Summaries that can be combined additionally implement the *mergeable
summary protocol*: ``a.merge(b)`` returns a summary of the union of the
two underlying (disjoint) datasets.  The engine's one fold
(:func:`repro.engine.builder.fold_snapshots`) relies on nothing else.

Summaries that can ingest a live feed implement the *incremental
summary protocol* (:class:`IncrementalSummary`): ``update(keys,
weights)`` absorbs a micro-batch and ``snapshot()`` freezes the current
state into a queryable summary.  The streaming engine
(:mod:`repro.stream`) builds windows out of nothing but these two
calls plus ``merge``.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.structures.product import integer_coords
from repro.structures.ranges import Box, MultiRangeQuery, SortOrderCache


def battery_plans(summary) -> SortOrderCache:
    """The summary's lazily-created battery-plan memo.

    Batched ``query_many`` kernels route their input through
    ``battery_plans(self).fetch_plan(queries)`` so a repeated battery of
    the same query objects skips the bounds stacking.  Created on first
    use via ``__dict__`` (not in ``__init__``) because several summary
    classes rebuild instances through ``object.__new__`` in their
    ``merge`` / ``from_state`` paths.
    """
    cache = summary.__dict__.get("_plan_cache")
    if cache is None:
        cache = summary.__dict__["_plan_cache"] = SortOrderCache()
    return cache


def coerce_batch(
    keys, weights, dims: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize one micro-batch of weighted keys.

    ``keys`` may be an ``(n, d)`` coordinate array, a sequence of key
    tuples, or a flat sequence of 1-D keys.  Returns ``(coords,
    weights)`` with ``coords`` an ``(n, d)`` int64 array and a matching
    float weight vector.  ``dims``, when known, validates the key
    dimensionality.  Float keys are accepted when they are whole
    numbers; a fractional, NaN or infinite key raises ``ValueError``.
    Every implementation of :meth:`IncrementalSummary.update` funnels
    through this one helper so the (deliberately forgiving) input
    contract cannot drift.
    """
    raw = np.atleast_1d(integer_coords(keys))
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if raw.ndim == 1:
        # A flat sequence is ambiguous: n one-dimensional keys, or one
        # d-dimensional key tuple.  ``dims`` decides when known; the
        # weight count decides otherwise.  Anything else falls through
        # to the explicit length check below rather than being
        # reshaped into wrong-dimensional keys.
        if dims == 1 or (dims is None and weights.shape[0] == raw.shape[0]):
            coords = raw.reshape(-1, 1)
        elif raw.shape[0] == 0 == weights.shape[0]:
            coords = raw.reshape(0, dims)  # an empty batch, any width
        else:
            coords = raw.reshape(1, -1)
    elif raw.ndim == 2:
        coords = raw
    else:
        raise ValueError("keys must be at most two-dimensional")
    if coords.shape[0] != weights.shape[0]:
        raise ValueError("keys and weights must have matching length")
    if dims is not None and coords.shape[1] != dims:
        raise ValueError(
            f"dimensionality mismatch: expected {dims} axes, "
            f"batch has {coords.shape[1]}"
        )
    return coords, weights


class Summary(abc.ABC):
    """Abstract base for range-sum summaries."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Summary footprint in elements of the original data."""

    def __len__(self) -> int:
        """Alias for :attr:`size` so summaries behave like collections."""
        return self.size

    @abc.abstractmethod
    def query(self, box: Box) -> float:
        """Estimated total weight of keys inside ``box``."""

    def query_multi(self, query) -> float:
        """Estimated total weight inside a union of disjoint boxes.

        Accepts a bare :class:`Box` as the one-box union.
        """
        if isinstance(query, Box):
            return float(self.query(query))
        return float(sum(self.query(box) for box in query))

    def query_many(self, queries: Iterable) -> List[float]:
        """Estimates for a batch of queries (boxes or multi-ranges).

        Accepts any iterable/sequence (list, tuple, generator).
        """
        return [self.query_multi(q) for q in queries]

    # ------------------------------------------------------------------
    # Mergeable-summary protocol
    # ------------------------------------------------------------------
    def merge(self, other: "Summary") -> "Summary":
        """Combine with a summary of a *disjoint* shard of the data.

        The result summarizes the union of the two underlying datasets.
        Subclasses for which merging is natural override this; the base
        implementation refuses so callers can probe :attr:`mergeable`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support merging"
        )

    @property
    def mergeable(self) -> bool:
        """Whether this summary type implements :meth:`merge`."""
        return type(self).merge is not Summary.merge


class IncrementalSummary(abc.ABC):
    """The incremental (streaming) summary protocol.

    An incremental summary absorbs a live feed in micro-batches and can
    freeze its state into a queryable summary at any time:

    * :meth:`update` -- ingest one micro-batch of ``(key, weight)``
      pairs (vectorized: ``keys`` is an ``(n, d)`` coordinate array or
      a sequence of key tuples, ``weights`` the matching floats).
    * :meth:`snapshot` -- a queryable summary of everything ingested so
      far.  Snapshots must be insulated from later updates: callers may
      hold one while ingestion continues.
    * :attr:`version` -- a counter that changes whenever ingested state
      changes.  Consumers key snapshot/sort-order caches on it (see
      :class:`repro.structures.ranges.SortOrderCache`), so it must
      never repeat for distinct states of one instance.

    Natively updatable structures (the VarOpt reservoir, the streaming
    q-digest, exact stores, Count-Sketch tables) implement this
    directly; batch-only summaries stream through the buffered-rebuild
    adapter (:class:`repro.stream.BufferedRebuildSummary`), which
    amortizes full rebuilds geometrically.
    """

    @abc.abstractmethod
    def update(self, keys, weights) -> None:
        """Ingest one micro-batch of weighted keys."""

    @abc.abstractmethod
    def snapshot(self):
        """A queryable summary of everything ingested so far."""

    @property
    @abc.abstractmethod
    def version(self) -> int:
        """Counter identifying the current ingested state."""
