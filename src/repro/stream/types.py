"""Micro-batch container for the streaming layer.

The dataclass itself needs only NumPy and the shared batch-coercion
helper.  (Importing it still runs ``repro.stream.__init__`` and hence
the engine module, like any submodule import -- the split buys a small
surface, not import isolation.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.ipps import check_weights
from repro.summaries.base import coerce_batch


@dataclass(frozen=True)
class MicroBatch:
    """One micro-batch of weighted keys, optionally timestamped.

    Attributes
    ----------
    coords:
        ``(n, d)`` integer coordinates of the batch's keys.
    weights:
        ``(n,)`` finite, non-negative weights.  A batch that breaks
        this is rejected at construction, before an engine can log it
        to a write-ahead log that would then fail on every replay.
    timestamp:
        Event time of the batch (its latest event), used for window
        assignment.  ``None`` means "no event time": the engine falls
        back to arrival time (one time unit per batch).  A batch with
        only a batch-level timestamp is assigned to a window pane
        whole.
    timestamps:
        Optional per-item event times (``(n,)``, non-decreasing).
        When present, the engine splits a batch that straddles a pane
        boundary at the boundary instead of assigning it wholesale, so
        window edges are item-granular.  ``timestamp`` defaults to the
        last entry.
    """

    coords: np.ndarray
    weights: np.ndarray
    timestamp: Optional[float] = None
    timestamps: Optional[np.ndarray] = None

    def __post_init__(self):
        coords, weights = coerce_batch(self.coords, self.weights)
        check_weights(weights)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)
        if self.timestamps is not None:
            stamps = np.atleast_1d(
                np.asarray(self.timestamps, dtype=float)
            )
            if stamps.shape[0] != weights.shape[0]:
                raise ValueError(
                    "timestamps and weights must have matching length"
                )
            if stamps.size > 1 and np.any(np.diff(stamps) < 0):
                raise ValueError(
                    "per-item timestamps must be non-decreasing"
                )
            object.__setattr__(self, "timestamps", stamps)
            if self.timestamp is None and stamps.size:
                object.__setattr__(
                    self, "timestamp", float(stamps[-1])
                )

    @classmethod
    def coerce(cls, batch) -> "MicroBatch":
        """Normalize any accepted batch shape to a :class:`MicroBatch`.

        Accepts a ``MicroBatch`` (returned as-is), a
        :class:`~repro.core.types.Dataset` (no event time), or a
        ``(coords, weights[, timestamp])`` tuple.  The single
        batch-shape contract shared by the stream engine and the
        distributed ingest path.
        """
        from repro.core.types import Dataset

        if isinstance(batch, cls):
            return batch
        if isinstance(batch, Dataset):
            return cls(batch.coords, batch.weights)
        if isinstance(batch, tuple) and len(batch) in (2, 3):
            ts = float(batch[2]) if len(batch) == 3 else None
            return cls(batch[0], batch[1], ts)
        raise TypeError(
            "batch must be a MicroBatch, a Dataset, or a "
            "(coords, weights[, timestamp]) tuple"
        )

    @property
    def n(self) -> int:
        """Number of items in the batch."""
        return self.weights.shape[0]

    def __len__(self) -> int:
        return self.n
