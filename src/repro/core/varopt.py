"""Structure-oblivious VarOpt sampling (the paper's ``obliv`` baseline).

Two constructions of a VarOpt_s sample:

* :func:`varopt_sample` / :func:`varopt_summary` -- offline: compute the
  IPPS probabilities and run pair aggregations in random order.  This is
  the probabilistic-aggregation framework instantiated with
  structure-*oblivious* pair selection.
* :class:`StreamVarOpt` -- the one-pass reservoir of Cohen, Duffield,
  Kaplan, Lund and Thorup ("Stream sampling for variance-optimal
  estimation of subset sums", SODA 2009), built on their recursion: a
  VarOpt_s sample of (a VarOpt_s sample of the prefix, at adjusted
  weights) plus the new items is a VarOpt_s sample of the whole.  The
  recursion holds for any number of new items, so the reservoir folds
  each micro-batch in with one threshold and one aggregation chain --
  the construction :meth:`SampleSummary.merge` applies to whole samples
  (paper Appendix A).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.aggregation import finalize_leftover, included_indices
from repro.core.chain import chain_aggregate
from repro.core.estimator import SampleSummary, reaggregate_indices
from repro.core.ipps import check_weights, ipps_probabilities
from repro.core.types import Dataset
from repro.summaries.base import IncrementalSummary, coerce_batch


def varopt_sample(
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
    order: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Offline VarOpt_s sample of a weight vector.

    Returns ``(included_indices, tau)``.  ``order`` fixes the pair
    aggregation order over the fractional entries; by default a random
    permutation is used, which makes the sample structure-oblivious.
    The pairs are aggregated by the vectorized chain kernel
    (:func:`repro.core.chain.chain_aggregate`).
    """
    w = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(w, s)
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    if order is None:
        order = rng.permutation(fractional.size)
    leftover = chain_aggregate(p, fractional[order], rng)
    finalize_leftover(p, leftover, rng)
    return included_indices(p), tau


def varopt_summary(
    dataset: Dataset,
    s: float,
    rng: np.random.Generator,
) -> SampleSummary:
    """Offline structure-oblivious VarOpt summary of a dataset."""
    included, tau = varopt_sample(dataset.weights, s, rng)
    return SampleSummary(
        coords=dataset.coords[included],
        weights=dataset.weights[included],
        tau=tau,
    )


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view: the reservoir's snapshots share its arrays."""
    view = array.view()
    view.setflags(write=False)
    return view


#: The empty reservoir's weights (shared: updates never write in place).
_NO_WEIGHTS = _frozen(np.empty(0))


class StreamVarOpt(IncrementalSummary):
    """One-pass VarOpt_s reservoir sampling over a weighted stream.

    Feed micro-batches with :meth:`update` (or single items with
    :meth:`feed`); read the sample at any time with :meth:`summary`.
    The realized sample size is exactly ``min(s, #positive items
    fed)`` and :attr:`tau` equals the offline threshold ``tau_s`` of
    the prefix, whatever the batch boundaries.

    The reservoir is the sampling methods' native carrier of the
    incremental summary protocol: :meth:`update` feeds a micro-batch
    and :meth:`snapshot` freezes the reservoir into a
    :class:`~repro.core.estimator.SampleSummary`.

    Reproducibility: the sampler owns its generator.  Pass an integer
    seed (or ``None``) rather than sharing one ``Generator`` object
    across samplers -- a shared generator's state is consumed by every
    consumer, so two "identically seeded" engines would diverge.  The
    streaming engine derives an independent child seed per (method,
    pane) for exactly this reason (see
    :func:`repro.stream.derive_seed`).

    Implementation notes
    --------------------
    The sample is two arrays: ``(k, d)`` int64 coordinates and the
    original weights.  A sampled key's adjusted weight is
    ``max(w, tau)``.  :meth:`update` takes the sample at adjusted
    weights together with the batch at raw weights, sets ``tau' =
    max(tau, tau_s(all))`` and ``p = min(1, a / tau')``, and
    pair-aggregates the fractional entries in random order
    (:func:`~repro.core.estimator.reaggregate_indices`).  By the VarOpt
    recursion the kept rows are a VarOpt_s sample of the whole prefix.
    With a full reservoir and one new item the ``s + 1`` probabilities
    sum to ``s``, so exactly one entry drops, entry ``i`` with
    probability ``1 - p_i``: the classic per-item eviction rule.
    Updates bind new arrays and never write into old ones, so
    snapshots share them without copying.
    """

    def __init__(self, s: int, rng=None):
        if s < 1:
            raise ValueError("sample size must be >= 1")
        self._s = int(s)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._rng = rng
        self._tau = 0.0
        # ``(k, d)`` sampled coordinates; None until the first key
        # fixes the width.
        self._coords = None
        self._weights = _NO_WEIGHTS
        self._items_seen = 0

    @property
    def s(self) -> int:
        """Target sample size."""
        return self._s

    @property
    def tau(self) -> float:
        """Current threshold (equals offline tau_s of the prefix)."""
        return self._tau

    @property
    def current_size(self) -> int:
        """Number of items currently in the reservoir."""
        return self._weights.shape[0]

    def feed(self, key, weight: float) -> None:
        """Process one stream item (a one-item :meth:`update`)."""
        self.update([key], [weight])

    # ------------------------------------------------------------------
    # Incremental summary protocol
    # ------------------------------------------------------------------
    def update(self, keys, weights) -> None:
        """Fold one micro-batch (an ``(n, d)`` array or key tuples) in.

        Raises ``ValueError``, before any state changes, on a batch
        with a negative, NaN or infinite weight, a fractional key, or
        keys of another width than earlier batches.  Zero-weight items
        are skipped.
        """
        dims = None if self._coords is None else self._coords.shape[1]
        coords, weights = coerce_batch(keys, weights, dims=dims)
        check_weights(weights)
        if coords.shape[0] == 0:
            return
        if self._coords is None:
            self._coords = np.empty((0, coords.shape[1]), dtype=np.int64)
        positive = weights > 0
        if not positive.all():
            coords = coords[positive]
            weights = weights[positive]
        n = weights.shape[0]
        if n == 0:
            return
        coords = np.concatenate((self._coords, coords))
        adjusted = np.concatenate(
            (np.maximum(self._weights, self._tau), weights)
        )
        weights = np.concatenate((self._weights, weights))
        included, self._tau = reaggregate_indices(
            adjusted, self._tau, self._s, self._rng
        )
        self._coords = _frozen(coords[included])
        self._weights = _frozen(weights[included])
        self._items_seen += n

    def snapshot(self) -> SampleSummary:
        """Freeze the reservoir into a :class:`SampleSummary`."""
        return self.summary()

    @property
    def version(self) -> int:
        """Counter identifying the ingested state (items seen)."""
        return self._items_seen

    @property
    def items_seen(self) -> int:
        """Number of positive-weight items fed so far."""
        return self._items_seen

    def sample_items(self) -> List[Tuple[tuple, float]]:
        """Current reservoir as ``(key, original_weight)`` pairs."""
        keys = [] if self._coords is None else self._coords.tolist()
        return list(zip(map(tuple, keys), self._weights.tolist()))

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The live reservoir's full state as codec-friendly primitives.

        Includes the generator state, so a worker can be migrated
        mid-stream: the reconstructed sampler continues the stream with
        exactly the draws the original would have made.  ``coords`` is
        ``None`` until the first key fixes the width.
        """
        return {
            "s": self._s,
            "tau": self._tau,
            "items_seen": self._items_seen,
            "coords": self._coords,
            "weights": self._weights,
            "rng": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamVarOpt":
        """Rebuild a live reservoir from :meth:`to_state` output.

        Raises ``ValueError`` on a state no reservoir can be in: ``s <
        1``; coordinates that are not a ``(k, d)`` integer array with
        ``k`` equal to the number of weights and at most ``s``; weights
        that are not finite and positive; a negative or non-finite
        ``tau``; ``items_seen < k``; or an unknown bit generator.
        Frames of the heap-based reservoir (``heavy``/``light`` item
        lists and a tie ``counter``) convert exactly: the same keys,
        weights, ``tau``, ``items_seen`` and generator state.
        """
        sampler = cls(int(state["s"]))
        coords = state.get("coords")
        if "heavy" in state:
            items = [(key, w) for _w, _c, key, w in state["heavy"]]
            items += state["light"]
            coords = [key for key, _w in items] if items else None
            state = dict(state, weights=[w for _key, w in items])
        weights = np.asarray(state["weights"], dtype=float)
        k = weights.shape[0] if weights.ndim == 1 else -1
        if coords is not None:
            coords = np.asarray(coords)
            if (coords.ndim != 2 or coords.shape[1] < 1
                    or coords.dtype.kind not in "iu"):
                raise ValueError("reservoir coords must be a (k, d) "
                                 "integer array")
        if (0 if coords is None else coords.shape[0]) != k or k > sampler.s:
            raise ValueError("reservoir needs one coordinate row per "
                             f"weight and at most s={sampler.s} rows")
        if not (np.isfinite(weights).all() and bool(np.all(weights > 0))):
            raise ValueError("reservoir weights must be finite and "
                             "positive")
        tau, items_seen = float(state["tau"]), int(state["items_seen"])
        if not (np.isfinite(tau) and tau >= 0 and items_seen >= k):
            raise ValueError("reservoir needs a finite tau >= 0 and "
                             "items_seen >= its size")
        # Honor whatever bit generator the original sampler ran on --
        # the state dict names it (PCG64, MT19937, Philox, ...).
        name = state["rng"]["bit_generator"]
        kind = getattr(np.random, str(name), None)
        if not (isinstance(kind, type)
                and issubclass(kind, np.random.BitGenerator)):
            raise ValueError(f"unknown bit generator {name!r}")
        bit_generator = kind()
        bit_generator.state = state["rng"]
        sampler._rng = np.random.Generator(bit_generator)
        sampler._tau, sampler._items_seen = tau, items_seen
        if coords is not None:
            sampler._coords = _frozen(coords.astype(np.int64, copy=False))
            sampler._weights = _frozen(weights)
        return sampler

    def summary(self) -> SampleSummary:
        """The current reservoir as a :class:`SampleSummary`.

        Wraps the reservoir's arrays without copying; they are
        read-only and no later update writes into them.
        """
        coords = self._coords
        if coords is None:
            coords = np.empty((0, 1), dtype=np.int64)
        return SampleSummary(
            coords=coords, weights=self._weights, tau=self._tau
        )


def stream_varopt_summary(
    dataset: Dataset,
    s: int,
    rng: np.random.Generator,
) -> SampleSummary:
    """One-pass structure-oblivious VarOpt summary of a dataset.

    The whole dataset is one :meth:`StreamVarOpt.update` batch.
    """
    sampler = StreamVarOpt(s, rng)
    sampler.update(dataset.coords, dataset.weights)
    return sampler.summary()
