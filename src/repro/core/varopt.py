"""Structure-oblivious VarOpt sampling (the paper's ``obliv`` baseline).

Two constructions of a VarOpt_s sample:

* :func:`varopt_sample` / :func:`varopt_summary` -- offline: compute the
  IPPS probabilities and run pair aggregations in random order.  This is
  the probabilistic-aggregation framework instantiated with
  structure-*oblivious* pair selection.
* :class:`StreamVarOpt` -- the one-pass reservoir-style algorithm of
  Cohen, Duffield, Kaplan, Lund, Thorup (SODA 2009): maintains exact
  "heavy" items above the current threshold in a min-heap and a light
  region whose items all share the threshold as adjusted weight;
  amortized O(log s) per item.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregation import finalize_leftover, included_indices
from repro.core.chain import chain_aggregate
from repro.core.estimator import SampleSummary
from repro.core.ipps import ipps_probabilities
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


class StreamVarOpt(IncrementalSummary):
    """One-pass VarOpt_s reservoir sampling over a weighted stream.

    Feed items with :meth:`feed`; read the sample at any time with
    :meth:`summary`.  The realized sample size is exactly
    ``min(s, #positive items fed)``.

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
    Light items all behave as if they weigh the current threshold
    ``tau``, so eviction only needs the light *count* and a uniform
    choice among lights; heavy items keep exact weights in a min-heap
    and migrate to the light region as ``tau`` rises past them.
    """

    #: Items per vectorized-prefix scan in :meth:`update`.
    _BULK_CHUNK = 1024

    def __init__(self, s: int, rng=None):
        if s < 1:
            raise ValueError("sample size must be >= 1")
        self._s = int(s)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._rng = rng
        self._tau = 0.0
        self._counter = 0  # tiebreaker for the heap
        # Heap entries: (weight, counter, key, weight) -- key is any payload.
        self._heavy: List[Tuple[float, int, tuple, float]] = []
        # Light entries: (key, original_weight); adjusted weight is tau.
        self._light: List[Tuple[tuple, float]] = []
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
        return len(self._heavy) + len(self._light)

    def feed(self, key, weight: float) -> None:
        """Process one stream item."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        if weight == 0:
            return
        self._items_seen += 1
        self._push_heavy(key, float(weight))
        if self.current_size <= self._s:
            return
        self._evict_one()

    def feed_many(self, keys: Sequence, weights: Sequence[float]) -> None:
        """Process a batch of items in order."""
        for key, weight in zip(keys, weights):
            self.feed(key, float(weight))

    # ------------------------------------------------------------------
    # Incremental summary protocol
    # ------------------------------------------------------------------
    def update(self, keys, weights) -> None:
        """Feed one micro-batch (an ``(n, d)`` array or key tuples).

        Vectorized bulk path: once the reservoir is full, a run of
        items that are each *light* at their turn (weight at or below
        the running threshold) and leave the heavy heap untouched is
        processed in one NumPy pass -- the per-item heap work
        disappears and only the (rare) accepted items pay Python-level
        cost.  The bulk pass realizes exactly the same per-item
        accept/evict distribution as :meth:`feed` (see
        :meth:`_bulk_light_prefix`), so streamed samples remain VarOpt
        samples; items that do not qualify fall back to :meth:`feed`
        one at a time.
        """
        coords, weights = coerce_batch(keys, weights)
        if weights.size and float(weights.min()) < 0:
            raise ValueError("weights must be non-negative")
        positive = weights > 0
        if not positive.all():
            coords = coords[positive]
            weights = weights[positive]
        n = weights.shape[0]
        pos = 0
        while pos < n:
            if self.current_size < self._s or not self._light:
                self.feed(tuple(coords[pos].tolist()), float(weights[pos]))
                pos += 1
                continue
            # Scan a bounded chunk: a disqualifying item would otherwise
            # make every retry re-cumsum the whole remaining batch.
            m, taus_before, taus_after = self._bulk_light_prefix(
                weights[pos:pos + self._BULK_CHUNK]
            )
            if m == 0:
                self.feed(tuple(coords[pos].tolist()), float(weights[pos]))
                pos += 1
                continue
            self._bulk_light_feed(
                coords[pos:pos + m],
                weights[pos:pos + m],
                taus_before[:m],
                taus_after[:m],
            )
            pos += m

    def _bulk_light_prefix(self, weights: np.ndarray):
        """Longest prefix the vectorized light path may absorb.

        With the reservoir full and ``c = len(light) >= 1``, feeding an
        item of weight ``w <= tau`` runs :meth:`_evict_one` with a pool
        of exactly the ``c`` light items plus the new item whenever the
        heavy-heap minimum exceeds the new threshold
        ``tau' = tau + w/c``: the new item is the heap minimum, is
        popped unconditionally (``w <= tau < c*tau/(c-1)``), and the
        pop loop stops right after.  Both conditions are checked here
        against the *running* threshold (``tau`` grows by ``w_i/c`` per
        item while the light count stays ``c`` in every branch), so
        every item in the returned prefix takes that exact code path.
        """
        c = len(self._light)
        cum = np.cumsum(weights)
        taus_after = self._tau + cum / c
        taus_before = taus_after - weights / c
        ok = weights <= taus_before
        if self._heavy:
            ok &= taus_after < self._heavy[0][0]
        bad = np.flatnonzero(~ok)
        m = int(bad[0]) if bad.size else weights.shape[0]
        return m, taus_before, taus_after

    def _bulk_light_feed(
        self,
        coords: np.ndarray,
        weights: np.ndarray,
        taus_before: np.ndarray,
        taus_after: np.ndarray,
    ) -> None:
        """Absorb a qualifying run of light items in one pass.

        Per item, :meth:`_evict_one` restricted to the lights-plus-new
        pool drops the new item with probability ``1 - w/tau'`` and
        otherwise replaces a uniformly chosen light item -- the light
        count never changes.  Drawing all the accept coins and victim
        indices at once therefore realizes the identical distribution
        without touching the heap.
        """
        m = weights.shape[0]
        c = len(self._light)
        accept = self._rng.random(m) < c * (1.0 - taus_before / taus_after)
        self._items_seen += m
        self._tau = float(taus_after[-1])
        accepted = np.flatnonzero(accept)
        if accepted.size:
            victims = self._rng.integers(0, c, size=accepted.size)
            for index, victim in zip(accepted.tolist(), victims.tolist()):
                self._light[victim] = (
                    tuple(coords[index].tolist()),
                    float(weights[index]),
                )

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

    def _push_heavy(self, key, weight: float) -> None:
        self._counter += 1
        heapq.heappush(self._heavy, (weight, self._counter, key, weight))

    def _evict_one(self) -> None:
        # Build the candidate pool: all light items plus heavy items that
        # fall at or below the new threshold, found by popping the heap.
        pool_count = len(self._light)
        pool_sum = pool_count * self._tau
        popped: List[Tuple[float, int, tuple, float]] = []
        tau_new = None
        while True:
            if pool_count >= 2:
                candidate = pool_sum / (pool_count - 1)
                if not self._heavy or self._heavy[0][0] > candidate:
                    tau_new = candidate
                    break
            entry = heapq.heappop(self._heavy)
            popped.append(entry)
            pool_sum += entry[0]
            pool_count += 1
        # Choose the victim: each pool item is dropped with probability
        # 1 - (its weight) / tau_new; the probabilities sum to one.
        u = float(self._rng.random()) * 1.0
        light_mass = len(self._light) * (1.0 - self._tau / tau_new)
        if u < light_mass and self._light:
            victim = self._rng.integers(len(self._light))
            self._light[victim] = self._light[-1]
            self._light.pop()
        else:
            u -= light_mass
            victim_idx = None
            for idx, (w, _c, _k, _w0) in enumerate(popped):
                drop_p = 1.0 - w / tau_new
                if u < drop_p:
                    victim_idx = idx
                    break
                u -= drop_p
            if victim_idx is None:
                # Numerical slack: drop the last popped candidate.
                victim_idx = len(popped) - 1
            popped.pop(victim_idx)
        # Survivors of the pool join the light region at the new threshold.
        for _w, _c, key, w0 in popped:
            self._light.append((key, w0))
        self._tau = tau_new

    def sample_items(self) -> List[Tuple[tuple, float]]:
        """Current reservoir as ``(key, original_weight)`` pairs."""
        items = [(key, w0) for _w, _c, key, w0 in self._heavy]
        items.extend(self._light)
        return items

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The live reservoir's full state as codec-friendly primitives.

        Includes the generator state, so a worker can be migrated
        mid-stream: the reconstructed sampler continues the stream with
        exactly the eviction decisions the original would have made.
        """
        return {
            "s": self._s,
            "tau": self._tau,
            "counter": self._counter,
            "items_seen": self._items_seen,
            "heavy": [
                (w, c, tuple(key), w0) for w, c, key, w0 in self._heavy
            ],
            "light": [(tuple(key), w0) for key, w0 in self._light],
            "rng": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamVarOpt":
        """Rebuild a live reservoir from :meth:`to_state` output."""
        sampler = cls(state["s"])
        # Honor whatever bit generator the original sampler ran on --
        # the state dict names it (PCG64, MT19937, Philox, ...).
        bit_generator = getattr(
            np.random, str(state["rng"]["bit_generator"])
        )()
        bit_generator.state = state["rng"]
        sampler._rng = np.random.Generator(bit_generator)
        sampler._tau = float(state["tau"])
        sampler._counter = int(state["counter"])
        sampler._items_seen = int(state["items_seen"])
        sampler._heavy = [
            (float(w), int(c), tuple(key), float(w0))
            for w, c, key, w0 in state["heavy"]
        ]
        sampler._light = [
            (tuple(key), float(w0)) for key, w0 in state["light"]
        ]
        return sampler

    def summary(self) -> SampleSummary:
        """The current reservoir as a :class:`SampleSummary`."""
        items = self.sample_items()
        if not items:
            return SampleSummary(
                coords=np.empty((0, 1), dtype=np.int64),
                weights=np.empty(0),
                tau=self._tau,
            )
        coords = np.asarray([key for key, _w in items], dtype=np.int64)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        weights = np.asarray([w for _k, w in items], dtype=float)
        return SampleSummary(coords=coords, weights=weights, tau=self._tau)


def stream_varopt_summary(
    dataset: Dataset,
    s: int,
    rng: np.random.Generator,
) -> SampleSummary:
    """One-pass structure-oblivious VarOpt summary of a dataset.

    Replays the dataset through the reservoir's vectorized bulk feed
    (:meth:`StreamVarOpt.update`), which realizes the same per-item
    accept/evict distribution as feeding the items one at a time.
    """
    sampler = StreamVarOpt(s, rng)
    sampler.update(dataset.coords, dataset.weights)
    return sampler.summary()
