"""Horvitz-Thompson estimation from IPPS samples.

A sample summary stores the sampled keys together with their adjusted
weights ``a(i) = w_i / p_i`` (paper Appendix A).  Under IPPS with
threshold ``tau`` this is ``w_i`` for heavy keys (``w_i >= tau``) and
``tau`` for the rest, so any subset-sum estimate is the exact heavy
weight plus ``tau`` times the number of light sampled keys -- eq. (1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregation import finalize_leftover, included_indices
from repro.core.chain import chain_aggregate
from repro.core.ipps import ipps_threshold
from repro.structures.ranges import (
    Box,
    MultiRangeQuery,
    QueryPlan,
    SortOrderCache,
    batch_query_sums,
)


@dataclass
class SampleSummary:
    """An IPPS/VarOpt sample with Horvitz-Thompson adjusted weights.

    Attributes
    ----------
    coords:
        ``(m, d)`` coordinates of the sampled keys.
    weights:
        Original weights of the sampled keys.
    tau:
        The IPPS threshold the sample was drawn with (0 means every
        positive-weight key was included exactly).
    """

    coords: np.ndarray
    weights: np.ndarray
    tau: float

    def __post_init__(self):
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=np.int64))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.coords.shape[0] != self.weights.shape[0]:
            raise ValueError("coords and weights must have matching length")
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
        # A sample is immutable once built, so its sort orders can be
        # computed once and reused across repeated query batteries.
        self._query_cache = SortOrderCache()

    @property
    def size(self) -> int:
        """Number of sampled keys (the summary footprint in elements)."""
        return self.coords.shape[0]

    @property
    def dims(self) -> int:
        """Dimensionality of the sampled keys."""
        return self.coords.shape[1] if self.size else 0

    @property
    def adjusted_weights(self) -> np.ndarray:
        """Per-key Horvitz-Thompson adjusted weights."""
        if self.tau == 0.0:
            return self.weights.copy()
        return np.maximum(self.weights, self.tau)

    def estimate_total(self) -> float:
        """Unbiased estimate of the total weight of the data set."""
        return float(self.adjusted_weights.sum())

    def query(self, box: Box) -> float:
        """Unbiased estimate of the weight inside ``box``."""
        if self.size == 0:
            return 0.0
        mask = box.contains(self.coords)
        return float(self.adjusted_weights[mask].sum())

    def query_multi(self, query: MultiRangeQuery) -> float:
        """Unbiased estimate of the weight inside a union of boxes."""
        if self.size == 0:
            return 0.0
        mask = query.contains(self.coords)
        return float(self.adjusted_weights[mask].sum())

    def query_many(self, queries: Sequence) -> List[float]:
        """Estimates for a batch of multi-range queries, vectorized.

        Mirrors :meth:`repro.summaries.base.Summary.query_many` so that
        samples and dedicated summaries share the harness interface,
        but answers the whole battery in one broadcasted NumPy pass
        (:func:`repro.structures.ranges.batch_query_sums`) instead of a
        per-query Python loop.  The sample's sort orders -- and the
        battery's compiled query plan -- are cached on first use, so
        repeated batteries skip both the re-sort and the re-stack; a
        pre-compiled :class:`~repro.structures.ranges.QueryPlan` passes
        straight through.
        """
        queries = (
            queries if isinstance(queries, QueryPlan) else list(queries)
        )
        if self.size == 0:
            return [0.0] * len(queries)
        return batch_query_sums(
            queries,
            self.coords,
            self.adjusted_weights,
            cache=self._query_cache,
            version=0,
        ).tolist()

    def merge(
        self,
        other: "SampleSummary",
        s: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "SampleSummary":
        """Merge with an IPPS/VarOpt sample of a *disjoint* shard.

        The two-input :meth:`from_shards` (whose docstring carries the
        correctness argument): ``s`` defaults to ``max(self.size,
        other.size)``, so folding equal-size shard samples keeps the
        footprint constant, and an empty side is the identity.
        """
        return SampleSummary.from_shards([self, other], s=s, rng=rng)

    def downsample(
        self,
        s: int,
        rng: Optional[np.random.Generator] = None,
    ) -> "SampleSummary":
        """Re-aggregate this sample down to at most ``s`` keys.

        The one-input :meth:`from_shards`: a second IPPS/VarOpt stage
        over the adjusted weights, so all Horvitz-Thompson estimates
        stay unbiased.  A no-op (copy) when the sample already fits.
        """
        return SampleSummary.from_shards([self], s=s, rng=rng)

    @classmethod
    def from_shards(
        cls,
        shards: Sequence["SampleSummary"],
        s: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "SampleSummary":
        """Fold samples of disjoint shards into one of at most ``s`` keys.

        One VarOpt stage over the union of the non-empty inputs, treating
        each sampled key's Horvitz-Thompson adjusted weight as its
        weight, with the threshold floored at the largest of their
        thresholds.  ``s`` defaults to the largest input size.  Empty
        inputs are the identity, and a lone input that already fits is
        copied unchanged.

        Correctness (paper Appendix A)
        ------------------------------
        Shard ``k`` includes key ``i`` with IPPS probability
        ``q_i = min(1, w_i / tau_k)`` and records the adjusted weight
        ``a_i = w_i / q_i = max(w_i, tau_k)``, so
        ``E[sum_{i in S_k} a_i] = sum_i w_i`` (eq. 1).  The fold draws
        a second-stage IPPS/VarOpt sample *of the adjusted weights*: key
        ``i`` survives with probability ``p_i = min(1, a_i / tau*)``
        where ``tau* = max(tau_1, ..., tau_k, tau_s(a))`` and
        ``tau_s(a)`` solves ``sum_i min(1, a_i / tau) = s``.  Its final
        adjusted weight is ``a_i / p_i = max(a_i, tau*)`` -- exactly what
        a :class:`SampleSummary` with ``weights = a`` and ``tau = tau*``
        reports.  By the tower rule the two Horvitz-Thompson stages
        compose::

            E[max(a_i, tau*) * 1{i in folded}]
              = E[a_i * 1{i in S_k}] = w_i,

        so every subset-sum estimate from the folded sample stays
        unbiased, for any number of inputs.  Taking ``tau*`` at least as
        large as every input threshold keeps the threshold semantics
        intact: every surviving light key's adjusted weight equals the
        single folded threshold.  Pair aggregation (Algorithm 1)
        realizes the inclusion vector with VarOpt's negative
        correlations, so the variance bounds of Appendix A continue to
        hold with respect to the adjusted weights.
        """
        shards = list(shards)
        if not shards:
            raise ValueError("from_shards requires at least one summary")
        for shard in shards:
            if not isinstance(shard, SampleSummary):
                raise TypeError(
                    f"cannot merge SampleSummary with {type(shard).__name__}"
                )
        non_empty = [shard for shard in shards if shard.size]
        dims = sorted({shard.dims for shard in non_empty})
        if len(dims) > 1:
            raise ValueError(f"dimensionality mismatch: {dims}")
        if s is None:
            s = max(shard.size for shard in shards)
        if not non_empty or (len(non_empty) == 1 and non_empty[0].size <= s):
            base = non_empty[0] if non_empty else shards[0]
            return SampleSummary(
                coords=base.coords.copy(),
                weights=base.weights.copy(),
                tau=base.tau,
            )
        coords = np.concatenate([shard.coords for shard in non_empty])
        adjusted = np.concatenate(
            [shard.adjusted_weights for shard in non_empty]
        )
        tau_floor = max(shard.tau for shard in non_empty)
        return _reaggregate(coords, adjusted, tau_floor, s, rng)

    @property
    def mergeable(self) -> bool:
        """Samples implement the mergeable-summary protocol."""
        return True

    def estimate_subset(
        self, predicate: Callable[[np.ndarray], np.ndarray]
    ) -> float:
        """Unbiased estimate for an arbitrary subset.

        ``predicate`` receives the ``(m, d)`` coordinate array and
        returns a boolean mask.  This is the flexibility samples offer
        beyond range queries: the predicate is specified *after* the
        summary was built.
        """
        if self.size == 0:
            return 0.0
        mask = np.asarray(predicate(self.coords), dtype=bool)
        return float(self.adjusted_weights[mask].sum())

    def representatives(self, box: Box, k: Optional[int] = None) -> np.ndarray:
        """Representative sampled keys inside ``box`` (heaviest first).

        Dedicated summaries cannot provide representative keys of a
        selected subset; samples can (Section 1).
        """
        if self.size == 0:
            return np.empty((0, self.dims), dtype=np.int64)
        mask = box.contains(self.coords)
        selected = self.coords[mask]
        adj = self.adjusted_weights[mask]
        order = np.argsort(adj)[::-1]
        selected = selected[order]
        if k is not None:
            selected = selected[:k]
        return selected

    def sampled_count(self, box: Box) -> int:
        """Number of sampled keys falling in ``box``."""
        if self.size == 0:
            return 0
        return int(box.contains(self.coords).sum())

    def variance_upper_bound(self, box: Box) -> float:
        """Upper bound on the HT estimator's variance inside ``box``.

        Per-key variance under IPPS is ``w_i (tau - w_i)`` for light
        keys and 0 for heavy keys (Appendix A); summing the sampled
        light keys' ``tau^2 (1 - w_i/tau) / (w_i/tau) * (w_i/tau)`` ...
        reduces to an unbiased-in-expectation plug-in
        ``sum_{i in S, light} tau * (tau - w_i)``.  For VarOpt samples
        the true variance is no larger (joint inclusions are negatively
        correlated), so this is a conservative bound.
        """
        if self.size == 0 or self.tau == 0.0:
            return 0.0
        mask = box.contains(self.coords)
        w = self.weights[mask]
        light = w < self.tau
        return float((self.tau * (self.tau - w[light])).sum())

    def confidence_interval(
        self, box: Box, delta: float = 0.05
    ) -> tuple:
        """A (1 - delta) confidence interval for the weight in ``box``.

        Inverts the paper's eq. (4) tail bound numerically: the
        interval contains every candidate true weight whose probability
        of producing an estimate at least/most as extreme as the
        observed one exceeds delta/2 per side.  Conservative (the bound
        itself is not tight).
        """
        import math

        from repro.core.bounds import estimate_tail_bound

        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        estimate = self.query(box)
        if self.tau == 0.0:
            return (estimate, estimate)
        half = delta / 2.0
        tau = self.tau
        # The estimate decomposes into exact heavy weight + tau * count
        # over light sampled keys; only the light part is uncertain.
        mask = box.contains(self.coords)
        w = self.weights[mask]
        heavy_part = float(w[w >= tau].sum())
        light_est = max(0.0, estimate - heavy_part)

        def tail_probability(candidate: float) -> float:
            """Bound on Pr[light estimate as extreme as observed | candidate]."""
            if light_est == 0.0:
                # Pr[count == 0] <= e^(-candidate/tau).
                return math.exp(-candidate / tau)
            return estimate_tail_bound(candidate, light_est, tau)

        span = 10.0 * tau * (math.sqrt(light_est / tau + 1.0) + 1.0)
        # Lower endpoint: smallest candidate still plausible.  The tail
        # bound increases in the candidate on [0, light_est].
        lo, hi = 0.0, light_est
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if tail_probability(mid) > half:
                hi = mid
            else:
                lo = mid
        lower = hi if light_est > 0 else 0.0
        # Upper endpoint: largest candidate still plausible.  The tail
        # bound decreases in the candidate on [light_est, inf).
        lo, hi = light_est, light_est + span
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if tail_probability(mid) > half:
                lo = mid
            else:
                hi = mid
        upper = lo
        return (heavy_part + lower, heavy_part + upper)

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The sample's full state as codec-friendly primitives.

        Round-tripping through ``to_state`` / :meth:`from_state` is
        bit-exact: the reconstructed sample answers every query
        identically and merges identically to the original.
        """
        return {
            "coords": self.coords,
            "weights": self.weights,
            "tau": float(self.tau),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SampleSummary":
        """Rebuild a sample from :meth:`to_state` output."""
        return cls(
            coords=state["coords"],
            weights=state["weights"],
            tau=state["tau"],
        )

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SampleSummary(size={self.size}, dims={self.dims}, "
            f"tau={self.tau:.6g}, total~{self.estimate_total():.6g})"
        )


def reaggregate_indices(
    adjusted: np.ndarray,
    tau_floor: float,
    s: int,
    rng: Optional[np.random.Generator],
) -> Tuple[np.ndarray, float]:
    """One VarOpt_s stage over adjusted weights: ``(included, tau*)``.

    Includes entry ``i`` with probability ``min(1, adjusted_i / tau*)``
    where ``tau* = max(tau_floor, tau_s(adjusted))``, realized by pair
    aggregations over the fractional entries in random order.  The
    shared core of :meth:`SampleSummary.from_shards` (every fold,
    merge and downsample) and the VarOpt reservoir's batch update
    (:meth:`repro.core.varopt.StreamVarOpt.update`).  With
    ``tau* == 0`` every entry is included and no randomness is drawn.
    """
    if s < 1:
        raise ValueError("target sample size must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    tau_star = max(tau_floor, ipps_threshold(adjusted, s))
    if tau_star == 0.0:
        return np.arange(adjusted.shape[0]), 0.0
    p = np.minimum(1.0, adjusted / tau_star)
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    pool = fractional[rng.permutation(fractional.size)]
    leftover = chain_aggregate(p, pool, rng)
    finalize_leftover(p, leftover, rng)
    return included_indices(p), tau_star


def _reaggregate(
    coords: np.ndarray,
    adjusted: np.ndarray,
    tau_floor: float,
    s: int,
    rng: Optional[np.random.Generator],
) -> SampleSummary:
    """Second-stage IPPS/VarOpt sample of a union's adjusted weights."""
    included, tau_star = reaggregate_indices(adjusted, tau_floor, s, rng)
    return SampleSummary(
        coords=coords[included],
        weights=adjusted[included],
        tau=tau_star,
    )


def summary_from_inclusion(
    coords: np.ndarray,
    weights: np.ndarray,
    included: np.ndarray,
    tau: float,
) -> SampleSummary:
    """Build a :class:`SampleSummary` from an inclusion mask/index array."""
    coords = np.atleast_2d(np.asarray(coords))
    if coords.shape[0] != np.asarray(weights).shape[0] and coords.shape[1] == np.asarray(weights).shape[0]:
        coords = coords.T
    return SampleSummary(
        coords=coords[included],
        weights=np.asarray(weights, dtype=float)[included],
        tau=tau,
    )
