"""IPPS (Inclusion Probability Proportional to Size) machinery.

IPPS sampling with threshold ``tau`` includes key i with probability
``p_i = min(1, w_i / tau)``.  For a target (expected) sample size ``s``
the threshold ``tau_s`` solves ``sum_i min(1, w_i / tau_s) = s``
(paper Appendix A).  This module provides:

* :func:`ipps_threshold` -- exact offline solver.
* :func:`ipps_probabilities` -- the probability vector for a target size.
* :func:`check_weights` -- the weight contract every entry point checks.
* :class:`StreamingThreshold` -- the paper's Algorithm 4: one-pass exact
  computation of ``tau_s`` using a size-``s`` min-heap.
"""

from __future__ import annotations

import heapq
from typing import Tuple

import numpy as np

#: Relative tolerance used throughout when comparing probabilities to 0/1.
PROB_EPS = 1e-12


def check_weights(weights: np.ndarray) -> None:
    """Raise ``ValueError`` unless every weight is finite and >= 0.

    ``weights.min() < 0`` alone would let NaN through (every
    comparison with NaN is false), so finiteness is checked first.
    """
    if weights.size and not (
        np.isfinite(weights).all() and float(weights.min()) >= 0.0
    ):
        raise ValueError("weights must be finite and non-negative")


def ipps_threshold(weights: np.ndarray, s: float) -> float:
    """Exact threshold ``tau_s`` with ``sum_i min(1, w_i/tau_s) = s``.

    Zero-weight keys never contribute.  If ``s`` is at least the number
    of positive-weight keys the equation has no solution with
    ``tau > 0``; we return 0.0, meaning *every* positive-weight key is
    included with probability 1.

    Raises
    ------
    ValueError
        If ``s <= 0``.
    """
    if s <= 0:
        raise ValueError("sample size must be positive")
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    n = w.size
    if s >= n:
        return 0.0
    w_sorted = np.sort(w)[::-1]
    tail_sums = np.concatenate((np.cumsum(w_sorted[::-1])[::-1], [0.0]))
    # Try k = number of keys taken with probability one (the k largest).
    # tau_k = (sum of the remaining weights) / (s - k) is consistent iff
    # the k-th largest weight is >= tau_k and the (k+1)-th is < tau_k.
    # All candidates are checked in one vectorized pass (the scalar
    # `for k` scan cost O(s) Python steps per build); the first
    # consistent k wins, matching the scalar scan order exactly.
    max_k = int(min(n - 1, np.floor(s)))
    ks = np.arange(max_k + 1)
    denoms = s - ks
    positive = denoms > 0
    taus = np.divide(
        tail_sums[ks], denoms, out=np.zeros(ks.size), where=positive
    )
    upper_ok = w_sorted[np.maximum(ks - 1, 0)] >= taus * (1 - PROB_EPS)
    upper_ok[0] = True
    lower_ok = w_sorted[ks] < taus * (1 + PROB_EPS)
    hits = np.flatnonzero(positive & upper_ok & lower_ok)
    if hits.size:
        return float(taus[hits[0]])
    # Fall back: numerical corner where the scan missed by rounding.
    return float(tail_sums[max_k] / (s - max_k))


def ipps_probabilities(weights: np.ndarray, s: float) -> Tuple[np.ndarray, float]:
    """IPPS probability vector and threshold for target sample size ``s``.

    Returns ``(p, tau)`` where ``p_i = min(1, w_i / tau)`` (and
    ``p_i = 1`` for every positive-weight key when ``tau == 0``).
    ``sum(p)`` equals ``min(s, #positive keys)`` up to float error.

    Raises
    ------
    ValueError
        If a weight is negative or not finite (see
        :func:`check_weights`), or ``s <= 0``.
    """
    w = np.asarray(weights, dtype=float)
    check_weights(w)
    tau = ipps_threshold(w, s)
    if tau == 0.0:
        return (w > 0).astype(float), 0.0
    return np.minimum(1.0, w / tau), tau


class StreamingThreshold:
    """One-pass computation of ``tau_s`` (paper Algorithm 4).

    Maintains a min-heap ``H`` of the weights currently above the
    threshold and the sum ``L`` of all other weights; after each item the
    invariant ``tau = L / (s - |H|)`` with ``min(H) >= tau`` holds, so
    after the stream ends :attr:`tau` equals the offline ``tau_s``.

    Memory is ``O(s)`` independent of the stream length.
    """

    def __init__(self, s: float):
        if s <= 0:
            raise ValueError("sample size must be positive")
        self._s = float(s)
        self._heap: list = []
        self._light_sum = 0.0
        self._tau = 0.0
        self._count = 0

    @property
    def s(self) -> float:
        """Target sample size."""
        return self._s

    @property
    def count(self) -> int:
        """Number of positive-weight items processed."""
        return self._count

    @property
    def tau(self) -> float:
        """Current threshold estimate (exact for the prefix seen so far)."""
        if self._count <= self._s:
            return 0.0
        return self._tau

    def update(self, weight: float) -> None:
        """Process one item weight."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        if weight == 0:
            return
        self._count += 1
        if weight < self._tau:
            self._light_sum += weight
        else:
            heapq.heappush(self._heap, float(weight))
        self._rebalance()

    def update_many(self, weights: np.ndarray) -> None:
        """Process a batch of item weights in order."""
        for w in np.asarray(weights, dtype=float):
            self.update(float(w))

    def _rebalance(self) -> None:
        # Move heap minima into the light sum while they fall below the
        # implied threshold, re-deriving tau each time (the fixpoint of
        # lines 3-6 of Algorithm 4).
        while self._heap:
            full = len(self._heap) >= self._s
            below = (
                self._s > len(self._heap)
                and self._heap[0]
                < self._light_sum / (self._s - len(self._heap))
            )
            if not (full or below):
                break
            self._light_sum += heapq.heappop(self._heap)
        if len(self._heap) < self._s:
            self._tau = self._light_sum / (self._s - len(self._heap))
        # else: fewer than s items seen in total so far; tau stays 0 via
        # the `tau` property.


def heavy_key_mask(weights: np.ndarray, tau: float) -> np.ndarray:
    """Boolean mask of keys with ``w_i >= tau`` (IPPS probability one).

    With ``tau == 0`` (sample size covers all keys) every positive-weight
    key is heavy.
    """
    w = np.asarray(weights, dtype=float)
    if tau == 0.0:
        return w > 0
    return w >= tau * (1 - PROB_EPS)
