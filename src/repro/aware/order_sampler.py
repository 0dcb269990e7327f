"""Order-structure aware sampling: OSSUMMARIZE (paper Algorithm 5).

Keys are processed in sorted order keeping a single *active* (leftover)
key; each step pair-aggregates the active key with the next fractional
key.  This is the special case of the hierarchy rule on a path-shaped
hierarchy, and guarantees:

* every prefix of the order holds floor/ceil of its expected count, so
* every interval has discrepancy Δ < 2 (Theorem 1(i)), which Theorem
  1(ii) shows is the best possible for a VarOpt sample.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.aggregation import finalize_leftover, included_indices
from repro.core.chain import chain_aggregate
from repro.core.estimator import SampleSummary
from repro.core.ipps import ipps_probabilities
from repro.core.types import Dataset


def order_aware_sample(
    keys: np.ndarray,
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """VarOpt_s sample with interval discrepancy < 2.

    Parameters
    ----------
    keys:
        Integer key values defining the order (need not be sorted or
        distinct).
    weights:
        Matching non-negative weights.
    s:
        Target sample size.
    rng:
        Randomness source.

    Returns
    -------
    (included, tau, probs):
        Indices (into the input arrays) of the sampled keys, the IPPS
        threshold, and the original IPPS probability vector (useful for
        discrepancy measurement).

    Raises
    ------
    ValueError
        If ``keys`` and ``weights`` differ in length, or a weight is
        negative or not finite.
    """
    keys = np.asarray(keys)
    weights = np.asarray(weights, dtype=float)
    if keys.shape[:1] != weights.shape[:1]:
        raise ValueError("keys and weights must have matching length")
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    order = np.argsort(keys, kind="stable")
    pool = order[(p[order] > 0.0) & (p[order] < 1.0)]
    leftover = chain_aggregate(p, pool, rng)
    finalize_leftover(p, leftover, rng)
    return included_indices(p), tau, p_initial


def order_aware_summary(
    dataset: Dataset,
    s: float,
    rng: np.random.Generator,
) -> SampleSummary:
    """Order-aware VarOpt summary of a 1-D dataset."""
    keys = dataset.keys_1d()
    included, tau, _probs = order_aware_sample(keys, dataset.weights, s, rng)
    return SampleSummary(
        coords=dataset.coords[included],
        weights=dataset.weights[included],
        tau=tau,
    )
