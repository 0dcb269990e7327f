"""Disjoint-range (partition) aware sampling (paper Section 3).

The range family is a partition of the key domain -- a flat, 2-level
hierarchy.  Pair selection: aggregate pairs inside the same range first
(arbitrary pairs within); only when no range has two fractional keys
left do we aggregate across ranges.  Each range then ends up with a
floor/ceil of its expected count: Δ < 1.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.aggregation import finalize_leftover, included_indices
from repro.core.chain import (
    chain_aggregate,
    run_starts,
    segmented_chain_aggregate,
)
from repro.core.estimator import SampleSummary
from repro.core.ipps import ipps_probabilities
from repro.core.types import Dataset


def disjoint_aware_sample(
    labels: np.ndarray,
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """VarOpt_s sample with per-range discrepancy < 1 over a partition.

    Parameters
    ----------
    labels:
        Integer range label of each key (which cell of the partition
        the key belongs to).
    weights:
        Matching non-negative weights.
    s:
        Target sample size.
    rng:
        Randomness source.

    Returns
    -------
    (included, tau, probs) as in the other aware samplers.

    Raises
    ------
    ValueError
        If ``labels`` and ``weights`` differ in length, or a weight is
        negative or not finite.
    """
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    if labels.shape[:1] != weights.shape[:1]:
        raise ValueError("labels and weights must have matching length")
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    final = None
    if fractional.size:
        # All ranges resolve in one segmented pass; only their
        # leftovers cross range boundaries, exactly the rule.
        order = np.argsort(labels[fractional], kind="stable")
        idx_sorted = fractional[order]
        starts = run_starts(labels[idx_sorted])
        leftovers = segmented_chain_aggregate(p, idx_sorted, starts, rng)
        final = chain_aggregate(p, leftovers[leftovers >= 0], rng)
    finalize_leftover(p, final, rng)
    return included_indices(p), tau, p_initial


def disjoint_aware_summary(
    dataset: Dataset,
    labels: np.ndarray,
    s: float,
    rng: np.random.Generator,
) -> SampleSummary:
    """Disjoint-range aware VarOpt summary of a dataset."""
    included, tau, _probs = disjoint_aware_sample(
        labels, dataset.weights, s, rng
    )
    return SampleSummary(
        coords=dataset.coords[included],
        weights=dataset.weights[included],
        tau=tau,
    )
