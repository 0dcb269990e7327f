"""Hierarchy-structure aware sampling (paper Section 3).

Pair selection rule: always aggregate a pair with the *lowest* LCA.  We
realize the rule bottom-up over the hierarchy induced by the present
keys, one level at a time: every node first lets its children resolve
internally (each child subtree keeps at most one fractional "leftover"
key) and then pair-aggregates the child leftovers.  Pairs are
therefore consumed in non-increasing LCA depth -- exactly the rule.

Consequence (paper Section 3): for every node ``v``, the mass under
``v`` is conserved until at most one fractional key remains below it,
so the final count below ``v`` is the floor or the ceiling of its
expectation: maximum range discrepancy Δ < 1, the minimum possible for
an unbiased sample.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
from repro.structures.hierarchy import RadixHierarchy


def aggregate_hierarchy_levels(
    p: np.ndarray,
    idx_sorted: np.ndarray,
    keys_sorted: np.ndarray,
    hierarchy: RadixHierarchy,
    rng: np.random.Generator,
) -> Optional[int]:
    """Vectorized lowest-LCA-first aggregation, level by level.

    Processes the hierarchy bottom-up: one segmented chain pass per
    level, grouping the surviving leftovers by their ancestor node at
    that level.  After the depth-``d`` pass every depth-``d`` node
    holds at most one fractional key -- the same invariant the
    recursive formulation maintains -- and pairs are consumed in
    non-increasing LCA depth, which is exactly the Section 3 rule.
    Levels where every group is a singleton are skipped (unary-chain
    contraction).  Returns the final leftover index, or ``None``.
    """
    current_idx = np.asarray(idx_sorted, dtype=np.int64)
    current_keys = np.asarray(keys_sorted)
    for depth in range(hierarchy.depth, 0, -1):
        if current_idx.size <= 1:
            break
        nodes = hierarchy.node_of(current_keys, depth)
        starts = run_starts(nodes)
        if starts.size == current_idx.size:
            continue  # every depth-`depth` node already holds <= 1 key
        leftovers = segmented_chain_aggregate(p, current_idx, starts, rng)
        keep = leftovers >= 0
        current_idx = leftovers[keep]
        current_keys = current_keys[starts[keep]]
    # Root level: at most one leftover per top-level child remains.
    return chain_aggregate(p, current_idx, rng)


def hierarchy_aware_sample(
    keys: np.ndarray,
    weights: np.ndarray,
    s: float,
    hierarchy: RadixHierarchy,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """VarOpt_s sample with node discrepancy < 1 on a hierarchy.

    Returns ``(included, tau, probs)`` like
    :func:`repro.aware.order_sampler.order_aware_sample`.  Each
    hierarchy level resolves in one segmented chain pass
    (:func:`aggregate_hierarchy_levels`).

    Raises
    ------
    ValueError
        If ``keys`` and ``weights`` differ in length, a key lies
        outside the hierarchy's leaves, or a weight is negative or not
        finite.
    """
    keys = np.asarray(keys)
    weights = np.asarray(weights, dtype=float)
    if keys.shape[:1] != weights.shape[:1]:
        raise ValueError("keys and weights must have matching length")
    if keys.size and (int(keys.min()) < 0 or int(keys.max()) >= hierarchy.num_leaves):
        raise ValueError("keys outside the hierarchy's leaf domain")
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    if fractional.size:
        order = np.argsort(keys[fractional], kind="stable")
        idx_sorted = fractional[order]
        leftover = aggregate_hierarchy_levels(
            p, idx_sorted, keys[idx_sorted], hierarchy, rng
        )
        finalize_leftover(p, leftover, rng)
    return included_indices(p), tau, p_initial


def hierarchy_aware_summary(
    dataset: Dataset,
    s: float,
    rng: np.random.Generator,
    axis: int = 0,
) -> SampleSummary:
    """Hierarchy-aware VarOpt summary of a dataset (1-D hierarchy axis)."""
    hierarchy = dataset.domain.hierarchy(axis)
    included, tau, _probs = hierarchy_aware_sample(
        dataset.axis(axis), dataset.weights, s, hierarchy, rng
    )
    return SampleSummary(
        coords=dataset.coords[included],
        weights=dataset.weights[included],
        tau=tau,
    )
