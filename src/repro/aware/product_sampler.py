"""Product-structure aware sampling (paper Section 4).

Pipeline: compute IPPS probabilities; set aside every key with
probability one; build the KD-HIERARCHY over the fractional keys as
flat arrays; resolve all leaf pools in one segmented chain pass, then
pair-aggregate the leftovers bottom-up over the node arrays.  Mass
then only moves between keys that are close in the kd partition, so a
box query's error comes only from the O(d s^((d-1)/d)) boundary cells
(Lemmas 6-7).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.aware.kd import KDTree, build_kd_tree
from repro.core.aggregation import (
    aggregate_pool,
    finalize_leftover,
    included_indices,
    is_set,
)
from repro.core.chain import segmented_chain_aggregate
from repro.core.estimator import SampleSummary
from repro.core.ipps import ipps_probabilities
from repro.core.segments import segment_layout
from repro.core.types import Dataset


def fold_kd_leftovers(
    tree: KDTree,
    leaf_leftovers: np.ndarray,
    p: np.ndarray,
    rng: np.random.Generator,
) -> Optional[int]:
    """Bottom-up leftover aggregation over a kd-tree, children first.

    ``leaf_leftovers[cell_id]`` is each leaf's leftover index into
    ``p`` (-1 for none).  Internal nodes pair-aggregate their surviving
    child leftovers in the recursion's post-order (right, left, node:
    the reversed left-first pre-order).  Returns the final leftover.
    """
    leftover = np.full(tree.child.size, -1, dtype=np.int64)
    leftover[tree.leaves] = leaf_leftovers
    child = tree.child.tolist()
    preorder, stack = [], [0]
    while stack:
        node = stack.pop()
        if child[node] >= 0:
            preorder.append(node)
            stack += (child[node] + 1, child[node])
    for node in reversed(preorder):
        pool = [
            idx for idx in leftover[child[node]:child[node] + 2].tolist()
            if idx >= 0 and not is_set(float(p[idx]))
        ]
        kept = aggregate_pool(p, pool, rng)
        leftover[node] = -1 if kept is None else kept
    return None if leftover[0] < 0 else int(leftover[0])


def product_aware_sample(
    coords: np.ndarray,
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
    domain=None,
    leaf_mass: float = 1.0,
    split_rule: str = "median",
) -> Tuple[np.ndarray, float, np.ndarray]:
    """VarOpt_s sample of d-dimensional keys with box-aware aggregation.

    Returns ``(included, tau, probs)`` as in the 1-D aware samplers.
    ``leaf_mass`` and ``split_rule`` are forwarded to
    :func:`repro.aware.kd.build_kd_tree` (exposed for ablations).

    Raises
    ------
    ValueError
        If ``coords`` and ``weights`` differ in length, or a weight is
        negative or not finite.
    """
    coords = np.atleast_2d(np.asarray(coords))
    weights = np.asarray(weights, dtype=float)
    if coords.shape[0] != weights.shape[0]:
        raise ValueError("coords and weights must have matching length")
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    if fractional.size:
        tree = build_kd_tree(
            coords[fractional],
            p[fractional],
            domain=domain,
            leaf_mass=leaf_mass,
            split_rule=split_rule,
        )
        # All leaf pools -- the O(n) bulk -- resolve in one segmented
        # chain pass; the fold pair-aggregates the per-node leftovers.
        start = tree.start[tree.leaves]
        pos, _, offsets = segment_layout(start, tree.end[tree.leaves] - start)
        leftovers = segmented_chain_aggregate(
            p, fractional[tree.rows[pos]], offsets, rng
        )
        leftover = fold_kd_leftovers(tree, leftovers, p, rng)
        finalize_leftover(p, leftover, rng)
    return included_indices(p), tau, p_initial


def product_aware_summary(
    dataset: Dataset,
    s: float,
    rng: np.random.Generator,
    leaf_mass: float = 1.0,
    split_rule: str = "median",
) -> SampleSummary:
    """Product-structure aware VarOpt summary of a dataset.

    This is the main-memory ``aware`` method; the experiments also use
    the two-pass variant in :mod:`repro.twopass`.
    """
    included, tau, _probs = product_aware_sample(
        dataset.coords,
        dataset.weights,
        s,
        rng,
        domain=dataset.domain,
        leaf_mass=leaf_mass,
        split_rule=split_rule,
    )
    return SampleSummary(
        coords=dataset.coords[included],
        weights=dataset.weights[included],
        tau=tau,
    )
