"""Product-structure aware sampling (paper Section 4).

Pipeline: compute IPPS probabilities; set aside every key with
probability one; build the KD-HIERARCHY over the fractional keys; apply
the hierarchy aggregation rule bottom-up over the kd-tree (children
resolve first, parents pair-aggregate the leftovers).  Probability mass
then only moves between keys that are close in the kd partition, so a
box query's error comes only from the O(d s^((d-1)/d)) boundary cells
(Lemmas 6-7).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.aware.kd import KDNode, build_kd_hierarchy, kd_leaves
from repro.core.aggregation import (
    aggregate_pool,
    finalize_leftover,
    included_indices,
    is_set,
)
from repro.core.chain import segmented_chain_aggregate
from repro.core.estimator import SampleSummary
from repro.core.ipps import ipps_probabilities
from repro.core.types import Dataset


def fold_kd_leftovers(
    root: KDNode,
    leaf_leftovers: np.ndarray,
    p: np.ndarray,
    rng: np.random.Generator,
) -> Optional[int]:
    """Bottom-up leftover aggregation over a kd-tree, children first.

    ``leaf_leftovers[cell_id]`` is each leaf's resolved leftover index
    into ``p`` (``-1`` for none).  A post-order walk with an explicit
    stack pair-aggregates every internal node's surviving child
    leftovers.  Returns the final leftover index into ``p`` (or None).
    """
    stack = [(root, False)]
    leftover_of = {}
    while stack:
        current, visited = stack.pop()
        if current.is_leaf:
            leftover = int(leaf_leftovers[current.cell_id])
            leftover_of[id(current)] = None if leftover < 0 else leftover
            continue
        if not visited:
            stack.append((current, True))
            stack.append((current.left, False))
            stack.append((current.right, False))
            continue
        pool = [
            leftover_of.pop(id(current.left), None),
            leftover_of.pop(id(current.right), None),
        ]
        pool = [idx for idx in pool if idx is not None and not is_set(float(p[idx]))]
        leftover_of[id(current)] = aggregate_pool(p, pool, rng)
    return leftover_of.pop(id(root), None)


def _aggregate_kd_batched(
    node: KDNode,
    p: np.ndarray,
    index_map: np.ndarray,
    rng: np.random.Generator,
) -> Optional[int]:
    """Leaf-batched bottom-up aggregation over a kd-tree.

    All leaf pools -- the O(n) bulk of the work -- resolve in one
    segmented chain pass; the bottom-up walk then only pair-aggregates
    the O(#nodes) per-child leftovers.  ``index_map`` translates the
    tree's local point indices to positions in the probability vector
    ``p``.
    """
    leaves = kd_leaves(node)
    sizes = np.asarray([leaf.indices.size for leaf in leaves], dtype=np.int64)
    pool = index_map[np.concatenate([leaf.indices for leaf in leaves])]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    leftovers = segmented_chain_aggregate(p, pool, starts, rng)
    return fold_kd_leftovers(node, leftovers, p, rng)


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
    :func:`repro.aware.kd.build_kd_hierarchy` (exposed for ablations).

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
        tree = build_kd_hierarchy(
            coords[fractional],
            p[fractional],
            domain=domain,
            leaf_mass=leaf_mass,
            split_rule=split_rule,
        )
        leftover = _aggregate_kd_batched(tree, p, fractional, rng)
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
