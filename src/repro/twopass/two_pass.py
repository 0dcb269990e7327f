"""The full two-pass structure-aware sampler (Section 5 + Section 6's ``aware``).

Pass 1 computes the exact threshold tau_s (Algorithm 4) and draws a
structure-oblivious guide sample S' of size ``s_prime_factor * s``
(the paper's experiments use factor 5).  The guide sample induces a
partition of the domain (a flat kd tree on product domains); pass 2
runs IO-AGGREGATE over it; the surviving active keys then aggregate
along the structure, one chain call per kd depth, yielding a VarOpt_s
sample whose range discrepancy matches the main-memory algorithms w.h.p.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs as _obs
from repro.aware.hierarchy_sampler import aggregate_hierarchy_levels
from repro.aware.kd import KDTree
from repro.core.aggregation import (
    SET_EPS,
    finalize_leftover,
    included_indices,
)
from repro.core.chain import chain_aggregate, segmented_chain_aggregate
from repro.core.estimator import SampleSummary
from repro.core.ipps import ipps_threshold
from repro.core.types import Dataset
from repro.core.varopt import varopt_sample
from repro.structures.order import OrderedDomain
from repro.twopass.io_aggregate import aggregate_cells
from repro.twopass.partitions import (
    DisjointPartition,
    HierarchyAncestorPartition,
    KDPartition,
    OrderPartition,
)


def _fold_kd_cells(
    tree: KDTree,
    codes: np.ndarray,
    p: np.ndarray,
    rng: np.random.Generator,
) -> Optional[int]:
    """Level-batched bottom-up aggregation of one record per kd cell.

    ``codes[i]`` is record ``i``'s cell.  Internal nodes pair-aggregate
    their children's surviving leftovers, deepest first, one
    :func:`~repro.core.chain.segmented_chain_aggregate` call per depth
    over its nodes right to left (the recursion's stack order).  The
    distribution is the per-node walk's (``tests/oracles.py``).
    """
    leftover = np.full(tree.child.size, -1, dtype=np.int64)
    fractional = (p > SET_EPS) & (p < 1.0 - SET_EPS)
    leftover[tree.leaves[codes[fractional]]] = np.flatnonzero(fractional)
    bounds = tree.depth_starts.tolist()
    for depth in range(len(bounds) - 2, -1, -1):
        nodes = np.arange(bounds[depth + 1] - 1, bounds[depth] - 1, -1)
        nodes = nodes[tree.child[nodes] >= 0]
        kids = leftover[tree.child[nodes][:, None] + np.arange(2)]
        q = p[kids]
        live = (kids >= 0) & (q > SET_EPS) & (q < 1.0 - SET_EPS)
        counts = live.sum(axis=1)
        leftover[nodes] = segmented_chain_aggregate(
            p, kids[live], np.cumsum(counts) - counts, rng
        )
    return None if leftover[0] < 0 else int(leftover[0])


class TwoPassSampler:
    """I/O-efficient structure-aware VarOpt sampler.

    Parameters
    ----------
    s:
        Target sample size.
    rng:
        Randomness source.
    s_prime_factor:
        Guide-sample size multiplier (pass 1 draws ``s_prime_factor*s``
        keys; the paper uses 5 and notes larger factors did not help).
    partition:
        ``"auto"`` (kd for multi-dimensional domains, order for 1-D
        ordered domains, ancestor for 1-D hierarchies), or one of
        ``"kd"``, ``"order"``, ``"ancestor"``, ``"linearized"``.
        ``"linearized"`` treats a 1-D hierarchy as an order via its DFS
        linearization (Δ < 2 instead of Δ < 1, but O(s') cells
        regardless of depth).
    split_rule:
        kd split rule, forwarded to the kd builder.
    labeler:
        Required when ``partition="disjoint"``: a function mapping a key
        tuple to its integer range label (the flat partition the range
        family consists of).

    Both passes run as NumPy kernels: the threshold computation, the
    guide sample, the cell routing and the per-cell aggregation are
    vectorized and realize the sampling distribution of the
    item-at-a-time passes (the oracle in ``tests/oracles.py``).
    """

    def __init__(
        self,
        s: int,
        rng: np.random.Generator,
        s_prime_factor: int = 5,
        partition: str = "auto",
        split_rule: str = "median",
        labeler=None,
    ):
        if s < 1:
            raise ValueError("sample size must be >= 1")
        if s_prime_factor < 1:
            raise ValueError("guide factor must be >= 1")
        kinds = ("auto", "kd", "order", "ancestor", "linearized", "disjoint")
        if partition not in kinds:
            raise ValueError(f"unknown partition kind: {partition}")
        if partition == "disjoint" and labeler is None:
            raise ValueError("disjoint partition requires a labeler")
        self._s = int(s)
        self._rng = rng
        self._factor = int(s_prime_factor)
        self._partition_kind = partition
        self._split_rule = split_rule
        self._labeler = labeler
        self.last_partition = None  # exposed for tests/diagnostics
        # Build-phase tracing (repro.obs): no-op spans unless the
        # process-global registry is enabled.
        self._obs = _obs.get_registry()

    def _resolve_partition_kind(self, dataset: Dataset) -> str:
        if self._partition_kind != "auto":
            return self._partition_kind
        if dataset.dims > 1:
            return "kd"
        axis = dataset.domain.axes[0]
        if isinstance(axis, OrderedDomain):
            return "order"
        return "ancestor"

    def fit(self, dataset: Dataset) -> SampleSummary:
        """Run both passes over ``dataset`` and return the summary.

        Pass 1 is the offline exact threshold (the value of Algorithm
        4's streaming fixpoint) plus an offline VarOpt guide sample;
        pass 2 is vectorized cell routing plus one segmented
        aggregation chain per cell
        (:func:`repro.twopass.io_aggregate.aggregate_cells`).
        """
        with self._obs.span(
            "twopass.fit", n=dataset.weights.shape[0], s=self._s,
        ):
            rng = self._rng
            s = self._s
            weights = dataset.weights
            with self._obs.span("twopass.threshold"):
                tau = ipps_threshold(weights, s)
            if tau == 0.0:
                # The sample size covers every positive-weight key.
                mask = weights > 0
                return SampleSummary(
                    coords=dataset.coords[mask],
                    weights=weights[mask],
                    tau=0.0,
                )
            # ---- Pass 1: guide sample via offline VarOpt -------------------
            # A one-pass pipeline draws the guide with the reservoir
            # because it only sees a stream; with the dataset in
            # memory the offline kernel draws a VarOpt_{s'} sample with
            # the identical IPPS inclusion probabilities at a fraction
            # of the cost.  Keys certain to be sampled (w >= tau_s) are
            # excluded from the partition construction -- S' is
            # guaranteed to contain them.
            with self._obs.span("twopass.guide_sample"):
                guide_rows, _guide_tau = varopt_sample(
                    weights, s * self._factor, rng
                )
                guide_rows = guide_rows[weights[guide_rows] < tau]
            kind = self._resolve_partition_kind(dataset)
            with self._obs.span("twopass.partition", kind=kind):
                partition = self._build_partition(
                    dataset, kind, dataset.coords[guide_rows],
                    weights[guide_rows], tau,
                )
            self.last_partition = partition
            # ---- Pass 2: route + segmented per-cell aggregation ------------
            with self._obs.span("twopass.aggregate", kind=kind):
                p = np.minimum(1.0, weights / tau)
                heavy_rows = np.flatnonzero(p >= 1.0 - SET_EPS)
                light_rows = np.flatnonzero(
                    (p > SET_EPS) & (p < 1.0 - SET_EPS)
                )
                codes = partition.cell_codes(dataset.coords[light_rows])
                committed, active_rows, active_probs, active_codes = (
                    aggregate_cells(p, light_rows, codes, rng)
                )
            # ---- Final phase: aggregate the active records -----------------
            with self._obs.span("twopass.finalize", kind=kind):
                final_rows = self._finalize(
                    dataset, kind, partition, active_rows, active_probs,
                    active_codes, rng,
                )
            rows = np.concatenate((heavy_rows, committed, final_rows))
            return SampleSummary(
                coords=dataset.coords[rows],
                weights=weights[rows],
                tau=tau,
            )

    def _build_partition(
        self,
        dataset: Dataset,
        kind: str,
        guide_coords: np.ndarray,
        guide_weights: np.ndarray,
        tau: float,
    ):
        """The partition induced by the guide rows' ``(m, d)`` coords."""
        if kind == "kd":
            if guide_coords.shape[0] == 0:
                raise ValueError("guide sample too small for a kd partition")
            return KDPartition(
                guide_coords, np.minimum(1.0, guide_weights / tau),
                domain=dataset.domain, split_rule=self._split_rule,
            )
        if kind in ("order", "linearized"):
            return OrderPartition(guide_coords[:, 0])
        if kind == "ancestor":
            return HierarchyAncestorPartition(
                dataset.domain.hierarchy(0), guide_coords[:, 0]
            )
        if kind == "disjoint":
            # The labeler sees native-int key tuples, as in cell_codes.
            labels = [
                self._labeler(tuple(key)) for key in guide_coords.tolist()
            ]
            return DisjointPartition(labels, labeler=self._labeler)
        raise ValueError(f"unknown partition kind: {kind}")

    def _finalize(
        self,
        dataset: Dataset,
        kind: str,
        partition,
        rows: np.ndarray,
        probs: np.ndarray,
        codes: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Structure-following aggregation of the active records.

        Works over (row, probability) arrays; the active set is
        O(#cells), so the order/ancestor passes are chain kernels and
        the kd walk touches each partition node once.
        """
        if rows.size == 0:
            return rows
        p = probs.copy()
        if kind == "kd":
            # KD cell codes are the leaf cell ids themselves.
            leftover = _fold_kd_cells(partition.kd, codes, p, rng)
        elif kind == "ancestor":
            keys = dataset.coords[rows, 0]
            order = np.argsort(keys, kind="stable")
            leftover = aggregate_hierarchy_levels(
                p, order, keys[order], dataset.domain.hierarchy(0), rng
            )
        else:  # order / linearized / disjoint: along the sorted order
            keys = dataset.coords[rows, 0]
            order = np.argsort(keys, kind="stable")
            leftover = chain_aggregate(p, order, rng)
        finalize_leftover(p, leftover, rng)
        return rows[included_indices(p)]


def two_pass_summary(
    dataset: Dataset,
    s: int,
    rng: np.random.Generator,
    s_prime_factor: int = 5,
    partition: str = "auto",
    split_rule: str = "median",
    labeler=None,
) -> SampleSummary:
    """Convenience wrapper: fit a :class:`TwoPassSampler` on a dataset."""
    sampler = TwoPassSampler(
        s,
        rng,
        s_prime_factor=s_prime_factor,
        partition=partition,
        split_rule=split_rule,
        labeler=labeler,
    )
    return sampler.fit(dataset)
