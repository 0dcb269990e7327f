"""Deeper two-pass pipeline properties: the eps-net role of the guide
sample and the per-cell mass bound it induces (Section 5)."""

import numpy as np
import pytest

from repro.core.ipps import ipps_probabilities
from repro.core.types import Dataset
from repro.core.varopt import StreamVarOpt
from repro.structures.hierarchy import BitHierarchy
from repro.structures.product import ProductDomain
from repro.twopass.partitions import KDPartition, OrderPartition
from repro.twopass.two_pass import TwoPassSampler, two_pass_summary


def guide_sample(dataset, size, seed):
    sampler = StreamVarOpt(size, np.random.default_rng(seed))
    sampler.update(dataset.coords, dataset.weights)
    return sampler.sample_items()


class TestCellMassBound:
    """With s' = Omega(s log s), cells have probability mass <= 1 w.h.p."""

    def test_order_partition_cell_masses(self):
        rng0 = np.random.default_rng(0)
        n = 2000
        keys = np.sort(rng0.choice(10**6, size=n, replace=False))
        weights = 1.0 + rng0.pareto(1.2, size=n)
        data = Dataset.one_dimensional(keys, weights, size=10**6)
        s = 50
        probs, tau = ipps_probabilities(weights, s)
        light = probs < 1.0
        guide = guide_sample(data, 5 * s, seed=1)
        part = OrderPartition(
            [key[0] for key, w in guide if w < tau]
        )
        cells = np.array([part.cell_of(int(k)) for k in keys])
        heavy_violations = 0
        for cell in np.unique(cells):
            mass = probs[light & (cells == cell)].sum()
            if mass > 1.0 + 1e-9:
                heavy_violations += 1
        # Most cells obey the bound (the w.h.p. guarantee).
        assert heavy_violations <= 0.1 * np.unique(cells).size

    def test_kd_partition_cell_masses(self, network_small):
        s = 60
        probs, tau = ipps_probabilities(network_small.weights, s)
        guide = guide_sample(network_small, 5 * s, seed=2)
        guide_coords = np.asarray(
            [key for key, w in guide if w < tau], dtype=np.int64
        )
        guide_probs = np.asarray(
            [min(1.0, w / tau) for _k, w in guide if w < tau]
        )
        part = KDPartition(
            guide_coords, guide_probs, domain=network_small.domain
        )
        cells = np.array(
            [part.cell_of(tuple(row)) for row in network_small.coords]
        )
        light = probs < 1.0
        over = 0
        uniq = np.unique(cells)
        for cell in uniq:
            mass = probs[light & (cells == cell)].sum()
            if mass > 2.0:  # generous: guide kd cells hold ~1 unit
                over += 1
        assert over <= 0.25 * uniq.size


class TestEndToEndMoments:
    def test_two_pass_inclusion_probabilities(self):
        # End-to-end: the two-pass pipeline preserves per-key IPPS
        # inclusion probabilities (it is a VarOpt construction).
        rng0 = np.random.default_rng(3)
        n = 12
        keys = np.arange(n)
        weights = np.array(
            [8.0, 7.0, 5.0, 4.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        )
        data = Dataset.one_dimensional(keys, weights, size=64)
        s = 5
        p, tau = ipps_probabilities(weights, s)
        counts = np.zeros(n)
        trials = 4000
        for t in range(trials):
            summary = two_pass_summary(data, s, np.random.default_rng(t))
            for (k,) in map(tuple, summary.coords):
                counts[k] += 1
        np.testing.assert_allclose(counts / trials, p, atol=0.04)

    def test_two_pass_repeatable_with_same_rng(self, grid_dataset):
        a = two_pass_summary(grid_dataset, 30, np.random.default_rng(7))
        b = two_pass_summary(grid_dataset, 30, np.random.default_rng(7))
        assert sorted(map(tuple, a.coords)) == sorted(map(tuple, b.coords))

    def test_partition_exposed_for_inspection(self, grid_dataset):
        sampler = TwoPassSampler(25, np.random.default_rng(0))
        sampler.fit(grid_dataset)
        assert sampler.last_partition is not None
        assert hasattr(sampler.last_partition, "cell_of")
