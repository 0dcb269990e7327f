"""Tests for the two-pass I/O-efficient pipeline (Section 5)."""

import numpy as np
import pytest

from oracles import IOAggregator, two_pass_summary as two_pass_oracle
from repro.core.discrepancy import (
    max_hierarchy_discrepancy,
    max_interval_discrepancy,
)
from repro.core.ipps import ipps_probabilities, ipps_threshold
from repro.core.types import Dataset
from repro.structures.hierarchy import BitHierarchy
from repro.structures.product import ProductDomain, line_domain
from repro.twopass.partitions import (
    DisjointPartition,
    HierarchyAncestorPartition,
    KDPartition,
    OrderPartition,
)
from repro.twopass.two_pass import TwoPassSampler, two_pass_summary


class TestOrderPartition:
    def test_cells_between_guides(self):
        part = OrderPartition([10, 20, 30])
        assert part.cell_of(5) == 0
        assert part.cell_of(10) == 0
        assert part.cell_of(11) == 1
        assert part.cell_of(20) == 1
        assert part.cell_of(25) == 2
        assert part.cell_of(31) == 3
        assert part.num_cells == 4

    def test_accepts_tuple_keys(self):
        part = OrderPartition([10])
        assert part.cell_of((5,)) == 0

    def test_duplicate_guides_deduped(self):
        part = OrderPartition([10, 10, 10])
        assert part.num_cells == 2


class TestKDPartition:
    def test_locates_all_domain_points(self):
        rng = np.random.default_rng(0)
        domain = ProductDomain([BitHierarchy(8), BitHierarchy(8)])
        guide = rng.integers(0, 256, size=(80, 2))
        probs = rng.random(80)
        part = KDPartition(guide, probs, domain=domain)
        probes = rng.integers(0, 256, size=(200, 2))
        ids = {part.cell_of(tuple(p)) for p in probes}
        assert all(isinstance(i, int) for i in ids)

    def test_empty_guide_rejected(self):
        with pytest.raises(ValueError):
            KDPartition(np.empty((0, 2)), np.empty(0))


class TestHierarchyAncestorPartition:
    def test_guide_leaf_is_own_cell(self):
        h = BitHierarchy(6)
        part = HierarchyAncestorPartition(h, [5, 40])
        assert part.cell_of(5) == (6, 5)

    def test_other_keys_map_to_deepest_selected_ancestor(self):
        h = BitHierarchy(6)
        part = HierarchyAncestorPartition(h, [0b000101])
        # Key 0b000100 shares the depth-5 node 0b00010 with the guide.
        assert part.cell_of(0b000100) == (5, 0b00010)
        # A key in the other half of the domain only shares the root.
        assert part.cell_of(0b100000) == (0, 0)

    def test_num_cells_counts_ancestors(self):
        h = BitHierarchy(4)
        part = HierarchyAncestorPartition(h, [3])
        # Root + depths 1..4 of one leaf = 5 nodes.
        assert part.num_cells == 5


class TestDisjointPartition:
    def test_seen_and_gap_cells(self):
        part = DisjointPartition([4, 9])
        assert part.cell_of(4) == ("range", 4)
        assert part.cell_of(9) == ("range", 9)
        assert part.cell_of(5) == ("gap", 1)
        assert part.cell_of(7) == ("gap", 1)
        assert part.cell_of(1) == ("gap", 0)
        assert part.cell_of(100) == ("gap", 2)


class TestIOAggregator:
    """Algorithm 3's per-item loop, the oracle of ``aggregate_cells``."""

    def test_heavy_keys_bypass_cells(self):
        agg = IOAggregator(10.0, lambda key: 0, np.random.default_rng(0))
        agg.process((1,), 50.0)
        assert agg.sample == [((1,), 50.0)]
        assert agg.active_count == 0

    def test_single_light_key_becomes_active(self):
        agg = IOAggregator(10.0, lambda key: 0, np.random.default_rng(0))
        agg.process((1,), 5.0)
        assert agg.active_count == 1
        assert agg.sample == []

    def test_aggregation_within_cell(self):
        agg = IOAggregator(10.0, lambda key: 0, np.random.default_rng(0))
        agg.process((1,), 5.0)
        agg.process((2,), 5.0)
        # p = 0.5 + 0.5 = 1: one of the two keys is chosen.
        assert len(agg.sample) == 1
        assert agg.active_count == 0

    def test_mass_conservation(self):
        rng = np.random.default_rng(1)
        agg = IOAggregator(10.0, lambda key: key[0] % 7, rng)
        for i in range(200):
            agg.process((i,), float(rng.random() * 15))
        assert agg.conservation_error() < 1e-6

    def test_zero_weight_ignored(self):
        agg = IOAggregator(10.0, lambda key: 0, np.random.default_rng(0))
        agg.process((1,), 0.0)
        assert agg.active_count == 0 and agg.sample == []

    def test_tau_zero_samples_everything(self):
        agg = IOAggregator(0.0, lambda key: 0, np.random.default_rng(0))
        for i in range(5):
            agg.process((i,), 1.0)
        assert len(agg.sample) == 5

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            IOAggregator(-1.0, lambda key: 0, np.random.default_rng(0))


class TestTwoPassSampler:
    def test_validation(self, rng):
        with pytest.raises(ValueError):
            TwoPassSampler(0, rng)
        with pytest.raises(ValueError):
            TwoPassSampler(5, rng, s_prime_factor=0)
        with pytest.raises(ValueError):
            TwoPassSampler(5, rng, partition="bogus")

    def test_product_sample_size(self, grid_dataset):
        for t in range(5):
            summary = two_pass_summary(
                grid_dataset, 40, np.random.default_rng(t)
            )
            assert abs(summary.size - 40) <= 1

    def test_tau_matches_offline(self, grid_dataset, rng):
        summary = two_pass_summary(grid_dataset, 40, rng)
        assert summary.tau == pytest.approx(
            ipps_threshold(grid_dataset.weights, 40), rel=1e-9
        )

    def test_s_covers_all_keys(self, rng):
        data = Dataset.one_dimensional([1, 5, 9], [1.0, 2.0, 3.0], size=16)
        summary = two_pass_summary(data, 10, rng)
        assert summary.size == 3
        assert summary.tau == 0.0

    @pytest.mark.parametrize("strict_seed", [False, True])
    def test_order_partition_interval_discrepancy(self, strict_seed):
        # 1-D ordered data: the two-pass sample keeps Delta < 2 w.h.p.;
        # we tolerate the rare guide-sample miss (a cell whose mass
        # exceeds one) by checking a high success rate rather than
        # every seed.  Both the batched pipeline and the item-at-a-time
        # oracle (strict_seed=True) sit near 70% at these sizes; 40
        # deterministic seeds at a 65% bar keeps the check meaningful
        # without pinning it to one RNG consumption order.
        rng0 = np.random.default_rng(0)
        n = 400
        keys = rng0.choice(100_000, size=n, replace=False)
        weights = 1.0 + rng0.pareto(1.2, size=n)
        data = Dataset.one_dimensional(keys, weights, size=100_000)
        probs, tau = ipps_probabilities(weights, 30)
        ok = 0
        trials = 40
        build = two_pass_oracle if strict_seed else two_pass_summary
        for t in range(trials):
            summary = build(data, 30, np.random.default_rng(t))
            sampled = set(map(tuple, summary.coords))
            mask = np.array([(k,) in sampled for k in keys])
            if max_interval_discrepancy(keys, probs, mask) < 2.0 + 1e-9:
                ok += 1
        assert ok >= trials * 0.65

    def test_ancestor_partition_hierarchy_discrepancy(self, rng):
        h = BitHierarchy(12)
        rng0 = np.random.default_rng(5)
        n = 300
        keys = rng0.choice(h.num_leaves, size=n, replace=False)
        weights = 1.0 + rng0.pareto(1.2, size=n)
        data = Dataset(
            coords=keys.reshape(-1, 1),
            weights=weights,
            domain=ProductDomain([h]),
        )
        probs, tau = ipps_probabilities(weights, 25)
        ok = 0
        trials = 15
        for t in range(trials):
            summary = two_pass_summary(
                data, 25, np.random.default_rng(t), partition="ancestor"
            )
            sampled = set(map(tuple, summary.coords))
            mask = np.array([(k,) in sampled for k in keys])
            if max_hierarchy_discrepancy(h, keys, probs, mask) < 1.0 + 1e-9:
                ok += 1
        assert ok >= trials * 0.6

    def test_linearized_partition_works(self, hier_dataset, rng):
        summary = two_pass_summary(
            hier_dataset, 30, rng, partition="linearized"
        )
        assert abs(summary.size - 30) <= 1

    def test_unbiased_total(self, grid_dataset):
        truth = grid_dataset.total_weight
        estimates = [
            two_pass_summary(grid_dataset, 40, np.random.default_rng(t))
            .estimate_total()
            for t in range(400)
        ]
        assert np.mean(estimates) == pytest.approx(truth, rel=0.05)

    def test_heavy_keys_always_sampled(self, rng):
        weights = np.ones(300)
        weights[42] = 500.0
        keys = np.arange(300)
        data = Dataset.one_dimensional(keys, weights, size=1000)
        for t in range(10):
            summary = two_pass_summary(data, 15, np.random.default_rng(t))
            assert (42,) in set(map(tuple, summary.coords))

    def test_guide_factor_configurable(self, grid_dataset, rng):
        summary = two_pass_summary(grid_dataset, 30, rng, s_prime_factor=2)
        assert abs(summary.size - 30) <= 1

    def test_auto_partition_resolution(self, rng):
        sampler = TwoPassSampler(10, rng)
        line = Dataset.one_dimensional([1, 2, 3], [1, 1, 1], size=10)
        assert sampler._resolve_partition_kind(line) == "order"
        h = BitHierarchy(4)
        hier = Dataset(
            coords=np.array([[1], [2]]),
            weights=np.array([1.0, 1.0]),
            domain=ProductDomain([h]),
        )
        assert sampler._resolve_partition_kind(hier) == "ancestor"
