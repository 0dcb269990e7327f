"""Tests for pair aggregation (Algorithm 1) and aggregation pools.

The deterministic axioms (mass conservation, set entries) are checked
exhaustively; the distributional axioms (agreement in expectation,
inclusion-exclusion inequalities) are checked statistically over many
trials with fixed seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    aggregate_pool,
    check_aggregation_invariants,
    clamp,
    finalize_leftover,
    included_indices,
    is_set,
    pair_aggregate,
    pair_aggregate_values,
)

probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


class TestPairAggregateValues:
    def test_rejects_set_entries(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            pair_aggregate_values(0.0, 0.5, rng)
        with pytest.raises(ValueError):
            pair_aggregate_values(0.5, 1.0, rng)

    @given(probs, probs, st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_sum_preserved_and_one_entry_set(self, p_i, p_j, seed):
        rng = np.random.default_rng(seed)
        out_i, out_j = pair_aggregate_values(p_i, p_j, rng)
        assert out_i + out_j == pytest.approx(p_i + p_j, abs=1e-9)
        assert is_set(out_i) or is_set(out_j)
        assert 0.0 <= out_i <= 1.0 and 0.0 <= out_j <= 1.0

    def test_small_sum_moves_mass_to_one_entry(self):
        rng = np.random.default_rng(1)
        out_i, out_j = pair_aggregate_values(0.2, 0.3, rng)
        assert sorted([out_i, out_j]) == pytest.approx([0.0, 0.5])

    def test_large_sum_sets_one_to_one(self):
        rng = np.random.default_rng(1)
        out_i, out_j = pair_aggregate_values(0.7, 0.8, rng)
        assert max(out_i, out_j) == 1.0
        assert min(out_i, out_j) == pytest.approx(0.5)

    def test_expectation_preserved_small_sum(self):
        rng = np.random.default_rng(42)
        trials = 40_000
        total_i = total_j = 0.0
        for _ in range(trials):
            out_i, out_j = pair_aggregate_values(0.2, 0.3, rng)
            total_i += out_i
            total_j += out_j
        assert total_i / trials == pytest.approx(0.2, abs=0.01)
        assert total_j / trials == pytest.approx(0.3, abs=0.01)

    def test_expectation_preserved_large_sum(self):
        rng = np.random.default_rng(43)
        trials = 40_000
        total_i = total_j = 0.0
        for _ in range(trials):
            out_i, out_j = pair_aggregate_values(0.9, 0.4, rng)
            total_i += out_i
            total_j += out_j
        assert total_i / trials == pytest.approx(0.9, abs=0.01)
        assert total_j / trials == pytest.approx(0.4, abs=0.01)

    def test_inclusion_product_bound(self):
        # Axiom (iii)(I): E[p_i' * p_j'] <= p_i * p_j.  After a pair
        # aggregation one factor is 0 or 1, so the product is nonzero
        # only when one entry reached 1.
        rng = np.random.default_rng(44)
        trials = 40_000
        p_i, p_j = 0.7, 0.6
        prod_sum = 0.0
        for _ in range(trials):
            out_i, out_j = pair_aggregate_values(p_i, p_j, rng)
            prod_sum += out_i * out_j
        assert prod_sum / trials <= p_i * p_j + 0.01

    def test_exclusion_product_bound(self):
        # Axiom (iii)(E): E[(1-p_i')(1-p_j')] <= (1-p_i)(1-p_j).
        rng = np.random.default_rng(45)
        trials = 40_000
        p_i, p_j = 0.3, 0.4
        prod_sum = 0.0
        for _ in range(trials):
            out_i, out_j = pair_aggregate_values(p_i, p_j, rng)
            prod_sum += (1 - out_i) * (1 - out_j)
        assert prod_sum / trials <= (1 - p_i) * (1 - p_j) + 0.01


class TestPairAggregateArray:
    def test_in_place(self):
        rng = np.random.default_rng(7)
        p = np.array([0.5, 0.2, 0.4])
        pair_aggregate(p, 0, 2, rng)
        assert p[1] == 0.2
        assert is_set(p[0]) or is_set(p[2])
        assert p.sum() == pytest.approx(1.1)


class TestHelpers:
    def test_is_set(self):
        assert is_set(0.0) and is_set(1.0)
        assert is_set(1e-12) and is_set(1 - 1e-12)
        assert not is_set(0.5)

    def test_clamp(self):
        assert clamp(1e-12) == 0.0
        assert clamp(1 - 1e-12) == 1.0
        assert clamp(0.5) == 0.5

    def test_included_indices(self):
        p = np.array([1.0, 0.0, 0.9999999999999, 0.5])
        np.testing.assert_array_equal(included_indices(p), [0, 2])

    def test_check_invariants_passes(self):
        check_aggregation_invariants(
            np.array([0.5, 0.5]), np.array([1.0, 0.0])
        )

    def test_check_invariants_mass(self):
        with pytest.raises(AssertionError):
            check_aggregation_invariants(
                np.array([0.5, 0.5]), np.array([1.0, 0.5])
            )

    def test_check_invariants_range(self):
        with pytest.raises(AssertionError):
            check_aggregation_invariants(
                np.array([0.5, 0.7]), np.array([1.3, -0.1])
            )


class TestAggregatePool:
    def test_integral_mass_sets_everything(self):
        rng = np.random.default_rng(3)
        p = np.full(10, 0.3)  # total mass 3.0
        leftover = aggregate_pool(p, range(10), rng)
        finalize_leftover(p, leftover, rng)
        assert set(np.round(p, 9)) <= {0.0, 1.0}
        assert int(p.sum()) == 3

    def test_nonintegral_mass_single_leftover(self):
        rng = np.random.default_rng(4)
        p = np.full(7, 0.3)  # total mass 2.1
        leftover = aggregate_pool(p, range(7), rng)
        assert leftover is not None
        assert 0 < p[leftover] < 1
        others = [i for i in range(7) if i != leftover]
        assert all(is_set(p[i]) for i in others)
        assert p.sum() == pytest.approx(2.1)

    def test_skips_set_entries(self):
        rng = np.random.default_rng(5)
        p = np.array([1.0, 0.5, 0.0, 0.5])
        leftover = aggregate_pool(p, range(4), rng)
        assert leftover is None  # 0.5 + 0.5 = 1.0 resolves exactly
        assert p.sum() == pytest.approx(2.0)

    def test_empty_pool(self):
        rng = np.random.default_rng(6)
        p = np.array([0.5])
        assert aggregate_pool(p, [], rng) is None

    def test_single_fractional(self):
        rng = np.random.default_rng(6)
        p = np.array([0.5])
        assert aggregate_pool(p, [0], rng) == 0

    def test_none_entries_ignored(self):
        rng = np.random.default_rng(6)
        p = np.array([0.5, 0.5])
        leftover = aggregate_pool(p, [None, 0, None, 1], rng)
        assert leftover is None

    def test_expectations_preserved_across_pool(self):
        rng = np.random.default_rng(8)
        base = np.array([0.2, 0.7, 0.4, 0.55, 0.15])
        trials = 20_000
        sums = np.zeros_like(base)
        for _ in range(trials):
            p = base.copy()
            leftover = aggregate_pool(p, range(5), rng)
            finalize_leftover(p, leftover, rng)
            sums += p
        np.testing.assert_allclose(sums / trials, base, atol=0.015)

    def test_sample_size_always_floor_or_ceil(self):
        rng = np.random.default_rng(9)
        base = np.array([0.2, 0.7, 0.4, 0.55, 0.15])  # total 2.0
        for _ in range(300):
            p = base.copy()
            leftover = aggregate_pool(p, range(5), rng)
            finalize_leftover(p, leftover, rng)
            assert int(round(p.sum())) == 2


class TestFinalizeLeftover:
    def test_none_is_noop(self):
        rng = np.random.default_rng(1)
        p = np.array([0.5])
        finalize_leftover(p, None, rng)
        assert p[0] == 0.5

    def test_bernoulli_expectation(self):
        rng = np.random.default_rng(2)
        hits = 0
        trials = 20_000
        for _ in range(trials):
            p = np.array([0.3])
            finalize_leftover(p, 0, rng)
            hits += int(p[0] == 1.0)
        assert hits / trials == pytest.approx(0.3, abs=0.01)

    def test_snaps_nearly_set(self):
        rng = np.random.default_rng(3)
        p = np.array([1 - 1e-12])
        finalize_leftover(p, 0, rng)
        assert p[0] == 1.0

