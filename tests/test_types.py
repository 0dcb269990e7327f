"""Tests for the Dataset data model."""

import numpy as np
import pytest

from repro.core.types import Dataset
from repro.structures.hierarchy import BitHierarchy
from repro.structures.product import ProductDomain, line_domain


class TestConstruction:
    def test_one_dimensional(self):
        data = Dataset.one_dimensional([3, 1, 2], [1.0, 2.0, 3.0], size=10)
        assert data.n == 3
        assert data.dims == 1
        np.testing.assert_array_equal(data.keys_1d(), [3, 1, 2])

    def test_from_items_scalar_keys(self):
        data = Dataset.from_items([(1, 2.0), (5, 3.0)], line_domain(10))
        assert data.n == 2
        assert data.total_weight == pytest.approx(5.0)

    def test_from_items_tuple_keys(self):
        domain = ProductDomain([BitHierarchy(4), BitHierarchy(4)])
        data = Dataset.from_items([((1, 2), 1.0), ((3, 4), 2.0)], domain)
        assert data.dims == 2

    def test_from_items_empty(self):
        data = Dataset.from_items([], line_domain(8))
        assert data.n == 0 and data.coords.shape == (0, 1)
        domain = ProductDomain([BitHierarchy(4), BitHierarchy(4)])
        assert Dataset.from_items(iter(()), domain).coords.shape == (0, 2)

    @pytest.mark.parametrize("items,dims,index,length", [
        ([(1, 1.0), ((2, 3), 1.0)], 1, 1, 2),        # 2-D key, 1-D domain
        ([((1, 2), 1.0), ((3,), 1.0)], 2, 1, 1),     # ragged keys
        ([((1, 2), 1.0), ((3, 4, 5), 1.0)], 2, 1, 3),
        ([(7, 1.0)], 2, 0, 1),                       # scalar on 2-D
    ])
    def test_from_items_names_wrong_key_length(
        self, items, dims, index, length
    ):
        domain = (
            line_domain(10) if dims == 1
            else ProductDomain([BitHierarchy(4), BitHierarchy(4)])
        )
        message = (
            f"key {index} has {length} coordinates but the domain has "
            f"{dims} axes"
        )
        with pytest.raises(ValueError, match=message):
            Dataset.from_items(items, domain)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            Dataset.one_dimensional([1], [-1.0], size=10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        # ``weights.min() < 0`` is False for NaN: without the finiteness
        # check, 99 unit weights plus one NaN would build, and every
        # sampler would report a total of 99.
        with pytest.raises(ValueError, match="finite and non-negative"):
            Dataset.one_dimensional(
                np.arange(100), [1.0] * 99 + [bad], size=100
            )

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
    def test_rejects_fractional_and_non_finite_keys(self, bad):
        # Casting would truncate 2.5 into cell 2; NaN and inf have no
        # cell at all.  Every constructor refuses them the same way.
        domain = line_domain(10)
        with pytest.raises(ValueError, match="whole numbers"):
            Dataset.one_dimensional([1, bad], [1.0, 1.0], size=10)
        with pytest.raises(ValueError, match="whole numbers"):
            Dataset.from_items([(1, 1.0), (bad, 1.0)], domain)
        with pytest.raises(ValueError, match="whole numbers"):
            Dataset(np.array([[1.0], [bad]]), np.ones(2), domain)

    def test_whole_float_keys_cast(self):
        data = Dataset(np.array([[3.0], [0.0]]), np.ones(2), line_domain(10))
        assert data.coords.dtype == np.int64
        np.testing.assert_array_equal(data.keys_1d(), [3, 0])
        domain = ProductDomain([BitHierarchy(4), BitHierarchy(4)])
        items = Dataset.from_items([((1.0, 2.0), 1.0)], domain)
        np.testing.assert_array_equal(items.coords, [[1, 2]])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Dataset(
                coords=np.array([[1], [2]]),
                weights=np.array([1.0]),
                domain=line_domain(10),
            )

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            Dataset.one_dimensional([10], [1.0], size=10)


class TestAccessors:
    def test_axis(self):
        domain = ProductDomain([BitHierarchy(4), BitHierarchy(4)])
        data = Dataset(
            coords=np.array([[1, 2], [3, 4]]),
            weights=np.array([1.0, 1.0]),
            domain=domain,
        )
        np.testing.assert_array_equal(data.axis(1), [2, 4])

    def test_keys_1d_requires_one_dim(self):
        domain = ProductDomain([BitHierarchy(4), BitHierarchy(4)])
        data = Dataset(
            coords=np.array([[1, 2]]),
            weights=np.array([1.0]),
            domain=domain,
        )
        with pytest.raises(ValueError):
            data.keys_1d()

    def test_iter_items(self):
        data = Dataset.one_dimensional([3, 1], [1.5, 2.5], size=10)
        items = list(data.iter_items())
        assert items == [((3,), 1.5), ((1,), 2.5)]

    def test_len(self):
        data = Dataset.one_dimensional([3, 1], [1.0, 1.0], size=10)
        assert len(data) == 2


class TestTransforms:
    def test_subset_by_mask(self):
        data = Dataset.one_dimensional([1, 2, 3], [1.0, 2.0, 3.0], size=10)
        sub = data.subset(np.array([True, False, True]))
        assert sub.n == 2
        assert sub.total_weight == pytest.approx(4.0)

    def test_subset_by_indices(self):
        data = Dataset.one_dimensional([1, 2, 3], [1.0, 2.0, 3.0], size=10)
        sub = data.subset(np.array([2]))
        assert sub.keys_1d().tolist() == [3]

    def test_aggregate_duplicates(self):
        data = Dataset.one_dimensional([1, 1, 2], [1.0, 2.0, 3.0], size=10)
        merged = data.aggregate_duplicates()
        assert merged.n == 2
        by_key = dict(zip(merged.keys_1d().tolist(), merged.weights))
        assert by_key[1] == pytest.approx(3.0)
        assert by_key[2] == pytest.approx(3.0)

    def test_aggregate_duplicates_empty(self):
        data = Dataset.one_dimensional([], [], size=10)
        assert data.aggregate_duplicates().n == 0
