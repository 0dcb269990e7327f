"""Core data model: weighted keyed datasets.

The paper models data as (key, weight) pairs with keys drawn from a
structured domain.  :class:`Dataset` stores integer coordinates (one
column per axis) plus non-negative float weights and the
:class:`~repro.structures.product.ProductDomain` describing the
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.core.ipps import check_weights
from repro.structures.product import (
    ProductDomain,
    integer_coords,
    line_domain,
)


@dataclass
class Dataset:
    """A table of weighted keys over a structured domain.

    Attributes
    ----------
    coords:
        ``(n, d)`` integer array; row i is key i's coordinates.  Float
        coordinates are accepted only when they are whole numbers.
    weights:
        ``(n,)`` finite, non-negative float array.
    domain:
        The product domain the keys live in.
    """

    coords: np.ndarray
    weights: np.ndarray
    domain: ProductDomain

    def __post_init__(self):
        # Normalize exactly once: C-contiguous int64 coordinates and
        # float64 weights.  Every downstream kernel (sampling chains,
        # kd routing, batched queries, wire codecs) relies on this and
        # skips its own re-validation; ``ascontiguousarray`` is a no-op
        # for already-conforming inputs.
        coords = np.atleast_2d(integer_coords(self.coords))
        if coords.shape[0] == 1 and coords.shape[1] > 1 and self.domain.dims == 1:
            # A flat list of 1-D keys was passed; make it a column.
            coords = coords.T
        self.coords = np.ascontiguousarray(coords)
        self.weights = np.ascontiguousarray(
            np.asarray(self.weights, dtype=np.float64)
        )
        if self.coords.shape[0] != self.weights.shape[0]:
            raise ValueError("coords and weights must have matching length")
        check_weights(self.weights)
        self.domain.validate_coords(self.coords)

    @classmethod
    def from_items(
        cls,
        items: Iterable[Tuple[Sequence[int], float]],
        domain: ProductDomain,
    ) -> "Dataset":
        """Build from an iterable of ``(key_tuple, weight)`` pairs.

        A scalar key is a 1-tuple.  Raises ``ValueError`` naming the
        first key whose length differs from ``domain.dims``; an empty
        iterable gives an empty ``(0, dims)`` dataset.
        """
        keys = []
        weights = []
        for index, (key, weight) in enumerate(items):
            key = (key,) if np.isscalar(key) else tuple(key)
            if len(key) != domain.dims:
                raise ValueError(
                    f"key {index} has {len(key)} coordinates but the "
                    f"domain has {domain.dims} axes"
                )
            keys.append(key)
            weights.append(float(weight))
        coords = integer_coords(keys).reshape(len(keys), domain.dims)
        return cls(
            coords=coords,
            weights=np.asarray(weights, dtype=float),
            domain=domain,
        )

    @classmethod
    def one_dimensional(
        cls, keys: Sequence[int], weights: Sequence[float], size: int
    ) -> "Dataset":
        """Build a 1-D dataset over an ordered domain of ``size`` values."""
        coords = integer_coords(keys).reshape(-1, 1)
        return cls(coords=coords, weights=np.asarray(weights, dtype=float),
                   domain=line_domain(size))

    @property
    def n(self) -> int:
        """Number of keys."""
        return self.coords.shape[0]

    @property
    def dims(self) -> int:
        """Number of coordinate axes."""
        return self.coords.shape[1]

    @property
    def total_weight(self) -> float:
        """Sum of all weights."""
        return float(self.weights.sum())

    def axis(self, a: int) -> np.ndarray:
        """Coordinate column for axis ``a``."""
        return self.coords[:, a]

    def keys_1d(self) -> np.ndarray:
        """The single coordinate column of a 1-D dataset."""
        if self.dims != 1:
            raise ValueError("dataset is not one-dimensional")
        return self.coords[:, 0]

    def iter_items(self) -> Iterator[Tuple[Tuple[int, ...], float]]:
        """Yield ``(key_tuple, weight)`` pairs, in storage order.

        The item-at-a-time stream the paper's one-pass algorithms read
        (never by random access).
        """
        for row, weight in zip(self.coords, self.weights):
            yield tuple(int(x) for x in row), float(weight)

    @classmethod
    def _from_validated(
        cls, coords: np.ndarray, weights: np.ndarray, domain: ProductDomain
    ) -> "Dataset":
        """Wrap arrays already known to satisfy the class invariants.

        Used by row-selection paths (:meth:`subset`, sharding) whose
        inputs come from an already-validated dataset: re-running the
        O(n) domain/sign checks per shard would dominate a sharded
        build's setup.
        """
        dataset = object.__new__(cls)
        dataset.coords = np.ascontiguousarray(coords)
        dataset.weights = np.ascontiguousarray(weights)
        dataset.domain = domain
        return dataset

    def subset(self, mask_or_indices) -> "Dataset":
        """A new dataset restricted to the given rows.

        Rows of a validated dataset are still validated, so the
        subset skips re-validation; slice selections stay zero-copy
        views of the parent arrays.
        """
        return Dataset._from_validated(
            self.coords[mask_or_indices],
            self.weights[mask_or_indices],
            self.domain,
        )

    def aggregate_duplicates(self) -> "Dataset":
        """Merge duplicate keys, summing their weights."""
        if self.n == 0:
            return self
        uniq, inverse = np.unique(self.coords, axis=0, return_inverse=True)
        sums = np.zeros(uniq.shape[0], dtype=float)
        np.add.at(sums, inverse, self.weights)
        return Dataset(coords=uniq, weights=sums, domain=self.domain)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(n={self.n}, dims={self.dims}, "
            f"total_weight={self.total_weight:.6g})"
        )
