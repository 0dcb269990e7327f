"""Product (multi-dimensional) key domains.

Section 4 of the paper: keys are d-dimensional points whose projection
on each axis is an order or a hierarchy; ranges are axis-parallel boxes
(products of intervals and/or hierarchy nodes).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.structures.hierarchy import RadixHierarchy
from repro.structures.order import OrderedDomain

Axis = Union[OrderedDomain, RadixHierarchy]


def integer_coords(keys) -> np.ndarray:
    """``keys`` as an int64 array, refusing keys that are not integers.

    Integer arrays cast with no extra pass over the data.  Anything
    else (float arrays, lists holding floats) casts only when every
    key is a whole number: a fractional, NaN or infinite key raises
    ``ValueError`` instead of being truncated into another cell.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind in "biu":
        return keys.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        coords = keys.astype(np.int64)
    wrong = coords != keys
    if wrong.any():
        raise ValueError(
            f"keys must be whole numbers; got {keys[wrong].flat[0]}"
        )
    return coords


class ProductDomain:
    """A d-dimensional product of per-axis structures.

    Each axis is either an :class:`~repro.structures.order.OrderedDomain`
    or a :class:`~repro.structures.hierarchy.RadixHierarchy`.  Keys are
    integer coordinate tuples; datasets store them as an ``(n, d)``
    array.
    """

    def __init__(self, axes: Sequence[Axis]):
        if not axes:
            raise ValueError("product domain needs at least one axis")
        self._axes = tuple(axes)

    @property
    def axes(self) -> Tuple[Axis, ...]:
        """Per-axis structure objects."""
        return self._axes

    @property
    def dims(self) -> int:
        """Number of dimensions."""
        return len(self._axes)

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Per-axis domain sizes."""
        return tuple(axis.size for axis in self._axes)

    def is_hierarchical(self, axis: int) -> bool:
        """Whether axis ``axis`` carries a hierarchy structure."""
        return isinstance(self._axes[axis], RadixHierarchy)

    def hierarchy(self, axis: int) -> RadixHierarchy:
        """The hierarchy on ``axis`` (raises if the axis is an order)."""
        ax = self._axes[axis]
        if not isinstance(ax, RadixHierarchy):
            raise TypeError(f"axis {axis} has no hierarchy structure")
        return ax

    def validate_coords(self, coords: np.ndarray) -> None:
        """Raise ``ValueError`` on malformed or out-of-domain coordinates."""
        coords = np.asarray(coords)
        if coords.ndim != 2 or coords.shape[1] != self.dims:
            raise ValueError(
                f"coords must have shape (n, {self.dims}), got {coords.shape}"
            )
        for axis, size in enumerate(self.sizes):
            column = coords[:, axis]
            if column.size and (int(column.min()) < 0 or int(column.max()) >= size):
                raise ValueError(f"coordinates out of range on axis {axis}")

    def full_box(self) -> "Box":
        """The box covering the whole domain."""
        from repro.structures.ranges import Box

        return Box(
            lows=tuple(0 for _ in self._axes),
            highs=tuple(size - 1 for size in self.sizes),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProductDomain(axes={self._axes!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ProductDomain) and self._axes == other._axes

    def __hash__(self) -> int:
        return hash(("ProductDomain", self._axes))


def line_domain(size: int) -> ProductDomain:
    """Convenience: a one-dimensional ordered product domain."""
    return ProductDomain([OrderedDomain(size)])
