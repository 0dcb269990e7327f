"""Canonical dyadic decomposition of intervals and boxes.

A dyadic cell at *depth* ``d`` within a ``bits``-bit domain is an
aligned interval of length ``2**(bits-d)``: exactly a node of the
:class:`~repro.structures.hierarchy.BitHierarchy`.  Any closed interval
``[lo, hi]`` decomposes into at most ``2*bits`` disjoint dyadic cells;
a d-dimensional box decomposes into the product of the per-axis
decompositions.  The Count-Sketch baseline and several tests rely on
these decompositions.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def dyadic_cell_interval(bits: int, depth: int, index: int) -> Tuple[int, int]:
    """Closed interval ``[lo, hi]`` of dyadic cell ``(depth, index)``."""
    span = 1 << (bits - depth)
    lo = index * span
    return lo, lo + span - 1


def dyadic_decompose_interval(lo: int, hi: int, bits: int) -> List[Tuple[int, int]]:
    """Minimal disjoint dyadic cover of closed interval ``[lo, hi]``.

    Returns ``(depth, index)`` pairs with ``depth`` in ``[0, bits]``;
    the cells are returned left to right.  Raises on an empty or
    out-of-domain interval.
    """
    domain = 1 << bits
    if lo > hi:
        raise ValueError("empty interval")
    if lo < 0 or hi >= domain:
        raise ValueError("interval outside domain")
    cells: List[Tuple[int, int]] = []
    position = int(lo)
    end = int(hi)
    while position <= end:
        # Largest aligned cell starting at `position` that fits in [position, end].
        max_by_alignment = position & -position if position else domain
        remaining = end - position + 1
        size = min(max_by_alignment, domain)
        while size > remaining:
            size >>= 1
        depth = bits - size.bit_length() + 1
        cells.append((depth, position >> (bits - depth)))
        position += size
    return cells


#: Which cell of an interval's remaining range the cover emits at a
#: level: the left one when odd, the right one when even.
_EMIT_PARITY = np.array([1, 0])[:, None]


def dyadic_decompose_intervals(
    lows: np.ndarray, highs: np.ndarray, bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical dyadic covers of many closed intervals at once.

    The batched counterpart of :func:`dyadic_decompose_interval`: for
    ``q`` intervals ``[lows[i], highs[i]]`` it returns three flat int64
    arrays ``(depths, indices, owners)`` where cell ``k`` is the dyadic
    cell ``(depths[k], indices[k])`` belonging to interval
    ``owners[k]``.  Per interval the emitted cells form exactly the
    scalar function's (unique, minimal) cover.  Order: depth-major,
    finest level first; within a depth, left-end cells before
    right-end cells, owners ascending -- the layout the sketch kernels
    consume.

    Closed form of the classic bottom-up climb: at shift ``k`` (depth
    ``bits - k``) an interval's remaining cell range is ``[ceil(lo /
    2^k), floor((hi + 1) / 2^k) - 1]``; its left cell is emitted when
    odd, its right cell when even, neither once left > right.  One
    ``(bits + 1, 2, q)`` mask holds every emission, and its nonzero
    order is the output order.  ``ceil`` is taken as ``-((-lo) >> k)``,
    so no intermediate exceeds ``hi + 1`` (exact up to ``bits = 62``).
    The mask is read through its flat nonzero positions: one ``divmod``
    by the row length ``2q`` splits each into its shift and column,
    which is cheaper than a 3-D ``nonzero`` plus a boolean gather.
    """
    lo = np.asarray(lows, dtype=np.int64)
    hi = np.asarray(highs, dtype=np.int64)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("lows and highs must be matching 1-D arrays")
    if (lo > hi).any():
        raise ValueError("empty interval")
    if lo.size and (lo.min() < 0 or hi.max() >= (1 << bits)):
        raise ValueError("interval outside domain")
    q = lo.shape[0]
    shifts = np.arange(bits + 1, dtype=np.int64)[:, None]
    ends = np.stack((-((-lo) >> shifts), ((hi + 1) >> shifts) - 1), axis=1)
    emit = (ends & 1) == _EMIT_PARITY
    emit &= (ends[:, 0] <= ends[:, 1])[:, None]
    index = np.flatnonzero(emit)
    shift, column = np.divmod(index, 2 * q)
    owners = np.where(column >= q, column - q, column)
    return bits - shift, ends.ravel()[index], owners


def dyadic_decompose_box(box, bits_per_axis) -> List[Tuple[Tuple[int, int], ...]]:
    """Decompose a box into products of per-axis dyadic cells.

    Parameters
    ----------
    box:
        A :class:`~repro.structures.ranges.Box`.
    bits_per_axis:
        Sequence of domain bit-widths, one per axis.

    Returns
    -------
    list of tuples, one per rectangle, each a per-axis ``(depth, index)``
    pair.  The number of rectangles is at most
    ``prod(2 * bits_per_axis)``.
    """
    per_axis = [
        dyadic_decompose_interval(box.lows[a], box.highs[a], bits_per_axis[a])
        for a in range(box.dims)
    ]
    rects: List[Tuple[Tuple[int, int], ...]] = [()]
    for axis_cells in per_axis:
        rects = [rect + (cell,) for rect in rects for cell in axis_cells]
    return rects
