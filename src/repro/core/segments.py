"""Segmented array passes of the level-synchronous kd build.

The kd partition and the kd-product sampler keep each tree node's
points as one contiguous *segment* of a row array and treat all nodes
of a level in a few NumPy passes.  Sums stay bit-identical to per-node
``ndarray.sum()`` / ``np.cumsum`` calls, which ``np.add.reduceat`` and
a global cumsum minus offsets are not (they round differently).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def segment_layout(
    starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segments ``[start, start + length)`` laid end to end.

    Returns each laid-out element's source position and segment
    number, and each segment's offset in the layout.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    seg = np.repeat(np.arange(lengths.size), lengths)
    positions = np.arange(seg.size) + (np.asarray(starts) - offsets)[seg]
    return positions, seg, offsets


def stable_partition(
    left: np.ndarray, seg: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable left/right partition of every (non-empty) laid-out segment.

    Returns each element's layout destination (a segment's ``left``
    elements first, both sides in order) and each segment's left count.
    """
    upto = np.cumsum(left)
    through = upto[np.append(offsets[1:], left.size)[:offsets.size] - 1]
    n_left = through - upto[offsets] + left[offsets]
    dest = np.where(
        left,
        upto - 1 + (offsets - through + n_left)[seg],
        np.arange(left.size) - upto + through[seg],
    )
    return dest, n_left


def segment_sums(
    values: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Each segment's pairwise ``ndarray.sum()`` (one element: ``0.0 + v``)."""
    out = np.zeros(offsets.size)
    single = lengths == 1
    out[single] = values[offsets[single]] + 0.0
    starts, ends = offsets.tolist(), (offsets + lengths).tolist()
    for i in np.flatnonzero(~single).tolist():
        out[i] = values[starts[i]:ends[i]].sum()
    return out


def segment_cumsum(
    values: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Each segment's sequential ``np.cumsum``, laid out like ``values``.

    Segments are bucketed by power-of-two length, zero-padded on the
    right and accumulated row-wise: the additions of one cumsum each.
    """
    out = np.empty_like(values)
    widths = np.left_shift(1, np.frexp(lengths - 1)[1])
    for width in np.unique(widths).tolist():
        sel = np.flatnonzero(widths == width)
        cols = np.arange(width)
        inside = cols < lengths[sel][:, None]
        index = (offsets[sel][:, None] + cols)[inside]
        grid = np.zeros((sel.size, width))
        grid[inside] = values[index]
        out[index] = np.cumsum(grid, axis=1)[inside]
    return out
