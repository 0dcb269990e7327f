"""Morton (Z-order) codes over a product domain.

A key's Morton code interleaves its coordinates' bits, most significant
first, round-robin over the axes that still have bits, axis 0 first.
Axis ``i`` of a domain of side ``size_i`` has ``(size_i - 1).bit_length()``
bits, so with two 32-bit axes the code's bits read ``x31 y31 x30 y30
... x0 y0``, and with sides ``2 x 2^20`` they read ``x0 y19 y18 ... y0``.
The code is an unsigned 64-bit integer; domains whose widths sum past
64 bits raise ``ValueError``.

Every prefix of a code is a dyadic box: the first ``L`` bits fix the top
bits of each axis they cover and leave the rest free.  Keys sharing a
prefix are exactly the keys in its box, so sorted codes hold every such
cell as one contiguous run, and the longest prefix two sorted codes share
(the leading zeros of their XOR) names the smallest cell holding both.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Bits in a code word.
CODE_BITS = 64


def _spread_masks(stride: int, length: int) -> List[Tuple[int, int]]:
    """``(shift, mask)`` steps moving bit ``j`` of a word to bit ``j*stride``.

    Halving chunk ``c`` from the next power of two at or above
    ``length`` down to 1, bit ``j`` sits at ``(j // c)*c*stride + j % c``
    after the step for ``c``: the upper half of every ``2c`` chunk moves
    up by ``c*(stride - 1)`` and the mask keeps only the moved or
    unmoved bits, never a stray copy.
    """
    steps = []
    chunk = 1 << max(0, length - 1).bit_length()
    while stride > 1 and chunk > 1:
        chunk >>= 1
        mask = 0
        for first in range(0, length, chunk):  # one run of ones per chunk
            run = min(chunk, length - first)
            mask |= ((1 << run) - 1) << (first * stride)
        steps.append((chunk * (stride - 1), mask))
    return steps


class MortonLayout:
    """The bit interleave of an axis-aligned integer domain.

    Parameters
    ----------
    sizes:
        Per-axis domain sides; axis ``i`` holds ``[0, sizes[i])``.
    """

    def __init__(self, sizes: Sequence[int]):
        self.sizes = tuple(int(size) for size in sizes)
        if not self.sizes or min(self.sizes) < 1:
            raise ValueError("domain sides must be >= 1")
        self.widths = tuple((size - 1).bit_length() for size in self.sizes)
        self.bits = sum(self.widths)
        if self.bits > CODE_BITS:
            raise ValueError(
                f"axis widths {self.widths} sum to {self.bits} bits; a "
                f"Morton code holds at most {CODE_BITS}"
            )
        if max(self.sizes) > 1 << 63:
            raise ValueError("domain sides must fit int64 keys (<= 2^63)")
        dims = len(self.sizes)
        # Runs of rounds with the same axes still holding bits: each
        # axis' bits in a run spread with that run's axis count.
        self._parts = []
        position, done = 0, 0
        for end in sorted(set(self.widths) - {0}):
            axes = [i for i in range(dims) if self.widths[i] >= end]
            stride, length = len(axes), end - done
            low = self.bits - position - length * stride
            steps = [
                (np.uint64(shift), np.uint64(mask))
                for shift, mask in _spread_masks(stride, length)
            ]
            for rank, axis in enumerate(axes):
                self._parts.append((
                    axis,
                    np.uint64(self.widths[axis] - end),
                    np.uint64(low + stride - 1 - rank),
                    np.uint64((1 << length) - 1),
                    steps,
                ))
            position += length * stride
            done = end
        # Per prefix length 0..bits: each axis' bits the prefix leaves free.
        owner = np.array([
            axis
            for r in range(max(self.widths))
            for axis in range(dims)
            if self.widths[axis] > r
        ], dtype=np.int64)
        self._spare = np.array(self.widths) - np.concatenate((
            np.zeros((1, dims), dtype=np.int64),
            np.cumsum(owner[:, None] == np.arange(dims), axis=0),
        ))
        self._top = np.array([size - 1 for size in self.sizes], np.uint64)

    @classmethod
    def for_domain(cls, domain) -> "MortonLayout":
        """The layout of a :class:`~repro.structures.product.ProductDomain`."""
        return cls(domain.sizes)

    def encode(self, coords) -> np.ndarray:
        """Morton codes (``uint64``) of ``(n, d)`` in-domain coordinates."""
        coords = np.asarray(coords, dtype=np.int64).reshape(
            -1, len(self.sizes)
        ).astype(np.uint64)
        codes = np.zeros(coords.shape[0], dtype=np.uint64)
        for axis, source, target, width_mask, steps in self._parts:
            word = (coords[:, axis] >> source) & width_mask
            for shift, mask in steps:
                word = (word | (word << shift)) & mask
            codes |= word << target
        return codes

    def coords(self, codes) -> np.ndarray:
        """The ``(n, d)`` int64 coordinates whose codes are ``codes``."""
        codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
        coords = np.zeros((codes.size, len(self.sizes)), dtype=np.uint64)
        for axis, source, target, width_mask, steps in self._parts:
            word = (codes >> target) & (steps[-1][1] if steps else width_mask)
            for i in range(len(steps) - 1, -1, -1):
                upper = steps[i - 1][1] if i else width_mask
                word = (word | (word >> steps[i][0])) & upper
            coords[:, axis] |= word << source
        return coords.astype(np.int64)

    def decode(self, codes, lengths) -> Tuple[np.ndarray, np.ndarray]:
        """The boxes of code prefixes, clipped to the domain.

        Prefix ``k`` is the first ``lengths[k]`` bits (0 to ``bits``) of
        ``codes[k]``; the bits after it are ignored.  Returns int64
        ``(n, d)`` lows and highs.
        """
        codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
        spare = self._spare[np.broadcast_to(lengths, codes.shape)]
        # 2 << (spare - 1) wraps to 0 at 64 free bits, so free is all ones.
        free = (np.uint64(2) << np.maximum(spare - 1, 0).astype(np.uint64)
                ) - np.uint64(1)
        free[spare == 0] = 0
        point = self.coords(codes).astype(np.uint64)
        lows = point & ~free
        highs = np.minimum(point | free, self._top)
        return lows.astype(np.int64), highs.astype(np.int64)


def bit_lengths(words: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each ``uint64`` word, as int64."""
    words = np.asarray(words, dtype=np.uint64).copy()
    for shift in (1, 2, 4, 8, 16, 32):
        words |= words >> np.uint64(shift)
    return np.bitwise_count(words).astype(np.int64)
