"""Morton codes: the interleave, the prefix boxes and the domain limits.

Codes are checked against a bit-at-a-time reference interleave (most
significant bit first, round-robin over the axes that still have bits,
axis 0 first) on generated domains: odd sides whose top cell is
clipped, sides of one (no bits), 1-D widths up to 62 bits and the
2x32-bit network domain, whose codes use the word's top bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.network import network_domain
from repro.structures.morton import MortonLayout, bit_lengths

ODD_SIDES = (1, 3, 1000, (1 << 20) + 3)


def reference_code(point, widths):
    """The code of one point, one bit at a time."""
    code = 0
    for r in range(max(widths)):
        for axis, width in enumerate(widths):
            if width > r:
                bit = (int(point[axis]) >> (width - 1 - r)) & 1
                code = (code << 1) | bit
    return code


@st.composite
def domains(draw):
    """Sides of 1-3 axes whose widths fit a 64-bit code."""
    dims = draw(st.integers(1, 3))
    sides = []
    for _axis in range(dims):
        room = 64 - sum((side - 1).bit_length() for side in sides)
        widest = min(room, 62 // dims)
        kind = draw(st.sampled_from(("odd", "power", "any")))
        if kind == "odd":
            side = draw(st.sampled_from(ODD_SIDES))
        elif kind == "power":
            side = 1 << draw(st.integers(0, widest))
        else:
            side = draw(st.integers(1, 1 << widest))
        if (side - 1).bit_length() > room:
            side = 1 << room
        sides.append(side)
    return tuple(sides)


@st.composite
def layouts_and_points(draw, n=st.integers(1, 40)):
    sides = draw(domains())
    count = draw(n)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    columns = []
    for side in sides:
        edges = np.array([0, side - 1])
        column = rng.integers(0, side, size=count, dtype=np.int64)
        corner = rng.random(count) < 0.25  # domain edges on purpose
        column[corner] = edges[rng.integers(0, 2, size=int(corner.sum()))]
        columns.append(column)
    return MortonLayout(sides), np.column_stack(columns)


class TestInterleave:
    @settings(max_examples=200, deadline=None)
    @given(case=layouts_and_points())
    def test_matches_reference_and_round_trips(self, case):
        layout, points = case
        codes = layout.encode(points)
        assert codes.dtype == np.uint64
        assert [int(c) for c in codes] == [
            reference_code(p, layout.widths) for p in points
        ]
        np.testing.assert_array_equal(layout.coords(codes), points)
        lows, highs = layout.decode(codes, layout.bits)
        np.testing.assert_array_equal(lows, points)
        np.testing.assert_array_equal(highs, points)

    def test_axis_order(self):
        # Sides 4 x 4: x1 y1 x0 y0.  Sides 2 x 2^20: x0 y19 ... y0.
        assert int(MortonLayout((4, 4)).encode([[2, 1]])[0]) == 0b1001
        layout = MortonLayout((2, 1 << 20))
        assert layout.widths == (1, 20) and layout.bits == 21
        assert int(layout.encode([[1, 5]])[0]) == (1 << 20) | 5

    def test_widths(self):
        layout = MortonLayout(ODD_SIDES)
        assert layout.widths == (0, 2, 10, 21) and layout.bits == 33
        assert int(layout.encode([[0, 2, 999, (1 << 20) + 2]])[0]) == (
            reference_code((0, 2, 999, (1 << 20) + 2), layout.widths)
        )

    @pytest.mark.parametrize("width", [1, 2, 31, 32, 33, 61, 62])
    def test_one_axis_is_the_key(self, width):
        layout = MortonLayout((1 << width,))
        keys = np.array([0, 1, (1 << width) - 1, (1 << (width - 1))])
        assert [int(c) for c in layout.encode(keys[:, None])] == [
            int(k) for k in keys
        ]

    def test_network_domain_uses_the_top_bit(self):
        layout = MortonLayout.for_domain(network_domain())
        assert layout.widths == (32, 32) and layout.bits == 64
        top = (1 << 32) - 1
        points = np.array([[top, 0], [0, top], [top, top], [1 << 31, 0]])
        codes = layout.encode(points)
        assert [int(c) >> 63 for c in codes] == [1, 0, 1, 1]
        assert int(codes[2]) == (1 << 64) - 1
        np.testing.assert_array_equal(layout.coords(codes), points)
        lows, highs = layout.decode(codes, 1)  # the first bit is x31
        half = [[1 << 31, 0], [top, top]]
        np.testing.assert_array_equal(
            np.stack((lows, highs), axis=1),
            [half, [[0, 0], [(1 << 31) - 1, top]], half, half],
        )

    @pytest.mark.parametrize("sides", [
        ((1 << 33), (1 << 32)),
        ((1 << 22), (1 << 22), (1 << 21) + 1),
        ((1 << 64) + 1,),
    ])
    def test_widths_past_64_raise(self, sides):
        with pytest.raises(ValueError, match="64"):
            MortonLayout(sides)

    def test_widths_of_64_fit(self):
        MortonLayout((1 << 32, 1 << 32))
        MortonLayout(((1 << 21) + 1, 1 << 21, 1 << 20, 1, 2))

    def test_bad_sides_raise(self):
        with pytest.raises(ValueError):
            MortonLayout(())
        with pytest.raises(ValueError):
            MortonLayout((4, 0))
        with pytest.raises(ValueError, match="int64"):
            MortonLayout((1 << 64,))
        MortonLayout((1 << 63,))


class TestPrefixBoxes:
    @settings(max_examples=200, deadline=None)
    @given(case=layouts_and_points(n=st.integers(2, 60)),
           data=st.data())
    def test_box_holds_exactly_the_codes_sharing_the_prefix(self, case,
                                                            data):
        layout, points = case
        codes = [int(c) for c in layout.encode(points)]
        length = data.draw(st.integers(0, layout.bits))
        anchor = data.draw(st.integers(0, len(codes) - 1))
        lows, highs = layout.decode(
            np.array([codes[anchor]], dtype=np.uint64), length
        )
        inside = ((points >= lows) & (points <= highs)).all(axis=1)
        drop = layout.bits - length
        shares = [c >> drop == codes[anchor] >> drop for c in codes]
        assert inside.tolist() == shares
        # The box is the prefix's dyadic cell clipped to the domain.
        for axis, side in enumerate(layout.sizes):
            assert 0 <= lows[0, axis] <= highs[0, axis] <= side - 1
            span = int(highs[0, axis] - lows[0, axis]) + 1
            assert lows[0, axis] % (1 << (span - 1).bit_length()) == 0

    def test_root_is_the_domain_and_full_codes_are_points(self):
        layout = MortonLayout((3, 1000))
        lows, highs = layout.decode(np.zeros(1, dtype=np.uint64), 0)
        assert lows.tolist() == [[0, 0]] and highs.tolist() == [[2, 999]]
        code = layout.encode([[2, 999]])
        lows, highs = layout.decode(code, layout.bits)
        assert lows.tolist() == highs.tolist() == [[2, 999]]
        # One bit: axis 0's top bit, clipped at side 3.
        lows, highs = layout.decode(code, 1)
        assert lows.tolist() == [[2, 0]] and highs.tolist() == [[2, 999]]

    def test_lengths_broadcast(self):
        layout = MortonLayout((16, 16))
        codes = layout.encode([[5, 9], [5, 9], [5, 9]])
        lows, highs = layout.decode(codes, np.array([0, 4, 8]))
        assert lows.tolist() == [[0, 0], [4, 8], [5, 9]]
        assert highs.tolist() == [[15, 15], [7, 11], [5, 9]]


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.integers(0, 2**64 - 1), max_size=20))
def test_bit_lengths(words):
    got = bit_lengths(np.array(words, dtype=np.uint64))
    assert got.tolist() == [w.bit_length() for w in words]
