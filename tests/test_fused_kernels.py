"""Level-fused qdigest-stream and sketch kernels, the closed-form
dyadic decomposition and the all-Box query plan.

The contract is *bit*-identity with the per-level kernels they replace:

* golden answers (``golden_fused_kernels.json``, float64 as hex) were
  computed by the per-level kernels on two fixed seeds and are
  asserted bitwise -- for the qdigest-stream scan and its per-depth
  oracle (``tests/oracles.py``) and for the 1-D sketch;
* generated cases (``hypothesis``) over random small digests and
  sketches up to 62-bit domains, with full-domain boxes, single keys,
  empty and one-box batteries, and empty digests;
* bulk batteries, which rank their probes by counting;
* the sketch's min/max median against ``np.median``, bitwise.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import qdigest_stream_query_many, same_bits
from repro.structures.dyadic import (
    dyadic_decompose_interval,
    dyadic_decompose_intervals,
)
from repro.structures.product import line_domain
from repro.structures.ranges import Box, MultiRangeQuery, compile_query_plan
from repro.summaries.qdigest_stream import StreamingQDigest
from repro.summaries.sketch import DyadicSketchSummary, median_rows

GOLDEN = pathlib.Path(__file__).with_name("golden_fused_kernels.json")
GOLDEN_SEEDS = (0, 1)
CASES = settings(max_examples=60, deadline=None)


def golden_case(seed):
    """The fixed digest, sketch and battery of one golden seed."""
    rng = np.random.default_rng([seed, 13])
    bits = 20
    size = 1 << bits
    keys = rng.integers(0, size, 4000)
    weights = 1.0 + rng.pareto(1.2, 4000)
    digest = StreamingQDigest(bits, k=60, compress_every=97 + seed)
    digest.update(keys, weights)
    sketch = DyadicSketchSummary.for_domain(
        line_domain(size), 900, depth=3 + seed
    )
    sketch.update(keys, weights)
    lows = rng.integers(0, size, 60)
    highs = np.minimum(lows + rng.integers(0, size // 8, 60), size - 1)
    pairs = list(zip(lows.tolist(), highs.tolist())) + [
        (0, size - 1), (0, 0), (size - 1, size - 1), (12345, 12345),
        (size // 4, size // 2 - 1), (size // 2, size // 2 + 4095),
    ]
    return digest, sketch, [Box((lo,), (hi,)) for lo, hi in pairs]


def _bits_of(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_golden_answers_bitwise(seed):
    golden = json.loads(GOLDEN.read_text())[str(seed)]
    digest, sketch, boxes = golden_case(seed)
    assert _bits_of(digest.query_many(boxes)) == golden["qdigest-stream"]
    oracle = qdigest_stream_query_many(digest.to_state(), boxes)
    assert _bits_of(oracle) == golden["qdigest-stream"]
    assert _bits_of(sketch.query_many(boxes)) == golden["sketch"]


# ----------------------------------------------------------------------
# Generated cases
# ----------------------------------------------------------------------
@st.composite
def domains_and_batteries(draw, max_bits=62):
    """``(bits, keys, weights, boxes)``: keys may be empty or bulk
    (a digest with many levels), batteries hold 0, 1 or many boxes
    (many always includes the full domain and both end keys)."""
    bits = draw(st.integers(1, max_bits))
    top = (1 << bits) - 1
    key = st.integers(0, top)
    keys = draw(st.lists(key, max_size=40))
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=len(keys),
                            max_size=len(keys)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        keys += rng.integers(0, top, 1500, endpoint=True).tolist()
        weights += (1.0 + rng.pareto(1.1, 1500)).tolist()
    interval = st.tuples(key, key).map(sorted)
    shape = draw(st.sampled_from(("empty", "one", "many")))
    if shape == "empty":
        pairs = []
    elif shape == "one":
        pairs = [draw(st.one_of(interval, key.map(lambda k: (k, k)),
                                st.just((0, top))))]
    else:
        point = draw(key)
        pairs = draw(st.lists(interval, max_size=20)) + [
            (0, top), (0, 0), (top, top), (point, point),
        ]
    boxes = [Box((lo,), (hi,)) for lo, hi in pairs]
    return bits, np.asarray(keys, dtype=np.int64), np.asarray(weights), boxes


@CASES
@given(case=domains_and_batteries(), k=st.integers(1, 16),
       cadence=st.integers(1, 40))
def test_qdigest_fused_scan_equals_level_loop(case, k, cadence):
    bits, keys, weights, boxes = case
    digest = StreamingQDigest(bits, k=k, compress_every=cadence)
    digest.update(keys, weights)
    fused = np.asarray(digest.query_many(boxes))
    assert fused.shape == (len(boxes),)
    assert same_bits(fused,
                     qdigest_stream_query_many(digest.to_state(), boxes))


@CASES
@given(case=domains_and_batteries(), s=st.integers(1, 2000),
       depth=st.integers(1, 5))
def test_sketch_fused_matches_scalar_query(case, s, depth):
    bits, keys, weights, boxes = case
    sketch = DyadicSketchSummary.for_domain(
        line_domain(1 << bits), s, depth=depth
    )
    sketch.update(keys, weights)
    got = sketch.query_many(boxes)
    ref = [sketch.query(box) for box in boxes]
    scale = float(weights.sum()) if keys.size else 1.0
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * scale)


def test_qdigest_fused_scan_single_boxes_many_levels():
    """B = 1 against a many-level digest: the per-box fold must still
    add level by level, not pairwise."""
    rng = np.random.default_rng(41)
    digest = StreamingQDigest(48, k=4, compress_every=7)
    digest.update(rng.integers(0, 1 << 48, 3000),
                  1.0 + rng.pareto(1.1, 3000))
    assert len(digest.interval_table().level_values) >= 4
    state = digest.to_state()
    for _ in range(50):
        lo = int(rng.integers(0, 1 << 47))
        boxes = [Box((lo,), (lo + int(rng.integers(0, 1 << 47)),))]
        assert same_bits(digest.query_many(boxes),
                         qdigest_stream_query_many(state, boxes))


@pytest.mark.parametrize("bits", (20, 62))
def test_qdigest_fused_scan_bulk_batteries(bits):
    """Bulk batteries (many probes per table row) count the rows into
    the sorted probes instead of binary-searching each probe; answers
    stay bitwise, with tied bounds, single keys and the full domain."""
    rng = np.random.default_rng(bits)
    top = (1 << bits) - 1
    digest = StreamingQDigest(bits, k=30, compress_every=53)
    digest.update(rng.integers(0, top, 5000, endpoint=True),
                  1.0 + rng.pareto(1.1, 5000))
    table = digest.interval_table()
    lows = rng.integers(0, top, 4000, endpoint=True)
    highs = np.minimum(lows + rng.integers(0, top // 8, 4000), top)
    highs[:50] = lows[:50]
    lows[50:300], highs[50:300] = lows[300:550], highs[300:550]
    lows[-1], highs[-1] = 0, top
    assert lows.size * len(table.level_values) > 2 * len(table)
    boxes = [Box((lo,), (hi,)) for lo, hi in zip(lows.tolist(),
                                                 highs.tolist())]
    assert same_bits(digest.query_many(boxes),
                     qdigest_stream_query_many(digest.to_state(), boxes))


def _decompose_by_levels(lows, highs, bits):
    """The per-level climb the closed form replaced, verbatim (reference)."""
    lo = np.asarray(lows, dtype=np.int64).copy()
    hi = np.asarray(highs, dtype=np.int64).copy()
    owners = np.arange(lo.size, dtype=np.int64)
    out_depths, out_indices, out_owners = [], [], []
    for depth in range(bits, -1, -1):
        if lo.size == 0:
            break
        emit_lo = (lo & 1) == 1
        if emit_lo.any():
            out_depths.append(np.full(int(emit_lo.sum()), depth))
            out_indices.append(lo[emit_lo])
            out_owners.append(owners[emit_lo])
        lo = lo + emit_lo
        emit_hi = (hi & 1) == 0
        if emit_hi.any():
            out_depths.append(np.full(int(emit_hi.sum()), depth))
            out_indices.append(hi[emit_hi])
            out_owners.append(owners[emit_hi])
        hi = hi - emit_hi
        alive = lo <= hi
        if not alive.all():
            lo, hi, owners = lo[alive], hi[alive], owners[alive]
        lo >>= 1
        hi >>= 1
    if not out_depths:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return (
        np.concatenate(out_depths),
        np.concatenate(out_indices),
        np.concatenate(out_owners),
    )


@CASES
@given(case=domains_and_batteries())
def test_closed_form_decomposition_matches_loop_and_scalar(case):
    bits, _keys, _weights, boxes = case
    lows = [box.lows[0] for box in boxes]
    highs = [box.highs[0] for box in boxes]
    got = dyadic_decompose_intervals(lows, highs, bits)
    ref = _decompose_by_levels(lows, highs, bits)
    for got_part, ref_part in zip(got, ref):
        assert got_part.dtype == np.int64
        assert got_part.tolist() == ref_part.tolist()
    depths, cells, owners = got
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        mine = owners == i
        assert set(zip(depths[mine].tolist(), cells[mine].tolist())) == set(
            dyadic_decompose_interval(lo, hi, bits)
        )


@st.composite
def box_batteries(draw):
    """Boxes of one dimensionality whose fields are tuples of Python or
    NumPy ints, or NumPy arrays."""
    dims = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    boxes = []
    for _ in range(n):
        lows = draw(st.lists(st.integers(-50, 50), min_size=dims,
                             max_size=dims))
        highs = [lo + draw(st.integers(0, 50)) for lo in lows]
        kind = draw(st.sampled_from(("tuple", "numpy-ints", "array")))
        if kind == "numpy-ints":
            lows = tuple(np.int64(v) for v in lows)
            highs = tuple(np.int64(v) for v in highs)
        elif kind == "array":
            lows, highs = np.asarray(lows), np.asarray(highs)
        else:
            lows, highs = tuple(lows), tuple(highs)
        boxes.append(Box(lows, highs))
    return boxes


@CASES
@given(boxes=box_batteries())
def test_box_plan_bounds_equal_per_box_stacks(boxes):
    plan = compile_query_plan(boxes)
    expect = np.concatenate([box.stacked_bounds() for box in boxes])
    assert plan.bounds.dtype == np.int64
    assert plan.bounds.shape == expect.shape
    assert (plan.bounds == expect).all()
    assert plan.counts.tolist() == [1] * len(boxes)
    assert plan.offsets.tolist() == list(range(len(boxes)))


def test_mixed_dimensionality_battery_raises():
    one, two = Box((1,), (2,)), Box((1, 1), (3, 3))
    with pytest.raises(ValueError):
        compile_query_plan([one, two])
    with pytest.raises(ValueError):
        compile_query_plan([one, MultiRangeQuery([two])])


@pytest.mark.parametrize("depth", range(1, 8))
def test_median_rows_equals_np_median_bitwise(depth):
    """The sketch's elementwise median keeps every bit of
    ``np.median(axis=1)`` at odd and even depths: a zero median is
    ``+0.0`` whatever the zeros' signs, all-zero columns included, and
    subnormals and magnitudes near overflow round the same way."""
    rng = np.random.default_rng(depth)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                         1e300, -1e300, 1.7e308, -1.7e308, 1.0, -1.0])
    signs = rng.choice([1.0, -1.0], size=(depth, 400))
    blocks = [
        rng.choice(specials, size=(depth, 400)),
        rng.choice([0.0, -0.0], size=(depth, 400)),
        np.zeros((depth, 3)),
        -np.zeros((depth, 3)),
        rng.integers(-2, 3, size=(depth, 400)) * signs,
        rng.normal(size=(depth, 400))
        * 10.0 ** rng.integers(-300, 301, size=(depth, 400)),
        np.zeros((depth, 0)),
    ]
    for block in blocks:
        with np.errstate(over="ignore"):
            expect = np.median(block.T, axis=1)
            got = median_rows(block)
        assert same_bits(got, expect)
