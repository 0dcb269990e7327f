"""Tests for the q-digest, Count-Sketch, and exact summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import same_bits
from repro.core.types import Dataset
from repro.datagen.distributions import pareto_weights
from repro.distributed import codec
from repro.structures.hierarchy import BitHierarchy
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box, MultiRangeQuery, interval
from repro.summaries.exact import ExactSummary
from repro.summaries.qdigest import QDigestSummary
from repro.summaries.sketch import CountSketch, DyadicSketchSummary


def dataset_2d(seed=0, n=150, bits=8):
    rng = np.random.default_rng(seed)
    domain = ProductDomain([BitHierarchy(bits), BitHierarchy(bits)])
    coords = rng.integers(0, 1 << bits, size=(n, 2))
    weights = 1.0 + rng.pareto(1.1, size=n)
    return Dataset(coords=coords, weights=weights, domain=domain).aggregate_duplicates()


class TestQDigest:
    def test_size_within_budget(self):
        data = dataset_2d()
        qd = QDigestSummary(data, 40)
        assert qd.size <= 40

    def test_total_weight_exact(self):
        data = dataset_2d()
        qd = QDigestSummary(data, 40)
        assert qd.query(data.domain.full_box()) == pytest.approx(
            data.total_weight
        )

    def test_budget_one_is_single_cell(self):
        data = dataset_2d()
        qd = QDigestSummary(data, 1)
        assert qd.size == 1

    def test_error_decreases_with_budget(self):
        data = dataset_2d(seed=5, n=300)
        exact = ExactSummary(data)
        boxes = [Box((0, 0), (127, 127)), Box((64, 64), (255, 255))]
        errors = []
        for s in (4, 64, 100_000):
            qd = QDigestSummary(data, s)
            errors.append(
                sum(abs(qd.query(b) - exact.query(b)) for b in boxes)
            )
        assert errors[2] <= errors[0] + 1e-9

    def test_large_budget_exact_on_dyadic_boxes(self):
        # With enough nodes every distinct point gets its own cell, so
        # any box is answered exactly (up to single-point cells).
        data = dataset_2d(seed=2, n=60)
        qd = QDigestSummary(data, 100_000)
        exact = ExactSummary(data)
        box = Box((0, 0), (200, 100))
        assert qd.query(box) == pytest.approx(exact.query(box), rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            QDigestSummary(dataset_2d(), 0)

    def test_deterministic(self):
        data = dataset_2d(seed=7)
        a = QDigestSummary(data, 30)
        b = QDigestSummary(data, 30)
        box = Box((10, 10), (99, 99))
        assert a.query(box) == b.query(box)

    def test_partial_mode_validation(self):
        with pytest.raises(ValueError):
            QDigestSummary(dataset_2d(), 10, partial="bogus")

    def test_query_bounds_contain_truth(self):
        data = dataset_2d(seed=9, n=200)
        qd = QDigestSummary(data, 25)
        exact = ExactSummary(data)
        for box in [Box((0, 0), (100, 100)), Box((50, 20), (250, 200))]:
            lower, upper = qd.query_bounds(box)
            truth = exact.query(box)
            assert lower - 1e-9 <= truth <= upper + 1e-9

    def test_half_estimate_is_midpoint_of_bounds(self):
        data = dataset_2d(seed=9, n=200)
        qd = QDigestSummary(data, 25, partial="half")
        box = Box((7, 3), (210, 180))
        lower, upper = qd.query_bounds(box)
        assert qd.query(box) == pytest.approx((lower + upper) / 2)

    def test_lower_mode_matches_lower_bound(self):
        data = dataset_2d(seed=9, n=200)
        qd = QDigestSummary(data, 25, partial="lower")
        box = Box((7, 3), (210, 180))
        assert qd.query(box) == pytest.approx(qd.query_bounds(box)[0])

    def test_uniform_mode_between_bounds(self):
        data = dataset_2d(seed=9, n=200)
        qd = QDigestSummary(data, 25, partial="uniform")
        box = Box((7, 3), (210, 180))
        lower, upper = qd.query_bounds(box)
        assert lower - 1e-9 <= qd.query(box) <= upper + 1e-9


#: A ``uniform`` digest of 40 points on sides 1000 x 3 (s=6), encoded
#: with the greedy build of the previous cell rule (halving at
#: ``lo + (hi - lo) // 2``, the axis cycle restarting at every split).
OLDER_FRAME = bytes.fromhex(
    "5253554d020771646967657374640500000073070000007061727469616c730700"
    "0000756e69666f726d730400000064696d7369020000000000000073080000006"
    "26f785f6c6f777361033c69380206000000020000002d03000000000000020000"
    "0000000000f40100000000000000000000000000000000000000000000000000"
    "00000000006b030000000000000200000000000000ee02000000000000020000"
    "0000000000f40100000000000002000000000000007309000000626f785f6869"
    "67687361033c69380206000000020000006a0300000000000002000000000000"
    "00e7030000000000000100000000000000f301000000000000020000000000000"
    "0e70300000000000002000000000000002c030000000000000200000000000000"
    "ed02000000000000020000000000000073070000007765696768747361033c66"
    "38010600000040355eba49d46140c876be9f1aaf3740c520b07268f14d401b2f"
    "dd2406413040448b6ce7fba91d40e9263108acdc2940"
)


def _frame(state):
    """A wire frame carrying ``state`` as a q-digest."""
    carrier = QDigestSummary(dataset_2d(), 1)
    carrier.to_state = lambda: state
    return codec.to_bytes(carrier)


def _low_above_high(state):
    lows = state["box_lows"].copy()
    lows[4, 1] = state["box_highs"][4, 1] + 1
    return dict(state, box_lows=lows)


def _weight(value):
    def tamper(state):
        weights = state["weights"].copy()
        weights[2] = value
        return dict(state, weights=weights)
    return tamper


class TestQDigestState:
    """States no digest can be in are refused, from a frame or not."""

    @pytest.mark.parametrize("tamper", [
        lambda state: dict(state, partial="bogus"),
        lambda state: dict(state, dims=3),                 # boxes are 2-D
        lambda state: dict(state, dims=0),
        lambda state: dict(state, box_lows=state["box_lows"].ravel()),
        lambda state: dict(state, box_highs=state["box_highs"][1:]),
        lambda state: dict(state, weights=np.ones(13)),
        lambda state: dict(state, box_lows=state["box_lows"] * 1.0),
        _low_above_high,
        _weight(-5.0),
        _weight(float("nan")),
        _weight(float("inf")),
    ], ids=["partial", "dims", "no-dims", "flat-lows", "short-highs",
            "long-weights", "float-lows", "low-above-high",
            "negative-weight", "nan-weight", "inf-weight"])
    def test_tampered_state_rejected(self, tamper):
        state = tamper(dict(QDigestSummary(dataset_2d(seed=3), 12)
                            .to_state()))
        with pytest.raises(ValueError):
            QDigestSummary.from_state(state)
        with pytest.raises(ValueError):
            codec.from_bytes(_frame(state))

    def test_older_frame_round_trips(self):
        digest = codec.from_bytes(OLDER_FRAME)
        state = digest.to_state()
        assert state["partial"] == "uniform" and state["dims"] == 2
        assert state["box_lows"].tolist() == [
            [813, 2], [500, 0], [0, 0], [875, 2], [750, 2], [500, 2]]
        assert state["box_highs"].tolist() == [
            [874, 2], [999, 1], [499, 2], [999, 2], [812, 2], [749, 2]]
        assert digest.query(Box((0, 0), (499, 2))) == 59.886
        assert digest.query(Box((100, 1), (900, 1))) == 25.466884
        assert codec.to_bytes(digest) == OLDER_FRAME


ODD_SIDES = (1, 3, 7, 64, 1000, (1 << 20) + 3)


@st.composite
def digest_batteries(draw):
    """A 2-D or 3-D dataset, a node budget and a battery of boxes."""
    dims = draw(st.integers(2, 3))
    sides = draw(st.lists(st.sampled_from(ODD_SIDES), min_size=dims,
                          max_size=dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(0, 30))
    pool = np.column_stack(
        [rng.integers(0, side, size=distinct) for side in sides]
    ).reshape(distinct, dims)
    n = draw(st.integers(1, 60)) if distinct else 0
    coords = pool[rng.integers(0, max(distinct, 1), size=n)]
    kind = draw(st.sampled_from(("unit", "zeros", "pareto")))
    if kind == "unit":
        weights = np.ones(n)
    elif kind == "zeros":
        weights = rng.integers(0, 3, size=n).astype(float)
    else:
        weights = pareto_weights(n, 1.2, rng=rng)
    domain = ProductDomain([OrderedDomain(side) for side in sides])
    data = Dataset(coords, weights, domain)
    keys = np.unique(coords, axis=0).shape[0]
    s = draw(st.sampled_from(
        (1, 2, max(1, keys - 1), max(1, keys), keys + 1, 2 * keys + 5,
         draw(st.integers(1, 40)))
    ))
    top = np.array(sides) - 1
    boxes = [Box(tuple([0] * dims), tuple(top))]             # whole domain
    for _ in range(draw(st.integers(1, 8))):
        a = np.array([rng.integers(0, side) for side in sides])
        b = np.array([rng.integers(0, side) for side in sides])
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        edge = rng.integers(0, 3)
        if edge == 1:
            lo[:] = 0                                       # lo = 0
        elif edge == 2:
            hi = top.copy()                                 # hi = size - 1
        boxes.append(Box(tuple(lo), tuple(hi)))
    for point in coords[:3]:                                # single keys
        boxes.append(Box(tuple(point), tuple(point)))
    return data, s, boxes


class TestQDigestBatteries:
    """``query_many`` answers like ``query``, bit for bit, in 2-D/3-D."""

    @settings(max_examples=150, deadline=None)
    @given(case=digest_batteries(),
           partial=st.sampled_from(("half", "uniform", "lower")))
    def test_query_many_matches_query(self, case, partial):
        data, s, boxes = case
        digest = QDigestSummary(data, s, partial=partial)
        keys = np.unique(data.coords, axis=0).shape[0]
        assert digest.size == max(1, min(s, keys))
        expect = [digest.query(box) for box in boxes]
        assert same_bits(digest.query_many(boxes), expect)
        restored = codec.from_bytes(codec.to_bytes(digest))
        assert same_bits(restored.query_many(boxes), expect)
        if partial != "lower":
            assert digest.query(boxes[0]) == pytest.approx(
                data.total_weight, abs=1e-9 * max(1.0, data.total_weight)
            )


class TestCountSketch:
    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            CountSketch(0, 3, rng)
        with pytest.raises(ValueError):
            CountSketch(10, 0, rng)

    def test_exactish_for_few_keys_wide_sketch(self):
        rng = np.random.default_rng(1)
        sk = CountSketch(width=4096, depth=5, rng=rng)
        keys = np.arange(10, dtype=np.uint64)
        values = np.arange(1.0, 11.0)
        sk.update_many(keys, values)
        est = sk.estimate_many(keys)
        np.testing.assert_allclose(est, values, atol=1e-9)

    def test_heavy_hitter_recovered_in_noise(self):
        rng = np.random.default_rng(2)
        sk = CountSketch(width=512, depth=5, rng=rng)
        keys = rng.integers(0, 2**40, size=5000).astype(np.uint64)
        values = np.ones(5000)
        sk.update_many(keys, values)
        sk.update_many(np.array([123456789], dtype=np.uint64), np.array([500.0]))
        est = sk.estimate(123456789)
        assert est == pytest.approx(501.0, abs=60)

    def test_counters_property(self):
        sk = CountSketch(16, 3, np.random.default_rng(0))
        assert sk.counters == 48

    def test_unbiased_single_key(self):
        estimates = []
        for t in range(300):
            rng = np.random.default_rng(t)
            sk = CountSketch(width=8, depth=1, rng=rng)
            keys = np.arange(20, dtype=np.uint64)
            sk.update_many(keys, np.ones(20))
            estimates.append(sk.estimate(0))
        assert np.mean(estimates) == pytest.approx(1.0, abs=0.5)


class TestDyadicSketch:
    def test_size_reflects_counters(self):
        data = dataset_2d()
        sk = DyadicSketchSummary(data, 50_000, rng=np.random.default_rng(0))
        assert sk.size >= (8 + 1) * (8 + 1) * 3  # at least width 1 each

    def test_accurate_when_budget_huge(self):
        data = dataset_2d(seed=3, n=40, bits=5)
        sk = DyadicSketchSummary(
            data, 3_000_000, rng=np.random.default_rng(1)
        )
        exact = ExactSummary(data)
        for box in [Box((0, 0), (31, 31)), Box((3, 7), (20, 25))]:
            assert sk.query(box) == pytest.approx(exact.query(box), rel=0.05, abs=2.0)

    def test_1d_supported(self):
        data = Dataset.one_dimensional([1, 5, 9], [1.0, 2.0, 3.0], size=16)
        sk = DyadicSketchSummary(data, 5000, rng=np.random.default_rng(0))
        assert sk.query(interval(0, 15)) == pytest.approx(6.0, abs=1.0)

    def test_validation(self):
        data = dataset_2d()
        with pytest.raises(ValueError):
            DyadicSketchSummary(data, 0)

    def test_rejects_3d(self):
        domain = ProductDomain([BitHierarchy(2)] * 3)
        data = Dataset(
            coords=np.array([[0, 0, 0]]),
            weights=np.array([1.0]),
            domain=domain,
        )
        with pytest.raises(ValueError):
            DyadicSketchSummary(data, 10)


class TestExact:
    def test_query_matches_scan(self):
        data = dataset_2d(seed=4)
        exact = ExactSummary(data)
        box = Box((0, 0), (100, 200))
        mask = box.contains(data.coords)
        assert exact.query(box) == pytest.approx(data.weights[mask].sum())

    def test_query_multi_single_scan(self):
        data = dataset_2d(seed=4)
        exact = ExactSummary(data)
        q = MultiRangeQuery(
            [Box((0, 0), (50, 50)), Box((100, 100), (150, 150))]
        )
        assert exact.query_multi(q) == pytest.approx(
            exact.query(q.boxes[0]) + exact.query(q.boxes[1])
        )

    def test_size_is_data_size(self):
        data = dataset_2d(seed=4)
        assert ExactSummary(data).size == data.n
