"""Vectorized batch query evaluation matches the per-query loop.

Property tests over random boxes: ``Box.contains_many``,
``batch_union_masks`` and ``batch_query_sums`` must agree with the
per-box/per-query reference implementations on every summary type that
overrides ``query_many``.  Generated batteries (``hypothesis``) mix
plain boxes with disjoint and overlapping multi-range unions in 1-D
and 2-D, so the batch kernel's single-box and union paths both meet
the scalar loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import SampleSummary
from repro.core.types import Dataset
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import (
    Box,
    MultiRangeQuery,
    batch_query_sums,
    batch_union_masks,
    flatten_queries,
    stack_boxes,
)
from repro.summaries.base import Summary
from repro.summaries.exact import ExactSummary
from repro.summaries.qdigest import QDigestSummary


def random_disjoint_queries(rng, dims, size, n_queries, max_ranges=4):
    """Random multi-range queries with pairwise-disjoint boxes."""
    queries = []
    for _ in range(n_queries):
        boxes = []
        for _ in range(int(rng.integers(1, max_ranges + 1))):
            for _attempt in range(50):
                lows = rng.integers(0, size - 1, size=dims)
                spans = rng.integers(0, size // 4, size=dims)
                highs = np.minimum(lows + spans, size - 1)
                candidate = Box(tuple(int(x) for x in lows),
                                tuple(int(x) for x in highs))
                if not any(candidate.intersects(b) for b in boxes):
                    boxes.append(candidate)
                    break
        queries.append(MultiRangeQuery(boxes))
    return queries


@pytest.fixture(params=[1, 2, 3])
def setup(request):
    dims = request.param
    rng = np.random.default_rng(100 + dims)
    size = 1 << 12
    n = 500
    coords = rng.integers(0, size, size=(n, dims))
    weights = 1.0 + rng.pareto(1.3, size=n)
    domain = ProductDomain([OrderedDomain(size) for _ in range(dims)])
    data = Dataset(coords=coords, weights=weights, domain=domain)
    queries = random_disjoint_queries(rng, dims, size, 60)
    return data, queries, rng


class TestPrimitives:
    def test_contains_many_matches_loop(self, setup):
        data, queries, _ = setup
        boxes = [box for query in queries for box in query.boxes]
        batched = Box.contains_many(data.coords, boxes)
        assert batched.shape == (len(boxes), data.n)
        for i, box in enumerate(boxes):
            np.testing.assert_array_equal(batched[i], box.contains(data.coords))

    def test_contains_many_accepts_stacked_bounds(self, setup):
        data, queries, _ = setup
        boxes = [box for query in queries for box in query.boxes]
        bounds = stack_boxes(boxes)
        np.testing.assert_array_equal(
            Box.contains_many(data.coords, bounds),
            Box.contains_many(data.coords, boxes),
        )

    def test_contains_many_dim_mismatch(self):
        with pytest.raises(ValueError):
            Box.contains_many(np.zeros((4, 2), dtype=np.int64),
                              [Box((0,), (1,))])

    def test_union_masks_match_query_contains(self, setup):
        data, queries, _ = setup
        masks = batch_union_masks(queries, data.coords)
        for i, query in enumerate(queries):
            np.testing.assert_array_equal(masks[i], query.contains(data.coords))

    def test_flatten_queries_counts(self, setup):
        _, queries, _ = setup
        bounds, counts = flatten_queries(queries)
        assert counts.sum() == bounds.shape[0]
        assert all(c == len(q.boxes) for c, q in zip(counts, queries))

    def test_batch_query_sums_matches_masked_sums(self, setup):
        data, queries, _ = setup
        got = batch_query_sums(queries, data.coords, data.weights)
        want = [
            float(data.weights[q.contains(data.coords)].sum())
            for q in queries
        ]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_batch_query_sums_tiny_chunks(self, setup):
        """Chunk boundaries must not change the answers."""
        data, queries, _ = setup
        full = batch_query_sums(queries, data.coords, data.weights)
        chunked = batch_query_sums(
            queries, data.coords, data.weights, chunk_elems=7
        )
        np.testing.assert_allclose(chunked, full, rtol=1e-10)

    def test_batch_query_sums_empty_inputs(self):
        assert batch_query_sums([], np.zeros((3, 1)), np.ones(3)).size == 0
        out = batch_query_sums(
            [MultiRangeQuery([Box((0,), (5,))])],
            np.empty((0, 1), dtype=np.int64),
            np.empty(0),
        )
        np.testing.assert_array_equal(out, [0.0])

    def test_non_int64_coords_match_loop(self):
        """Float and int32 coords route through dtype-safe kernels."""
        rng = np.random.default_rng(4)
        queries = [
            MultiRangeQuery([Box((5, 5), (40, 60))]),
            MultiRangeQuery([Box((0, 0), (99, 99))]),
        ]
        weights = rng.random(200)
        for dtype in (np.float64, np.int32):
            coords = rng.integers(0, 100, size=(200, 2)).astype(dtype)
            got = batch_query_sums(queries, coords, weights)
            want = [float(weights[q.contains(coords)].sum()) for q in queries]
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_dense_fallback_matches(self):
        """Batteries of near-full-domain boxes hit the dense kernel."""
        rng = np.random.default_rng(0)
        coords = rng.integers(0, 100, size=(300, 2))
        weights = rng.random(300)
        queries = [
            MultiRangeQuery([Box((0, 0), (99, 99))]) for _ in range(20)
        ]
        got = batch_query_sums(queries, coords, weights)
        np.testing.assert_allclose(got, np.full(20, weights.sum()),
                                   rtol=1e-10)


class TestSummaryQueryMany:
    def loop_reference(self, summary, queries):
        return [summary.query_multi(q) for q in queries]

    def test_sample_summary_matches_loop(self, setup):
        data, queries, rng = setup
        from repro.core.varopt import varopt_summary

        sample = varopt_summary(data, 80, rng)
        np.testing.assert_allclose(
            sample.query_many(queries),
            self.loop_reference(sample, queries),
            rtol=1e-10,
        )

    def test_exact_summary_matches_loop(self, setup):
        data, queries, _ = setup
        exact = ExactSummary(data)
        np.testing.assert_allclose(
            exact.query_many(queries),
            self.loop_reference(exact, queries),
            rtol=1e-10,
        )

    def test_qdigest_matches_loop(self, setup):
        data, queries, _ = setup
        for partial in ("half", "uniform", "lower"):
            digest = QDigestSummary(data, 50, partial=partial)
            np.testing.assert_allclose(
                digest.query_many(queries),
                self.loop_reference(digest, queries),
                rtol=1e-9,
            )

    def test_base_loop_still_used_by_default(self, setup):
        """Summaries without an override keep the reference loop."""
        data, queries, _ = setup

        class Constant(Summary):
            @property
            def size(self):
                return 1

            def query(self, box):
                return 1.0

        constant = Constant()
        assert constant.query_many(queries) == [
            float(len(q.boxes)) for q in queries
        ]

    def test_overlapping_boxes_match_union_semantics(self):
        """check_disjoint=False queries with overlap still match the loop."""
        sample = SampleSummary(coords=[[5, 5], [20, 20]],
                               weights=[10.0, 1.0], tau=0.0)
        overlap = MultiRangeQuery(
            [Box((0, 0), (9, 9)), Box((5, 5), (9, 9))],
            check_disjoint=False,
        )
        disjoint = MultiRangeQuery([Box((0, 0), (9, 9)),
                                    Box((10, 10), (30, 30))])
        got = sample.query_many([overlap, disjoint])
        assert got[0] == pytest.approx(sample.query_multi(overlap))  # 10, not 20
        assert got[1] == pytest.approx(sample.query_multi(disjoint))

    def test_empty_sample_summary(self, setup):
        _, queries, _ = setup
        empty = SampleSummary(
            coords=np.empty((0, queries[0].dims), dtype=np.int64),
            weights=np.empty(0),
            tau=0.0,
        )
        assert empty.query_many(queries) == [0.0] * len(queries)


# ----------------------------------------------------------------------
# Generated mixed batteries: boxes beside disjoint and overlapping unions
# ----------------------------------------------------------------------
GEN_SIZE = 64


@st.composite
def mixed_batteries(draw):
    """``(dims, coords, weights, battery)``: the battery mixes
    :class:`Box` with :class:`MultiRangeQuery` -- disjoint unions and
    ``check_disjoint=False`` ones that may overlap -- and may be empty,
    all boxes, or hold full-domain boxes."""
    dims = draw(st.integers(1, 2))
    top = GEN_SIZE - 1
    n = draw(st.integers(0, 60))
    coords = np.asarray(
        draw(st.lists(st.lists(st.integers(0, top), min_size=dims,
                               max_size=dims), min_size=n, max_size=n)),
        dtype=np.int64,
    ).reshape(n, dims)
    weights = np.asarray(draw(st.lists(
        st.floats(0.01, 1000.0), min_size=n, max_size=n)))
    side = st.tuples(st.integers(0, top), st.integers(0, top)).map(sorted)
    box = st.one_of(
        st.lists(side, min_size=dims, max_size=dims).map(
            lambda sides: Box(tuple(lo for lo, _ in sides),
                              tuple(hi for _, hi in sides))),
        st.just(Box((0,) * dims, (top,) * dims)),
    )

    def disjoint(boxes):
        kept = []
        for candidate in boxes:
            if not any(candidate.intersects(other) for other in kept):
                kept.append(candidate)
        return MultiRangeQuery(kept)

    query = st.one_of(
        box,
        st.lists(box, min_size=1, max_size=4).map(disjoint),
        st.lists(box, min_size=1, max_size=4).map(
            lambda boxes: MultiRangeQuery(boxes, check_disjoint=False)),
    )
    battery = draw(st.lists(query, max_size=12))
    return dims, coords, weights, battery


def _scalar_loop(summary, battery):
    return [
        summary.query(query) if isinstance(query, Box)
        else summary.query_multi(query)
        for query in battery
    ]


@settings(max_examples=80, deadline=None)
@given(case=mixed_batteries())
def test_generated_mixed_batteries_match_scalar_loop(case):
    dims, coords, weights, battery = case
    summaries = (
        SampleSummary(coords=coords, weights=weights, tau=0.0),
        ExactSummary.from_arrays(coords, weights),
    )
    scale = float(weights.sum()) if weights.size else 1.0
    for summary in summaries:
        got = summary.query_many(battery)
        assert len(got) == len(battery)
        np.testing.assert_allclose(
            got, _scalar_loop(summary, battery), rtol=1e-9,
            atol=1e-12 * scale,
        )
