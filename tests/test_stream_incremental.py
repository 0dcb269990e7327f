"""Incremental summary protocol: native streamers + buffered rebuilds."""

import numpy as np
import pytest

from repro.core.estimator import SampleSummary
from repro.core.types import Dataset
from repro.core.varopt import StreamVarOpt
from repro.stream import (
    BufferedRebuildSummary,
    derive_seed,
    incremental_summary,
)
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box
from repro.summaries.exact import ExactSummary
from repro.summaries.qdigest_stream import StreamingQDigest
from repro.summaries.sketch import CountSketch, DyadicSketchSummary


def skewed_dataset(n=1000, seed=5, dims=2):
    rng = np.random.default_rng(seed)
    size = 1 << 16
    coords = rng.integers(0, size, size=(n, dims))
    weights = 1.0 + rng.pareto(1.4, size=n)
    domain = ProductDomain([OrderedDomain(size) for _ in range(dims)])
    return Dataset(coords=coords, weights=weights, domain=domain)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, "obliv", 3) == derive_seed(7, "obliv", 3)
        seen = {
            derive_seed(root, method, pane)
            for root in (0, 1)
            for method in ("obliv", "exact")
            for pane in range(5)
        }
        assert len(seen) == 20  # no collisions across the path space

    def test_string_and_int_paths_stable(self):
        # CRC32 of the method name makes the derivation process-stable.
        assert derive_seed(1, "fold", "obliv", 2) == \
            derive_seed(1, "fold", "obliv", 2)
        assert derive_seed(1, "a") != derive_seed(1, "b")


class TestExactIncremental:
    def test_update_snapshot_and_insulation(self):
        store = ExactSummary.empty(dims=1)
        store.update([[1], [5], [9]], [1.0, 2.0, 3.0])
        v1 = store.version
        snap = store.snapshot()
        store.update([[2]], [10.0])
        assert store.version > v1
        box = Box((0,), (15,))
        # The snapshot is insulated from the later update.
        assert snap.query(box) == pytest.approx(6.0)
        assert store.query(box) == pytest.approx(16.0)
        assert store.size == 4 and snap.size == 3

    @pytest.mark.parametrize("bad", [2.9, np.nan, np.inf])
    def test_update_rejects_fractional_keys(self, bad):
        store = ExactSummary.empty(dims=1)
        store.update([1, 5], [1.0, 2.0])
        version = store.version
        with pytest.raises(ValueError, match="whole numbers"):
            store.update([bad, 5.5], [1.0, 2.0])
        assert store.version == version and store.size == 2
        store.update([2.0, 6.0], [1.0, 2.0])  # whole floats still cast
        assert store.query(Box((2,), (2,))) == pytest.approx(1.0)
        assert store.query(Box((6,), (6,))) == pytest.approx(2.0)

    def test_dims_and_length_validation(self):
        store = ExactSummary.empty(dims=2)
        with pytest.raises(ValueError, match="dimensionality"):
            store.update([[1], [2]], [1.0, 1.0])
        with pytest.raises(ValueError, match="matching length"):
            store.update([[1, 2]], [1.0, 2.0])


class TestStreamVarOptIncremental:
    def test_update_matches_feed(self):
        """``update`` and per-item ``feed`` build the same VarOpt sample.

        One batch and one-item updates consume the generator
        differently, so the two reservoirs realize different (equally
        valid) inclusion draws -- but every *sample-path-deterministic*
        property of VarOpt must agree exactly: the threshold (the
        offline tau of the prefix), the sample size, and exact
        retention of every above-threshold item.
        """
        data = skewed_dataset(n=400)
        a = StreamVarOpt(60, rng=123)
        b = StreamVarOpt(60, rng=123)
        a.update(data.coords, data.weights)
        for key, weight in data.iter_items():
            b.feed(key, weight)
        sa, sb = a.snapshot(), b.snapshot()
        # Identical up to float summation order (cumsum vs running sum).
        assert sa.tau == pytest.approx(sb.tau, rel=1e-12)
        assert sa.size == sb.size == 60
        assert a.version == b.version == data.n
        # Heavy items (weight >= tau) are included deterministically,
        # with their exact weights, by both paths.
        heavy = {
            key: weight
            for key, weight in data.iter_items()
            if weight >= sa.tau
        }
        for summary in (sa, sb):
            kept = dict(
                zip(map(tuple, summary.coords.tolist()),
                    summary.weights.tolist())
            )
            for key, weight in heavy.items():
                assert kept[key] == weight

    def test_update_bulk_path_unbiased(self):
        """Micro-batch updates keep subset-sum estimates unbiased."""
        data = skewed_dataset(n=1500, seed=11, dims=1)
        box = Box((0,), ((1 << 16) // 3,))
        truth = float(data.weights[box.contains(data.coords)].sum())
        estimates = []
        for seed in range(60):
            sampler = StreamVarOpt(80, rng=seed)
            # Batches after the first fold into a full reservoir.
            for start in range(0, data.n, 250):
                sampler.update(
                    data.coords[start:start + 250],
                    data.weights[start:start + 250],
                )
            estimates.append(sampler.snapshot().query(box))
        estimates = np.asarray(estimates)
        sem = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) <= 3.5 * sem

    def test_snapshot_is_sample_summary(self):
        sampler = StreamVarOpt(10, rng=0)
        sampler.update([[1, 2], [3, 4]], [1.0, 2.0])
        snap = sampler.snapshot()
        assert isinstance(snap, SampleSummary)
        assert snap.estimate_total() == pytest.approx(3.0)

    def test_length_mismatch_rejected_even_when_divisible(self):
        """4 flat keys with 2 weights must not fold into two 2-D keys."""
        sampler = StreamVarOpt(10, rng=0)
        with pytest.raises(ValueError, match="matching length"):
            sampler.update([1, 2, 3, 4], [1.0, 2.0])

    def test_flat_key_sequences_disambiguated(self):
        # n 1-D keys with n weights...
        a = StreamVarOpt(10, rng=0)
        a.update([1, 2, 3], [1.0, 1.0, 1.0])
        assert a.snapshot().dims == 1
        # ...vs one d-dimensional key tuple with one weight.
        b = StreamVarOpt(10, rng=0)
        b.update((4, 5), [2.0])
        assert b.snapshot().dims == 2

    def test_seed_int_and_generator_accepted(self):
        assert StreamVarOpt(5, rng=1)._rng is not None
        gen = np.random.default_rng(2)
        assert StreamVarOpt(5, rng=gen)._rng is gen


class TestStreamingQDigestIncremental:
    def test_snapshot_insulated(self):
        digest = StreamingQDigest(10, 20)
        digest.update(np.arange(100), np.ones(100))
        snap = digest.snapshot()
        digest.update([5], [100.0])
        assert snap.total == pytest.approx(100.0)
        assert digest.total == pytest.approx(200.0)
        assert digest.version == 101

    def test_update_rejects_2d_keys(self):
        digest = StreamingQDigest(10, 20)
        with pytest.raises(ValueError, match="1-D"):
            digest.update(np.zeros((3, 2), dtype=np.int64), np.ones(3))


class TestSketchIncremental:
    def test_streamed_equals_batch(self):
        data = skewed_dataset(n=500)
        streamed = DyadicSketchSummary.for_domain(data.domain, 512)
        for start in range(0, data.n, 50):
            streamed.update(data.coords[start:start + 50],
                            data.weights[start:start + 50])
        batch = DyadicSketchSummary(data, 512)
        box = Box((0, 0), ((1 << 15) - 1, (1 << 16) - 1))
        assert streamed.query(box) == pytest.approx(batch.query(box))

    def test_snapshot_insulated(self):
        data = skewed_dataset(n=200)
        sketch = DyadicSketchSummary.for_domain(data.domain, 256)
        sketch.update(data.coords, data.weights)
        snap = sketch.snapshot()
        box = Box((0, 0), ((1 << 16) - 1, (1 << 16) - 1))
        before = snap.query(box)
        sketch.update(data.coords, data.weights)
        assert snap.query(box) == pytest.approx(before)
        assert sketch.query(box) == pytest.approx(2 * before)

    def test_pane_merge_equals_whole(self):
        """Shared-hash pane sketches fold to the monolithic sketch."""
        data = skewed_dataset(n=600)
        whole = DyadicSketchSummary(data, 512, hash_seed=3)
        half = data.n // 2
        panes = [
            DyadicSketchSummary(data.subset(np.arange(half)), 512,
                                hash_seed=3),
            DyadicSketchSummary(data.subset(np.arange(half, data.n)), 512,
                                hash_seed=3),
        ]
        merged = panes[0].merge(panes[1])
        box = Box((0, 0), ((1 << 15) - 1, (1 << 15) - 1))
        assert merged.query(box) == pytest.approx(whole.query(box))

    def test_countsketch_merge_validation(self):
        a = CountSketch(16, 3, seed=1)
        b = CountSketch(16, 3, seed=1)
        c = CountSketch(16, 3, seed=2)
        keys = np.arange(10, dtype=np.uint64)
        a.update_many(keys, np.ones(10))
        b.update_many(keys, 2 * np.ones(10))
        merged = a.merge(b)
        est = merged.estimate_many(keys)
        np.testing.assert_allclose(est, a.estimate_many(keys) * 3)
        with pytest.raises(ValueError, match="hash"):
            a.merge(c)
        with pytest.raises(TypeError):
            a.merge("nope")


class TestBufferedRebuild:
    def one_d_dataset(self, n=4096, seed=0):
        return skewed_dataset(n=n, seed=seed, dims=1)

    def test_geometric_rebuild_schedule(self):
        data = self.one_d_dataset(n=4096)
        inc = BufferedRebuildSummary(
            "wavelet", data.domain, 64, seed=0, min_buffer=256,
        )
        for start in range(0, data.n, 64):
            inc.update(data.coords[start:start + 64],
                       data.weights[start:start + 64])
        # 64 batches but only ~log2(4096/256) + 1 = 5 automatic builds.
        assert 3 <= inc.rebuild_count <= 6
        assert inc.items_buffered == data.n

    def test_snapshot_fresh_by_default(self):
        data = self.one_d_dataset(n=600)
        inc = BufferedRebuildSummary(
            "wavelet", data.domain, 1 << 17, seed=0, min_buffer=10_000,
        )
        inc.update(data.coords, data.weights)
        snap = inc.snapshot()
        box = Box((100,), (50_000,))
        truth = float(
            data.weights[box.contains(data.coords)].sum()
        )
        # Full coefficient budget: the wavelet is lossless.
        assert snap.query(box) == pytest.approx(truth)

    def test_empty_snapshot_answers_zero(self):
        data = self.one_d_dataset(n=10)
        inc = BufferedRebuildSummary("wavelet", data.domain, 32)
        snap = inc.snapshot()
        assert snap.query(Box((0,), (100,))) == 0.0

    def test_reproducible_given_seed(self):
        data = self.one_d_dataset(n=800)

        def build():
            inc = BufferedRebuildSummary(
                "varopt", data.domain, 50, seed=9, min_buffer=200,
            )
            for start in range(0, data.n, 100):
                inc.update(data.coords[start:start + 100],
                           data.weights[start:start + 100])
            return inc.snapshot()

        a, b = build(), build()
        np.testing.assert_array_equal(a.coords, b.coords)
        assert a.tau == b.tau

    def test_growth_validation(self):
        data = self.one_d_dataset(n=10)
        with pytest.raises(ValueError, match="growth"):
            BufferedRebuildSummary("wavelet", data.domain, 32, growth=1.0)


class TestIncrementalFactory:
    def test_native_and_buffered_resolution(self):
        domain = ProductDomain([OrderedDomain(1 << 16)])
        assert isinstance(
            incremental_summary("obliv", domain, 50), StreamVarOpt
        )
        assert isinstance(
            incremental_summary("exact", domain, 50), ExactSummary
        )
        assert isinstance(
            incremental_summary("qdigest-stream", domain, 50),
            StreamingQDigest,
        )
        assert isinstance(
            incremental_summary("sketch", domain, 50), DyadicSketchSummary
        )
        assert isinstance(
            incremental_summary("wavelet", domain, 50),
            BufferedRebuildSummary,
        )

    def test_unknown_name_raises(self):
        domain = ProductDomain([OrderedDomain(16)])
        with pytest.raises(KeyError, match="unknown method"):
            incremental_summary("nope", domain, 10)
