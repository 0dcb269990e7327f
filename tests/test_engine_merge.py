"""Merge semantics of the mergeable-summary protocol and the engine.

The statistical contract: folding per-shard VarOpt samples with
``merge`` must preserve Horvitz-Thompson unbiasedness (the second
sampling stage composes with the first by the tower rule; see
``SampleSummary.from_shards``), be commutative in distribution, and
treat an empty summary as the identity.
"""

import numpy as np
import pytest

from repro.core.estimator import SampleSummary
from repro.core.types import Dataset
from repro.core.varopt import varopt_summary
from repro.engine import (
    build_sharded,
    fold_snapshots,
    registry,
    shard_dataset,
)
from repro.engine.shard import STRATEGIES, shard_indices
from repro.structures.ranges import Box
from repro.summaries.exact import ExactSummary
from repro.summaries.qdigest import QDigestSummary
from repro.summaries.qdigest_stream import StreamingQDigest
from repro.summaries.wavelet import WaveletSummary


def skewed_dataset(n=2000, seed=5, dims=2):
    rng = np.random.default_rng(seed)
    size = 1 << 16
    coords = rng.integers(0, size, size=(n, dims))
    weights = 1.0 + rng.pareto(1.4, size=n)
    from repro.structures.product import ProductDomain
    from repro.structures.order import OrderedDomain

    domain = ProductDomain([OrderedDomain(size) for _ in range(dims)])
    return Dataset(coords=coords, weights=weights, domain=domain)


def shard_samples(data, k, s, rng):
    shards = shard_dataset(data, k)
    return [varopt_summary(shard, s, rng) for shard in shards]


class TestSampleMerge:
    def test_merged_total_unbiased_over_seeds(self):
        """Merging k=4 shard samples keeps estimate_total within 3 sigma."""
        data = skewed_dataset()
        truth = data.total_weight
        estimates = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            samples = shard_samples(data, 4, 120, rng)
            merged = SampleSummary.from_shards(samples, s=120, rng=rng)
            estimates.append(merged.estimate_total())
        estimates = np.asarray(estimates)
        sem = max(estimates.std(ddof=1) / np.sqrt(len(estimates)), 1e-9)
        assert abs(estimates.mean() - truth) <= 3.0 * sem + 1e-6 * truth

    def test_merged_box_query_unbiased_over_seeds(self):
        """Range-sum estimates from merged samples are unbiased too."""
        data = skewed_dataset()
        box = Box((0, 0), ((1 << 15) - 1, (1 << 16) - 1))
        truth = float(data.weights[box.contains(data.coords)].sum())
        estimates = []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            samples = shard_samples(data, 4, 120, rng)
            merged = SampleSummary.from_shards(samples, s=120, rng=rng)
            estimates.append(merged.query(box))
        estimates = np.asarray(estimates)
        sem = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) <= 3.5 * sem

    def test_merge_commutative_in_distribution(self):
        """A.merge(B) and B.merge(A) estimate the same totals."""
        data = skewed_dataset(seed=9)
        box = Box((0, 0), ((1 << 15) - 1, (1 << 16) - 1))
        ab, ba = [], []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a, b = shard_samples(data, 2, 150, rng)
            ab.append(a.merge(b, s=150, rng=np.random.default_rng(7 + seed))
                      .query(box))
            ba.append(b.merge(a, s=150, rng=np.random.default_rng(7 + seed))
                      .query(box))
        ab, ba = np.asarray(ab), np.asarray(ba)
        pooled_sem = np.sqrt(
            ab.var(ddof=1) / len(ab) + ba.var(ddof=1) / len(ba)
        )
        assert abs(ab.mean() - ba.mean()) <= 3.0 * pooled_sem + 1e-9

    def test_merge_with_empty_is_identity(self):
        data = skewed_dataset(n=500)
        rng = np.random.default_rng(3)
        sample = varopt_summary(data, 80, rng)
        empty = SampleSummary(
            coords=np.empty((0, 2), dtype=np.int64),
            weights=np.empty(0),
            tau=0.0,
        )
        for merged in (sample.merge(empty), empty.merge(sample)):
            np.testing.assert_array_equal(merged.coords, sample.coords)
            np.testing.assert_array_equal(merged.weights, sample.weights)
            assert merged.tau == sample.tau

    def test_merge_threshold_and_size(self):
        """tau* dominates both inputs; size lands at the target."""
        data = skewed_dataset()
        rng = np.random.default_rng(11)
        a, b = shard_samples(data, 2, 100, rng)
        merged = a.merge(b, s=100, rng=rng)
        assert merged.tau >= max(a.tau, b.tau) - 1e-12
        assert abs(merged.size - 100) <= 1  # +-1 from the leftover coin
        # Stored weights are the inputs' adjusted weights.
        assert merged.weights.min() >= min(a.tau, b.tau) - 1e-12

    def test_merge_with_empty_respects_target_size(self):
        """The 'at most s keys' contract holds even for empty shards."""
        data = skewed_dataset(n=500)
        sample = varopt_summary(data, 80, np.random.default_rng(3))
        empty = SampleSummary(
            coords=np.empty((0, 2), dtype=np.int64),
            weights=np.empty(0),
            tau=0.0,
        )
        merged = sample.merge(empty, s=20, rng=np.random.default_rng(4))
        assert abs(merged.size - 20) <= 1
        assert merged.tau >= sample.tau

    def test_from_shards_single_shard_respects_target(self):
        """One oversized shard is still downsampled to s."""
        data = skewed_dataset(n=500)
        sample = varopt_summary(data, 200, np.random.default_rng(5))
        folded = SampleSummary.from_shards(
            [sample], s=50, rng=np.random.default_rng(6)
        )
        assert folded.size <= 50
        # Downsampling keeps unbiasedness (VarOpt exact-total property).
        assert folded.estimate_total() == pytest.approx(
            sample.estimate_total(), rel=1e-9
        )

    def test_downsample_noop_below_target(self):
        data = skewed_dataset(n=200)
        sample = varopt_summary(data, 40, np.random.default_rng(1))
        copy = sample.downsample(100)
        np.testing.assert_array_equal(copy.coords, sample.coords)
        assert copy.tau == sample.tau

    def test_merge_dim_mismatch_raises(self):
        one = SampleSummary(coords=[[1]], weights=[1.0], tau=0.0)
        two = SampleSummary(coords=[[1, 2]], weights=[1.0], tau=0.0)
        with pytest.raises(ValueError):
            one.merge(two)
        with pytest.raises(TypeError):
            one.merge("not a summary")

    def test_len_and_repr(self):
        sample = SampleSummary(coords=[[1, 2], [3, 4]],
                               weights=[1.0, 2.0], tau=0.0)
        assert len(sample) == 2
        text = repr(sample)
        assert "size=2" in text and "dims=2" in text


class TestDedicatedMerges:
    def test_exact_merge_is_exact(self):
        data = skewed_dataset(n=400)
        halves = shard_dataset(data, 2)
        merged = ExactSummary(halves[0]).merge(ExactSummary(halves[1]))
        whole = ExactSummary(data)
        box = Box((0, 0), ((1 << 15) - 1, (1 << 16) - 1))
        assert merged.query(box) == pytest.approx(whole.query(box))
        assert merged.size == data.n

    def test_qdigest_merge_adds_range_sums(self):
        data = skewed_dataset(n=600)
        halves = shard_dataset(data, 2)
        a = QDigestSummary(halves[0], 40)
        b = QDigestSummary(halves[1], 40)
        merged = a.merge(b)
        box = Box((0, 0), ((1 << 16) - 1, (1 << 16) - 1))
        assert merged.query(box) == pytest.approx(a.query(box) + b.query(box))
        assert merged.size == a.size + b.size

    def test_streaming_qdigest_merge(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 1 << 10, size=500)
        a = StreamingQDigest(10, 20)
        b = StreamingQDigest(10, 20)
        for key in keys[:250]:
            a.insert(int(key))
        for key in keys[250:]:
            b.insert(int(key))
        merged = a.merge(b)
        assert merged.total == pytest.approx(a.total + b.total)
        est = merged.range_sum(0, (1 << 10) - 1)
        assert est == pytest.approx(500.0, abs=merged.error_bound())

    def test_wavelet_merge_matches_whole_when_lossless(self):
        """With the full coefficient budget, merge == transform of union."""
        data = skewed_dataset(n=60, dims=1)
        halves = shard_dataset(data, 2)
        budget = 1 << 17  # far above the number of nonzero coefficients
        a = WaveletSummary(halves[0], budget)
        b = WaveletSummary(halves[1], budget)
        merged = a.merge(b)
        whole = WaveletSummary(data, budget)
        box = Box((100,), (50_000,))
        assert merged.query(box) == pytest.approx(whole.query(box))

    def test_sketch_merge_requires_shared_hashes(self):
        """Shared-seed sketches merge; independent hashes refuse."""
        data = skewed_dataset(n=100)
        from repro.summaries.sketch import DyadicSketchSummary

        shared_a = DyadicSketchSummary(data, 64, hash_seed=7)
        shared_b = DyadicSketchSummary(data, 64, hash_seed=7)
        merged = shared_a.merge(shared_b)
        assert merged.size == shared_a.size
        independent = DyadicSketchSummary(
            data, 64, rng=np.random.default_rng(0)
        )
        assert shared_a.mergeable
        with pytest.raises(ValueError, match="hash"):
            shared_a.merge(independent)

    def test_base_summary_merge_unsupported(self):
        data = skewed_dataset(n=100)
        from repro.summaries.base import Summary

        class _Unmergeable(Summary):
            @property
            def size(self):
                return 0

            def query(self, box):
                return 0.0

        stub = _Unmergeable()
        assert not stub.mergeable
        with pytest.raises(NotImplementedError):
            stub.merge(stub)
        assert ExactSummary(data).mergeable


class TestShardingAndEngine:
    def test_shard_indices_partition_rows(self):
        data = skewed_dataset(n=777)
        for strategy in STRATEGIES:
            parts = shard_indices(data, 5, strategy=strategy)
            joined = np.sort(np.concatenate(parts))
            np.testing.assert_array_equal(joined, np.arange(data.n))

    def test_hashed_sharding_is_deterministic_and_balanced(self):
        data = skewed_dataset(n=4000)
        a = shard_indices(data, 8, strategy="hashed", seed=1)
        b = shard_indices(data, 8, strategy="hashed", seed=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        sizes = np.asarray([len(x) for x in a])
        assert sizes.min() > 0.5 * data.n / 8

    def test_build_sharded_serial_matches_interface(self):
        data = skewed_dataset()
        result = build_sharded(
            "obliv", data, 150, np.random.default_rng(0), num_shards=4,
        )
        assert result.num_shards == 4
        assert result.wire == {}  # built in process
        assert abs(result.summary.size - 150) <= 1
        assert result.summary.estimate_total() == pytest.approx(
            data.total_weight, rel=1e-6
        )

    def test_build_sharded_parallel_smoke(self):
        """The parallel path: shards built on a worker fleet."""
        from repro.distributed import Coordinator

        data = skewed_dataset(n=1200)
        with Coordinator("inprocess", 3) as coord:
            result = build_sharded(
                "varopt", data, 100, np.random.default_rng(1),
                coordinator=coord,
            )
        assert result.num_shards == 3
        assert result.wire["frames_sent"] == 3
        assert abs(result.summary.size - 100) <= 1
        assert result.summary.estimate_total() == pytest.approx(
            data.total_weight, rel=1e-6
        )

    def test_build_sharded_accepts_callable(self):
        data = skewed_dataset(n=800)
        result = build_sharded(
            lambda d, s, rng: varopt_summary(d, s, rng),
            data, 90, np.random.default_rng(2), num_shards=3,
        )
        assert abs(result.summary.size - 90) <= 1

    def test_build_sharded_rejects_unmergeable_method(self):
        """Non-mergeable methods fail fast, before any shard builds."""
        data = skewed_dataset(n=400)
        from repro.core.varopt import varopt_summary as _vs

        registry.register(
            "test-unmergeable", lambda d, s, rng: _vs(d, s, rng),
            overwrite=True, mergeable=False,
        )
        try:
            assert not registry.is_mergeable("test-unmergeable")
            with pytest.raises(ValueError, match="mergeable"):
                build_sharded("test-unmergeable", data, 64,
                              np.random.default_rng(0), num_shards=4)
            # A single shard needs no merge, so it is allowed.
            result = build_sharded("test-unmergeable", data, 64,
                                   np.random.default_rng(0), num_shards=1)
            assert result.summary.size > 0
        finally:
            registry._REGISTRY.pop("test-unmergeable", None)
            registry._MERGEABLE.pop("test-unmergeable", None)

    def test_build_sharded_sketch_merges_exactly(self):
        """Shared-seed shard sketches fold to the monolithic sketch."""
        data = skewed_dataset(n=600)
        assert registry.is_mergeable("sketch")
        result = build_sharded("sketch", data, 256,
                               np.random.default_rng(0), num_shards=4)
        mono = registry.build("sketch", data, 256, np.random.default_rng(1))
        box = Box((0, 0), ((1 << 15) - 1, (1 << 16) - 1))
        # Tables are linear, so the fold is exactly the monolithic build.
        assert result.summary.query(box) == pytest.approx(mono.query(box))

    def test_fold_snapshots_requires_input(self):
        with pytest.raises(ValueError):
            fold_snapshots([])

    def test_registry_roundtrip(self):
        assert "aware" in registry.available()
        assert "obliv" in registry.available()
        with pytest.raises(KeyError):
            registry.get("no-such-method")
        with pytest.raises(KeyError):
            registry.register("obliv", lambda d, s, rng: None)

        @registry.register("test-tmp-method", overwrite=True)
        def _builder(dataset, s, rng):
            return varopt_summary(dataset, s, rng)

        try:
            data = skewed_dataset(n=300)
            summary = registry.build(
                "test-tmp-method", data, 50, np.random.default_rng(0)
            )
            assert abs(summary.size - 50) <= 1
        finally:
            registry._REGISTRY.pop("test-tmp-method", None)
