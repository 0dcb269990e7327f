"""Tests for offline and streaming VarOpt sampling."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import HeapVarOpt
from repro.core.ipps import ipps_probabilities, ipps_threshold
from repro.core.types import Dataset
from repro.core.varopt import (
    StreamVarOpt,
    stream_varopt_summary,
    varopt_sample,
    varopt_summary,
)
from repro.distributed import codec
from repro.structures.product import line_domain
from repro.structures.ranges import Box

#: The 8-item IPPS case every inclusion-frequency test shares.
IPPS_WEIGHTS = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0])
IPPS_TRIALS = 6000


def fed_in_batches(s, seed, coords, weights, batch):
    """A reservoir fed ``coords``/``weights`` in ``batch``-item updates."""
    sampler = StreamVarOpt(s, np.random.default_rng(seed))
    for lo in range(0, len(weights), batch):
        sampler.update(coords[lo:lo + batch], weights[lo:lo + batch])
    return sampler


def inclusion_frequencies(make_sampler):
    """Per-key inclusion frequency of the 8-item case over the trials."""
    counts = np.zeros_like(IPPS_WEIGHTS)
    for t in range(IPPS_TRIALS):
        for key, _weight in make_sampler(t).sample_items():
            counts[key[0]] += 1
    return counts / IPPS_TRIALS


@pytest.fixture(scope="module")
def heap_walk_freq():
    """The 8-item case's inclusion frequencies under the heap walk."""
    def heap_walk(t):
        oracle = HeapVarOpt(4, np.random.default_rng(t))
        for i, weight in enumerate(IPPS_WEIGHTS):
            oracle.feed((i,), float(weight))
        return oracle

    return inclusion_frequencies(heap_walk)


class TestOfflineVarOpt:
    def test_exact_sample_size(self, small_weights, rng):
        for s in (5, 20, 80):
            included, tau = varopt_sample(small_weights, s, rng)
            assert included.size == s

    def test_includes_all_heavy_keys(self, rng):
        w = np.array([100.0, 100.0, 1.0, 1.0, 1.0, 1.0])
        included, tau = varopt_sample(w, 3, rng)
        assert {0, 1} <= set(included.tolist())

    def test_small_s_on_tiny_input(self, rng):
        included, tau = varopt_sample(np.array([3.0, 1.0]), 1, rng)
        assert included.size == 1

    def test_s_covers_everything(self, rng):
        w = np.array([1.0, 2.0, 0.0, 3.0])
        included, tau = varopt_sample(w, 5, rng)
        assert set(included.tolist()) == {0, 1, 3}
        assert tau == 0.0

    def test_inclusion_probabilities_match_ipps(self, rng):
        w = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        s = 4
        p, _tau = ipps_probabilities(w, s)
        counts = np.zeros_like(w)
        trials = 6000
        for t in range(trials):
            included, _ = varopt_sample(w, s, np.random.default_rng(t))
            counts[included] += 1
        np.testing.assert_allclose(counts / trials, p, atol=0.03)

    def test_unbiased_subset_sums(self, rng):
        w = 1.0 + np.random.default_rng(5).pareto(1.3, size=60)
        s = 15
        subset = np.arange(0, 60, 3)
        truth = w[subset].sum()
        estimates = []
        for t in range(3000):
            r = np.random.default_rng(t)
            included, tau = varopt_sample(w, s, r)
            adj = np.maximum(w[included], tau)
            mask = np.isin(included, subset)
            estimates.append(adj[mask].sum())
        assert np.mean(estimates) == pytest.approx(truth, rel=0.05)

    def test_summary_roundtrip(self, line_dataset, rng):
        summary = varopt_summary(line_dataset, 40, rng)
        assert summary.size == 40
        assert summary.estimate_total() == pytest.approx(
            line_dataset.total_weight, rel=0.5
        )


class TestStreamVarOpt:
    def test_rejects_bad_size(self, rng):
        with pytest.raises(ValueError):
            StreamVarOpt(0, rng)

    def test_rejects_negative_weight(self, rng):
        sampler = StreamVarOpt(2, rng)
        with pytest.raises(ValueError):
            sampler.feed((1,), -1.0)

    def test_keeps_everything_below_capacity(self, rng):
        sampler = StreamVarOpt(10, rng)
        for i in range(7):
            sampler.feed((i,), float(i + 1))
        assert sampler.current_size == 7
        assert sampler.tau == 0.0

    def test_zero_weights_skipped(self, rng):
        sampler = StreamVarOpt(3, rng)
        sampler.feed((0,), 0.0)
        assert sampler.current_size == 0

    def test_exact_size_after_overflow(self, rng):
        sampler = StreamVarOpt(25, rng)
        weights = 1.0 + np.random.default_rng(9).pareto(1.2, size=500)
        for i, w in enumerate(weights):
            sampler.feed((i,), float(w))
        assert sampler.current_size == 25

    def test_final_tau_matches_offline(self, rng):
        weights = 1.0 + np.random.default_rng(11).pareto(1.2, size=400)
        sampler = StreamVarOpt(30, rng)
        for i, w in enumerate(weights):
            sampler.feed((i,), float(w))
        assert sampler.tau == pytest.approx(
            ipps_threshold(weights, 30), rel=1e-9
        )

    def test_heavy_keys_always_kept(self, rng):
        weights = np.ones(200)
        weights[17] = 1000.0
        weights[133] = 800.0
        sampler = StreamVarOpt(10, rng)
        for i, w in enumerate(weights):
            sampler.feed((i,), float(w))
        kept = {key[0] for key, _w in sampler.sample_items()}
        assert {17, 133} <= kept

    def test_inclusion_probabilities_match_ipps(self, heap_walk_freq):
        """One-item updates include each key with its IPPS probability,
        as often as the per-item heap walk does."""
        self.test_inclusion_probabilities_match_ipps_batched(
            1, heap_walk_freq
        )

    @pytest.mark.parametrize("batch", [3, 8])
    def test_inclusion_probabilities_match_ipps_batched(
        self, batch, heap_walk_freq
    ):
        """So do batches of any size."""
        s = 4
        p, _tau = ipps_probabilities(IPPS_WEIGHTS, s)
        keys = np.arange(IPPS_WEIGHTS.size).reshape(-1, 1)
        freq = inclusion_frequencies(
            lambda t: fed_in_batches(s, t, keys, IPPS_WEIGHTS, batch)
        )
        np.testing.assert_allclose(freq, p, atol=0.03)
        np.testing.assert_allclose(freq, heap_walk_freq, atol=0.03)

    def test_unbiased_total(self):
        weights = 1.0 + np.random.default_rng(21).pareto(1.1, size=150)
        keys = np.arange(weights.size).reshape(-1, 1)
        truth = weights.sum()
        estimates = []
        for t in range(2000):
            sampler = fed_in_batches(20, t, keys, weights, 50)
            estimates.append(sampler.summary().estimate_total())
        assert np.mean(estimates) == pytest.approx(truth, rel=0.05)

    @pytest.mark.parametrize("batch", [1, 7, 250, None])
    def test_box_sums_unbiased_at_any_batch_size(self, batch):
        """z-test over 60 seeds: box-sum estimates stay unbiased
        whether the stream arrives item by item or all at once."""
        rng = np.random.default_rng(13)
        n = 160
        keys = rng.integers(0, 1 << 16, size=(n, 1))
        weights = 1.0 + rng.pareto(1.3, size=n)
        box = Box((0,), ((1 << 16) // 3,))
        truth = float(weights[box.contains(keys)].sum())
        estimates = np.asarray([
            fed_in_batches(20, seed, keys, weights, batch or n)
            .summary().query(box)
            for seed in range(60)
        ])
        sem = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) <= 3.5 * sem

    def test_summary_shape(self, grid_dataset, rng):
        summary = stream_varopt_summary(grid_dataset, 50, rng)
        assert summary.size == 50
        assert summary.coords.shape == (50, 2)

    def test_adjusted_weights_valid(self, rng):
        weights = 1.0 + np.random.default_rng(31).pareto(1.0, size=300)
        sampler = StreamVarOpt(40, rng)
        for i, w in enumerate(weights):
            sampler.feed((i,), float(w))
        summary = sampler.summary()
        adj = summary.adjusted_weights
        # Every adjusted weight is >= its original weight and >= tau ...
        assert (adj >= summary.weights - 1e-9).all()
        # ... and the light region's adjusted weight is exactly tau.
        light = summary.weights < summary.tau
        np.testing.assert_allclose(adj[light], summary.tau)

    def test_empty_stream_summary(self, rng):
        sampler = StreamVarOpt(5, rng)
        summary = sampler.summary()
        assert summary.size == 0
        assert summary.estimate_total() == 0.0

    def test_order_of_feed_does_not_break_size(self, rng):
        weights = np.sort(1.0 + np.random.default_rng(3).pareto(1.2, 300))
        for order in (weights, weights[::-1]):
            sampler = StreamVarOpt(12, np.random.default_rng(0))
            for i, w in enumerate(order):
                sampler.feed((i,), float(w))
            assert sampler.current_size == 12

    def test_snapshot_shares_arrays_and_survives_updates(self):
        """Snapshots wrap the reservoir's read-only arrays; a later
        update binds new ones, so a held snapshot never changes."""
        sampler = StreamVarOpt(5, rng=0)
        sampler.update(np.arange(8).reshape(-1, 1), np.arange(1.0, 9.0))
        snap = sampler.snapshot()
        state = sampler.to_state()
        assert snap.coords is state["coords"]
        assert snap.weights is state["weights"]
        assert not snap.weights.flags.writeable
        before = (snap.coords.copy(), snap.weights.copy(), snap.tau)
        sampler.update(np.arange(8, 20).reshape(-1, 1), np.ones(12))
        np.testing.assert_array_equal(snap.coords, before[0])
        np.testing.assert_array_equal(snap.weights, before[1])
        assert snap.tau == before[2]


def _frame(state):
    """A wire frame carrying ``state`` as a VarOpt reservoir."""
    carrier = StreamVarOpt(1)
    carrier.to_state = lambda: state
    return codec.to_bytes(carrier)


class TestReservoirInputChecks:
    """A bad batch is refused whole, before any state changes."""

    def _filled(self):
        sampler = StreamVarOpt(5, rng=0)
        sampler.update([[1, 2], [3, 4], [5, 6]], [1.0, 2.0, 3.0])
        return sampler

    @pytest.mark.parametrize("keys,weights", [
        ([[1, 2, 3]], [1.0]),                      # wider keys
        ([7], [1.0]),                              # narrower key
        ([[1, 2], [3, 4]], [1.0, float("nan")]),
        ([[1, 2], [3, 4]], [float("inf"), 1.0]),
        ([[1, 2], [3, 4]], [-float("inf"), 1.0]),
        ([[1, 2], [3, 4]], [2.0, -1.0]),
        ([[1.5, 2]], [1.0]),                       # fractional key
    ])
    def test_bad_batch_rejected_state_unchanged(self, keys, weights):
        sampler = self._filled()
        before = codec.to_bytes(sampler)
        with pytest.raises(ValueError):
            sampler.update(keys, weights)
        assert codec.to_bytes(sampler) == before
        assert sampler.summary().coords.shape == (3, 2)

    def test_infinite_weight_never_enters_the_sample(self):
        sampler = StreamVarOpt(5, rng=0)
        with pytest.raises(ValueError):
            sampler.update([[1], [2], [3]], [1.0, float("inf"), 2.0])
        assert sampler.current_size == 0
        assert sampler.items_seen == 0

    def test_width_fixed_by_first_key(self):
        sampler = StreamVarOpt(5, rng=0)
        sampler.update([], [])  # no key: the width stays open
        sampler.update([[1, 2, 3]], [0.0])
        with pytest.raises(ValueError, match="dimensionality"):
            sampler.update([[1, 2]], [1.0])
        sampler.update([], [])  # still a no-op at a fixed width
        assert sampler.summary().coords.shape == (0, 3)
        assert sampler.version == 0


class TestReservoirState:
    """Tampered states are refused at decode; older frames restore."""

    def _state(self):
        sampler = StreamVarOpt(4, rng=3)
        sampler.update(np.arange(12).reshape(-1, 2), np.arange(1.0, 7.0))
        return dict(sampler.to_state())

    @pytest.mark.parametrize("field,value", [
        ("s", 0),
        ("coords", np.array([1, 2, 3, 4], dtype=np.int64)),   # not (k, d)
        ("coords", np.zeros((4, 0), dtype=np.int64)),
        ("coords", np.zeros((3, 2), dtype=np.int64)),         # k differs
        ("coords", np.zeros((4, 2))),                         # floats
        ("coords", None),
        ("weights", np.array([1.0, 2.0, float("nan"), 4.0])),
        ("weights", np.array([1.0, float("inf"), 3.0, 4.0])),
        ("weights", np.array([1.0, 0.0, 3.0, 4.0])),
        ("weights", np.array([1.0, -2.0, 3.0, 4.0])),
        ("tau", float("nan")),
        ("tau", float("inf")),
        ("tau", -1.0),
        ("items_seen", 3),
        ("s", 3),                                             # k > s
    ])
    def test_tampered_state_rejected(self, field, value):
        state = self._state()
        state[field] = value
        with pytest.raises(ValueError):
            codec.from_bytes(_frame(state))
        with pytest.raises(ValueError):
            StreamVarOpt.from_state(state)

    def test_unknown_bit_generator_rejected(self):
        state = self._state()
        state["rng"] = dict(state["rng"], bit_generator="Generator")
        with pytest.raises(ValueError, match="bit generator"):
            codec.from_bytes(_frame(state))

    def test_heap_frame_restores_exactly(self):
        """A frame of the heap-based reservoir (heavy/light lists and a
        tie counter) decodes to the same keys, weights, threshold,
        item count and generator state."""
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 1000, size=(300, 2))
        weights = 1.0 + rng.pareto(1.2, size=300)
        heap = HeapVarOpt(40, rng=9)
        heap.update(keys, weights)
        restored = codec.from_bytes(_frame(heap.to_state()))
        assert restored.tau == heap.tau
        assert restored.items_seen == heap.items_seen == 300
        assert restored.sample_items() == heap.sample_items()
        assert (restored.to_state()["rng"]
                == heap.to_state()["rng"])
        restored.update(keys[:50], weights[:50])
        assert restored.current_size == 40
        assert restored.tau == pytest.approx(
            ipps_threshold(np.concatenate((weights, weights[:50])), 40),
            rel=1e-9,
        )

    def test_hand_built_heap_frame(self):
        state = {
            "s": 3, "tau": 2.5, "counter": 7, "items_seen": 6,
            "heavy": [(9.0, 4, (10, 11), 9.0)],
            "light": [((1, 2), 1.0), ((3, 4), 2.0)],
            "rng": np.random.default_rng(1).bit_generator.state,
        }
        restored = codec.from_bytes(_frame(state))
        assert restored.sample_items() == [
            ((10, 11), 9.0), ((1, 2), 1.0), ((3, 4), 2.0)
        ]
        assert restored.tau == 2.5 and restored.items_seen == 6
        np.testing.assert_array_equal(
            restored.summary().adjusted_weights, [9.0, 2.5, 2.5]
        )
        empty = dict(state, heavy=[], light=[], items_seen=0, tau=0.0)
        assert codec.from_bytes(_frame(empty)).current_size == 0

    def test_zero_copy_views_survive_updates(self):
        """A reservoir decoded onto read-only wire views keeps working."""
        original = StreamVarOpt(30, rng=4)
        rng = np.random.default_rng(8)
        original.update(rng.integers(0, 99, (200, 1)), 1.0 + rng.random(200))
        frame = codec.to_bytes(original, compress=False)
        view = codec.from_bytes(frame, copy=False)
        assert not view.to_state()["weights"].flags.writeable
        more = rng.integers(0, 99, (50, 1)), 1.0 + rng.random(50)
        original.update(*more)
        view.update(*more)
        assert codec.to_bytes(view) == codec.to_bytes(original)


# ----------------------------------------------------------------------
# Generated streams, cut into batches anywhere
# ----------------------------------------------------------------------
weight_lists = st.one_of(
    st.lists(
        st.one_of(
            st.just(0.0), st.just(1.0), st.just(2.5),
            st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=60,
    ),
    st.tuples(st.integers(1, 60), st.integers(0, 2**31)).map(
        lambda a: list(1.0 + np.random.default_rng(a[1]).pareto(1.1, a[0]))
    ),
)


@given(
    weights=weight_lists,
    s=st.integers(1, 30),
    dims=st.integers(1, 3),
    cuts=st.lists(st.integers(0, 60), max_size=8),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=120, deadline=None)
def test_batched_stream_invariants(weights, s, dims, cuts, seed):
    """After every update: exact size, tau = offline tau_s of the
    prefix (never decreasing), every key at or above tau kept with its
    exact weight, and a codec round trip that continues identically."""
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    rng = np.random.default_rng(seed)
    # Column 0 is the item's index, so every key is distinct.
    keys = np.column_stack(
        [np.arange(n)] + [rng.integers(0, 50, n) for _ in range(dims - 1)]
    )
    bounds = sorted({0, n, *(min(c, n) for c in cuts)})
    if len(cuts) > 1:
        bounds.insert(1, 0)  # an empty batch up front
    sampler = StreamVarOpt(s, np.random.default_rng(seed))
    twin = codec.from_bytes(codec.to_bytes(sampler))
    tau_before = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sampler.update(keys[lo:hi], weights[lo:hi])
        twin.update(keys[lo:hi], weights[lo:hi])
        assert codec.to_bytes(twin) == codec.to_bytes(sampler)
        twin = codec.from_bytes(codec.to_bytes(sampler))
        prefix = weights[:hi]
        positive = int(np.count_nonzero(prefix > 0))
        assert sampler.current_size == min(s, positive)
        assert sampler.items_seen == positive
        assert sampler.tau >= tau_before
        tau_before = sampler.tau
        expect = ipps_threshold(prefix, s)
        assert sampler.tau == pytest.approx(expect, rel=1e-9, abs=0.0)
        kept = Counter(sampler.sample_items())
        for key, weight in zip(map(tuple, keys[:hi].tolist()), prefix):
            if weight > 0 and weight >= sampler.tau:
                assert kept[(key, float(weight))] == 1
