"""Tests for the classic streaming 1-D q-digest.

Besides accuracy and input checks, the array build is pinned bit for
bit to the paper's item-at-a-time dict walk (``tests/oracles.py``):
generated streams over 1- to 62-bit domains, cadences from every item
to never, zero and repeated weights, batches cut across compress
points, snapshots, merges of digests with different ``k`` and wire
round trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DictQDigest, same_qdigest_state
from repro.distributed import codec
from repro.structures.ranges import Box, interval
from repro.summaries.qdigest_stream import StreamingQDigest


def build(keys, weights, bits=10, k=32, compress_every=64):
    qd = StreamingQDigest(bits=bits, k=k, compress_every=compress_every)
    qd.update(keys, weights)
    qd.compress()
    return qd


class TestValidation:
    def test_bad_bits(self):
        with pytest.raises(ValueError):
            StreamingQDigest(0, 10)
        with pytest.raises(ValueError):
            StreamingQDigest(63, 10)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            StreamingQDigest(8, 0)

    def test_key_out_of_domain(self):
        qd = StreamingQDigest(4, 8)
        with pytest.raises(ValueError):
            qd.insert(16)

    def test_negative_weight(self):
        qd = StreamingQDigest(4, 8)
        with pytest.raises(ValueError):
            qd.insert(3, -1.0)

    def test_zero_weight_noop(self):
        qd = StreamingQDigest(4, 8)
        qd.insert(3, 0.0)
        assert qd.total == 0.0 and qd.size == 0


class TestAccuracy:
    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1024, size=2000)
        weights = 1.0 + rng.pareto(1.2, size=2000)
        qd = build(keys, weights)
        assert qd.total == pytest.approx(weights.sum())
        assert qd.range_sum(0, 1023) == pytest.approx(weights.sum())

    def test_compression_bounds_size(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1024, size=5000)
        qd = build(keys, np.ones(5000), bits=10, k=16)
        # O(k log domain): generous constant.
        assert qd.size <= 3 * 16 * 11

    def test_range_error_within_guarantee(self):
        rng = np.random.default_rng(2)
        n = 4000
        keys = rng.integers(0, 1024, size=n)
        weights = np.ones(n)
        qd = build(keys, weights, bits=10, k=64)
        for lo, hi in [(0, 511), (100, 900), (37, 38), (512, 1023)]:
            truth = weights[(keys >= lo) & (keys <= hi)].sum()
            est = qd.range_sum(lo, hi)
            # Two endpoints, each off by at most the error bound.
            assert abs(est - truth) <= 2 * qd.error_bound()

    def test_exact_when_k_huge(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 256, size=300)
        weights = 1.0 + rng.random(300)
        qd = build(keys, weights, bits=8, k=10**9)
        truth = weights[(keys >= 30) & (keys <= 200)].sum()
        assert qd.range_sum(30, 200) == pytest.approx(truth)

    def test_box_interface(self):
        qd = build([1, 5, 9], [1.0, 2.0, 3.0], bits=4, k=10**9)
        assert qd.query(interval(0, 15)) == pytest.approx(6.0)

    def test_quantiles_monotone_and_bounded(self):
        rng = np.random.default_rng(4)
        keys = np.sort(rng.integers(0, 1024, size=3000))
        qd = build(keys, np.ones(3000), bits=10, k=64)
        qs = [qd.quantile(phi) for phi in (0.1, 0.25, 0.5, 0.75, 0.9)]
        assert qs == sorted(qs)
        # The median estimate should be near the true median rank.
        true_median = int(np.median(keys))
        assert abs(qs[2] - true_median) < 256

    def test_quantile_validation(self):
        qd = StreamingQDigest(4, 8)
        with pytest.raises(ValueError):
            qd.quantile(1.5)

    def test_range_sum_validation(self):
        qd = StreamingQDigest(4, 8)
        with pytest.raises(ValueError):
            qd.range_sum(5, 4)


def _filled(bits=4, k=3, compress_every=5):
    qd = StreamingQDigest(bits, k, compress_every=compress_every)
    qd.update([1, 2, 3, 3, 7, 15, 0, 9],
              [1.0, 2.0, 0.5, 4.0, 1.5, 3.0, 2.5, 1.0])
    return qd


class TestBatchRejection:
    """A bad batch raises before any change: nothing of it is inserted."""

    @pytest.mark.parametrize("keys,weights", [
        ([1, 2, 3], [1.0]),                      # lengths differ
        ([1], [1.0, 2.0]),
        ([1, 2, 3], [1.0, float("nan"), 1.0]),   # non-finite weights
        ([1, 2, 3], [1.0, 1.0, float("inf")]),
        ([1, 2, 3], [1.0, -1.0, 1.0]),           # negative weight
        ([1, 2, 99], [1.0, 1.0, 1.0]),           # key outside 4 bits
        ([1, 2, -1], [1.0, 1.0, 1.0]),
        ([1, 2.9], [1.0, 1.0]),                  # float keys
        (np.array([1.0, 2.0]), [1.0, 1.0]),
        (np.zeros((2, 2), dtype=np.int64), [1.0, 1.0]),  # 2-D keys
    ])
    def test_update_rejects_whole_batch(self, keys, weights):
        qd = _filled()
        before = qd.to_state()
        with pytest.raises(ValueError):
            qd.update(keys, weights)
        assert same_qdigest_state(qd.to_state(), before)

    @pytest.mark.parametrize("key,weight", [
        (16, 1.0), (-1, 1.0), (2.9, 1.0), (3, float("nan")),
        (3, float("inf")), (3, -1.0),
    ])
    def test_insert_rejects_before_change(self, key, weight):
        qd = _filled()
        before = qd.to_state()
        with pytest.raises(ValueError):
            qd.insert(key, weight)
        assert same_qdigest_state(qd.to_state(), before)

    def test_partial_batch_total_untouched(self):
        qd = StreamingQDigest(4, 8)
        with pytest.raises(ValueError):
            qd.update([1, 2, 99], [1.0, 1.0, 1.0])
        assert qd.total == 0.0 and qd.size == 0 and qd.version == 0

    def test_column_keys_and_empty_batches_accepted(self):
        qd = StreamingQDigest(4, 8)
        qd.update(np.array([[3], [5]]), [1.0, 2.0])
        qd.update([], [])
        qd.update(np.zeros(0, dtype=np.int64), np.zeros(0))
        assert qd.total == 3.0 and qd.version == 2


def _frame(state):
    """A wire frame carrying ``state`` as a streaming q-digest."""
    carrier = StreamingQDigest(int(state["bits"]), int(state["k"]))
    carrier.to_state = lambda: state
    return codec.to_bytes(carrier)


class TestStateValidation:
    """Tampered states are refused at decode; nothing half-built leaks."""

    def _state(self):
        return dict(_filled(bits=4, k=3, compress_every=50).to_state())

    @pytest.mark.parametrize("field,value", [
        ("nodes", np.array([0, 99999], dtype=np.int64)),
        ("nodes", np.array([1, 32], dtype=np.int64)),    # 2^(bits+1)
        ("nodes", np.array([-3, 17], dtype=np.int64)),
        ("nodes", np.array([17, 17], dtype=np.int64)),   # duplicate ids
        ("nodes", np.array([1.5, 17.0])),                # not integers
        ("counts", np.array([1.0, 2.0, 3.0])),           # length differs
        ("counts", np.array([1.0, -5.0])),
        ("counts", np.array([1.0, float("nan")])),
        ("counts", np.array([float("inf"), 1.0])),
        ("total", float("nan")),
        ("total", -1.0),
        ("since_compress", 50),                          # == compress_every
        ("since_compress", -1),
    ])
    def test_tampered_state_rejected(self, field, value):
        state = self._state()
        state["nodes"] = np.array([17, 18], dtype=np.int64)
        state["counts"] = np.array([1.0, 2.0])
        state[field] = value
        frame = _frame(state)
        with pytest.raises(ValueError):
            codec.from_bytes(frame)
        with pytest.raises(ValueError):
            StreamingQDigest.from_state(state)

    def test_unsorted_nodes_accepted_and_sorted(self):
        """Older frames list nodes in insertion order; they decode to
        the same digest as the sorted state."""
        state = self._state()
        order = np.random.default_rng(3).permutation(len(state["nodes"]))
        shuffled = dict(state, nodes=state["nodes"][order],
                        counts=state["counts"][order])
        back = codec.from_bytes(_frame(shuffled))
        assert same_qdigest_state(back.to_state(), state)

    def test_zero_copy_views_survive_updates(self):
        """A digest decoded onto read-only wire views keeps working:
        every change binds new arrays instead of writing the views."""
        original = _filled(bits=10, k=5, compress_every=7)
        frame = codec.to_bytes(original, compress=False)
        view = codec.from_bytes(frame, copy=False)
        assert not view.to_state()["nodes"].flags.writeable
        box = [Box((0,), (1023,))]
        assert view.query_many(box) == original.query_many(box)
        for digest in (original, view):
            digest.update(np.arange(40) * 25, np.linspace(1.0, 3.0, 40))
        assert same_qdigest_state(view.to_state(), original.to_state())
        assert view.query_many(box) == original.query_many(box)
        merged = view.merge(original)
        assert merged.total == 2 * original.total


# ----------------------------------------------------------------------
# Bitwise against the paper's dict walk (tests/oracles.py)
# ----------------------------------------------------------------------
def _check_same(digest, oracle):
    assert same_qdigest_state(digest.to_state(), oracle.state())


def _feed(digest, oracle, keys, weights, cuts):
    """Feed both in the same batches, comparing after each."""
    bounds = [0] + sorted(cuts) + [len(keys)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        digest.update(keys[lo:hi], weights[lo:hi])
        oracle.update(keys[lo:hi], weights[lo:hi])
        _check_same(digest, oracle)


def _stream(rng, bits, n):
    """Keys from a small pool holding both domain ends (duplicates);
    Pareto weights with zeros and repeated values mixed in."""
    top = (1 << bits) - 1
    pool = np.concatenate(
        ([0, top], rng.integers(0, top, int(rng.integers(1, 40)),
                                endpoint=True))
    )
    keys = rng.choice(pool, n)
    weights = 1.0 + rng.pareto(1.2, n)
    weights[rng.random(n) < 0.15] = 0.0
    weights[rng.random(n) < 0.1] = 2.5
    return keys, weights


@st.composite
def digest_cases(draw):
    bits = draw(st.integers(1, 62))
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys, weights = _stream(rng, bits, n)
    return (bits, keys, weights,
            draw(st.integers(1, 64)),             # k
            draw(st.integers(1, n + 5)),          # compress_every
            draw(st.lists(st.integers(0, n), max_size=4)),
            rng)


def _run_case(bits, keys, weights, k, every, cuts, rng):
    digest = StreamingQDigest(bits, k, compress_every=every)
    oracle = DictQDigest(bits, k, every)
    _feed(digest, oracle, keys, weights, cuts)
    _check_same(digest.snapshot(), oracle.snapshot())
    # A second digest with another k and cadence: merge both ways.
    k2, every2 = 3 * k + 1, int(rng.integers(1, 2 * every + 2))
    other = StreamingQDigest(bits, k2, compress_every=every2)
    other_oracle = DictQDigest(bits, k2, every2)
    more_keys, more_weights = _stream(rng, bits, int(rng.integers(0, 200)))
    _feed(other, other_oracle, more_keys, more_weights, [])
    _check_same(digest.merge(other), oracle.merge(other_oracle))
    _check_same(other.merge(digest), other_oracle.merge(oracle))
    # A decoded digest fires its next compression where the original
    # would have.
    restored = codec.from_bytes(codec.to_bytes(digest))
    _feed(restored, oracle, more_keys, more_weights, [len(more_keys) // 2])


class TestDictOracleIdentity:
    """Nodes, counts, total, since_compress and inserts bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(case=digest_cases())
    def test_generated(self, case):
        _run_case(*case)

    @pytest.mark.parametrize("bits", (1, 2, 20, 60, 61, 62))
    @pytest.mark.parametrize("every", (1, 37, 5000))
    def test_domain_extremes(self, bits, every):
        rng = np.random.default_rng([bits, every])
        # Compressing after every item costs a pass per depth per item.
        n = 150 if every == 1 else 1500
        keys, weights = _stream(rng, bits, n)
        _run_case(bits, keys, weights, 20, every, [100, n - 50, n - 49], rng)

    def test_serving_shape_slices(self):
        """Batches split across many compress points at the registry's
        cadence (compress_every 1024, k = 3000 // 20)."""
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 1 << 20, 6000)
        weights = 1.0 + rng.pareto(1.2, 6000)
        digest = StreamingQDigest(20, 150)
        oracle = DictQDigest(20, 150)
        _feed(digest, oracle, keys, weights, [1, 1023, 1025, 4000])
        _check_same(digest.snapshot(), oracle.snapshot())
