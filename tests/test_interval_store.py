"""Flat interval table: parity with the per-depth oracle, cache audit.

The contract under test is *bit*-identity, not approximate closeness:
the streaming q-digest's interval table scan must produce the same
IEEE doubles as the per-depth kernel it replaced, kept as the oracle
in ``tests/oracles.py``.  The suite sweeps 30 seeds across fresh,
merged, wire round-tripped and post-restore digests, pins the batch
q-digest's 1-D sorted-leaf path to the flat leaf-table oracle and its
dense paths to its scalar ``query``, and checks that every way a
digest changes answers from its current nodes, never a stale cached
table.
"""

import numpy as np
import pytest

from oracles import (
    DictQDigest,
    qdigest_1d_leaf_query_many,
    qdigest_stream_query_many,
    same_bits,
)
from repro.core.types import Dataset
from repro.distributed import codec
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box
from repro.summaries.qdigest import QDigestSummary
from repro.summaries.qdigest_stream import StreamingQDigest

SEEDS = range(30)


def _battery_1d(rng, size, n):
    lows = rng.integers(0, size, n)
    spans = rng.integers(0, max(1, size // 8), n)
    highs = np.minimum(lows + spans, size - 1)
    return [Box((int(lo),), (int(hi),)) for lo, hi in zip(lows, highs)]


def _stream_digest(rng, bits):
    digest = StreamingQDigest(
        bits,
        k=int(rng.integers(4, 64)),
        compress_every=int(rng.integers(8, 300)),
    )
    n = int(rng.integers(50, 4000))
    digest.update(
        rng.integers(0, 1 << bits, n), rng.random(n) + 0.01
    )
    return digest


def _oracle(digest, boxes):
    return qdigest_stream_query_many(digest.to_state(), boxes)


# ----------------------------------------------------------------------
# Streaming q-digest: interval table scan vs the per-depth oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_flat_matches_retained(seed):
    rng = np.random.default_rng(seed)
    bits = int(rng.integers(4, 18))
    digest = _stream_digest(rng, bits)
    boxes = _battery_1d(rng, 1 << bits, int(rng.integers(1, 500)))
    retained = _oracle(digest, boxes)
    assert same_bits(digest.query_many(boxes), retained)
    # A second battery over the cached table answers the same.
    assert same_bits(digest.query_many(boxes), retained)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_merged_and_restored_parity(seed):
    rng = np.random.default_rng(1000 + seed)
    bits = int(rng.integers(4, 14))
    a = _stream_digest(rng, bits)
    b = _stream_digest(rng, bits)
    merged = a.merge(b)
    wired = codec.from_bytes(codec.to_bytes(merged))
    boxes = _battery_1d(rng, 1 << bits, int(rng.integers(1, 300)))
    for digest in (merged, wired):
        assert same_bits(digest.query_many(boxes), _oracle(digest, boxes))
    # The wire round trip preserves the node tree, so the two digests
    # agree bit-for-bit as well.
    assert same_bits(merged.query_many(boxes), wired.query_many(boxes))


def test_stream_exhaustive_small_domain():
    """Every (lo, hi) pair of a 4-bit domain: oracle and scalar path."""
    rng = np.random.default_rng(99)
    digest = StreamingQDigest(4, k=3, compress_every=7)
    digest.update(rng.integers(0, 16, 500), rng.random(500) + 0.1)
    boxes = [
        Box((lo,), (hi,)) for lo in range(16) for hi in range(lo, 16)
    ]
    got = digest.query_many(boxes)
    assert same_bits(got, _oracle(digest, boxes))
    scalar = np.asarray([digest.query(box) for box in boxes])
    np.testing.assert_allclose(
        got, scalar, rtol=1e-9, atol=1e-9 * digest.total,
    )


# ----------------------------------------------------------------------
# Batch q-digest: 1-D leaf path vs the flat leaf-table oracle; dense
# paths equal the scalar query
# ----------------------------------------------------------------------
def _dataset_1d(rng, size, n):
    coords = rng.integers(0, size, size=(n, 1))
    weights = 1.0 + rng.pareto(1.1, n)
    domain = ProductDomain([OrderedDomain(size)])
    return Dataset(coords=coords, weights=weights, domain=domain)


@pytest.mark.parametrize("seed", SEEDS)
def test_qdigest_1d_flat_matches_retained(seed):
    rng = np.random.default_rng(3000 + seed)
    size = 1 << int(rng.integers(6, 14))
    data = _dataset_1d(rng, size, int(rng.integers(100, 3000)))
    mode = ("half", "uniform", "lower")[seed % 3]
    digest = QDigestSummary(data, int(rng.integers(8, 200)), partial=mode)
    assert digest._sorted_1d() is not None  # the sorted-leaf kernel
    boxes = _battery_1d(rng, size, int(rng.integers(1, 300)))
    flat = qdigest_1d_leaf_query_many(digest.to_state(), boxes)
    assert same_bits(digest.query_many(boxes), flat)


def test_qdigest_merged_overlapping_uses_dense_path():
    """Merged shards may overlap spatially, which sends a 1-D battery
    to the dense kernel: bit-identical to the scalar query."""
    rng = np.random.default_rng(11)
    size = 1 << 10
    a = QDigestSummary(_dataset_1d(rng, size, 800), 50)
    b = QDigestSummary(_dataset_1d(rng, size, 800), 50)
    merged = a.merge(b)
    assert merged._sorted_1d() is None
    boxes = _battery_1d(rng, size, 200)
    scalar = np.asarray([merged.query(box) for box in boxes])
    assert same_bits(merged.query_many(boxes), scalar)


def test_qdigest_2d_unaffected():
    rng = np.random.default_rng(13)
    size = 64
    coords = rng.integers(0, size, size=(500, 2))
    domain = ProductDomain([OrderedDomain(size), OrderedDomain(size)])
    data = Dataset(coords=coords, weights=np.ones(500), domain=domain)
    digest = QDigestSummary(data, 60)
    boxes = []
    for _ in range(100):
        lo = rng.integers(0, size, 2)
        hi = np.minimum(lo + rng.integers(0, 16, 2), size - 1)
        boxes.append(Box(tuple(int(v) for v in lo),
                         tuple(int(v) for v in hi)))
    scalar = np.asarray([digest.query(box) for box in boxes])
    assert same_bits(digest.query_many(boxes), scalar)


# ----------------------------------------------------------------------
# Engine restore
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_restored_engine_flat_parity(seed, tmp_path):
    """A crash-restored engine's digests answer bit-identically to the
    original engine and to the per-depth oracle."""
    from repro.durable import LogCheckpointStore
    from repro.stream.engine import StreamEngine

    rng = np.random.default_rng(6000 + seed)
    size = 1 << 10
    domain = ProductDomain([OrderedDomain(size)])
    with LogCheckpointStore(str(tmp_path / "ckpt")) as store:
        engine = StreamEngine(domain, "qdigest-stream", 150,
                              store=store, stream_id="s")
        for _ in range(8):
            n = int(rng.integers(20, 200))
            engine.process((rng.integers(0, size, n), rng.random(n)))
        engine.checkpoint()
        restored = StreamEngine.restore(store, "s")
        boxes = _battery_1d(rng, size, 150)
        orig = engine.query_many_now(boxes)["qdigest-stream"]
        back = restored.query_many_now(boxes)["qdigest-stream"]
        assert orig == back
        digest = restored.snapshot("qdigest-stream")
        assert same_bits(digest.query_many(boxes), _oracle(digest, boxes))


# ----------------------------------------------------------------------
# Table cache: every mutation path answers from its current nodes
# ----------------------------------------------------------------------
def test_cache_invalidation_on_every_mutation_path():
    """merge / from_state / snapshot / update all produce digests whose
    cached tables reflect the *current* counts -- querying first and
    mutating after must never serve stale answers."""
    rng = np.random.default_rng(31)
    bits = 8
    box = [Box((10,), (200,))]

    a = StreamingQDigest(bits, k=8, compress_every=10_000)
    a.update(rng.integers(0, 256, 300), np.ones(300))
    before = a.query_many(box)[0]  # populate the cache

    # update() after a cached query: answers move with the counts.
    a.update(rng.integers(0, 256, 300), np.ones(300))
    after_update = a.query_many(box)[0]
    assert after_update != before
    assert same_bits([after_update], _oracle(a, box))

    # merge() result is a fresh digest whose table matches its counts.
    b = StreamingQDigest(bits, k=8, compress_every=10_000)
    b.update(rng.integers(0, 256, 300), np.ones(300))
    b.query_many(box)
    merged = a.merge(b)
    got = merged.query_many(box)[0]
    assert same_bits([got], _oracle(merged, box))
    scalar = merged.query(box[0])
    np.testing.assert_allclose(got, scalar, rtol=1e-9,
                               atol=1e-9 * merged.total)

    # from_state digests answer from the decoded nodes.
    wired = StreamingQDigest.from_state(merged.to_state())
    assert wired.query_many(box)[0] == got

    # snapshot() compresses a copy; its cache keys off its own counts.
    snap = a.snapshot()
    assert same_bits(snap.query_many(box), _oracle(snap, box))


def test_every_mutation_path_answers_like_dict_oracle():
    """Each way a digest changes -- update, insert, compress, merge,
    snapshot, a wire round trip and a zero-copy decode -- is applied
    to a digest whose table is cached, and in step to the paper's dict
    walk (``DictQDigest``).  After each, the cached scan answers what
    the per-depth oracle answers over the dict's nodes, bitwise, and
    the scalar ``query`` agrees; an unchanged digest keeps its table.
    """
    rng = np.random.default_rng(37)
    bits = 8
    boxes = _battery_1d(rng, 1 << bits, 40) + [Box((0,), (255,))]

    def check(digest, oracle):
        digest.query_many(boxes)  # cache the table, then query again
        table = digest.interval_table()
        got = digest.query_many(boxes)
        assert digest.interval_table() is table
        assert same_bits(got, qdigest_stream_query_many(oracle.state(),
                                                        boxes))
        scalar = [digest.query(box) for box in boxes]
        np.testing.assert_allclose(got, scalar, rtol=1e-9,
                                   atol=1e-9 * max(digest.total, 1.0))

    digest = StreamingQDigest(bits, k=8, compress_every=97)
    oracle = DictQDigest(bits, 8, 97)
    check(digest, oracle)
    keys, weights = rng.integers(0, 256, 200), rng.random(200) + 0.1
    digest.update(keys, weights)
    oracle.update(keys, weights)
    check(digest, oracle)
    digest.insert(7, 3.5)
    oracle.insert(7, 3.5)
    check(digest, oracle)
    digest.compress()
    oracle.compress()
    check(digest, oracle)

    other = StreamingQDigest(bits, k=5, compress_every=31)
    other_oracle = DictQDigest(bits, 5, 31)
    keys, weights = rng.integers(0, 256, 150), rng.random(150) + 0.1
    other.update(keys, weights)
    other_oracle.update(keys, weights)
    check(other, other_oracle)
    check(digest.merge(other), oracle.merge(other_oracle))
    check(digest.snapshot(), oracle.snapshot())
    check(codec.from_bytes(codec.to_bytes(digest)), oracle)
    view = codec.from_bytes(codec.to_bytes(digest, compress=False),
                            copy=False)
    check(view, oracle)
    view.update(keys, weights)
    oracle.update(keys, weights)
    check(view, oracle)
