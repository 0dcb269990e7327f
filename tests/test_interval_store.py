"""Flat interval table: parity with the per-depth oracle, cache audit.

The contract under test is *bit*-identity, not approximate closeness:
the streaming q-digest's interval table scan must produce the same
IEEE doubles as the per-depth kernel it replaced, kept as the oracle
in ``tests/oracles.py``.  The suite sweeps 30 seeds across fresh,
merged, wire round-tripped and post-restore digests, pins the batch
q-digest's 1-D sorted-leaf path to the flat leaf-table oracle and its
dense paths to its scalar ``query``, and covers the mutation-counter
regression of the table cache.
"""

import numpy as np
import pytest

from oracles import (
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
# Mutation-counter regression (the table cache audit)
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
    assert merged._mutations > 0
    got = merged.query_many(box)[0]
    assert same_bits([got], _oracle(merged, box))
    scalar = merged.query(box[0])
    np.testing.assert_allclose(got, scalar, rtol=1e-9,
                               atol=1e-9 * merged.total)

    # from_state digests are marked mutated relative to fresh ones.
    wired = StreamingQDigest.from_state(merged.to_state())
    assert wired._mutations > 0
    assert wired.query_many(box)[0] == got

    # snapshot() compresses a copy; its cache keys off its own counts.
    snap = a.snapshot()
    assert same_bits(snap.query_many(box), _oracle(snap, box))


def test_direct_counts_mutation_requires_mutated():
    """The invariant the audit pins: rebinding ``_counts`` without
    ``_mutated()`` is what the bump sites prevent.  ``_mutated()``
    must invalidate the table memo."""
    rng = np.random.default_rng(37)
    digest = StreamingQDigest(8, k=8, compress_every=10_000)
    digest.update(rng.integers(0, 256, 200), np.ones(200))
    box = [Box((0,), (255,))]
    digest.query_many(box)
    assert "_flat_table" in digest.__dict__
    marker = digest.__dict__["_flat_table"][1]
    digest.query_many(box)
    assert digest.__dict__["_flat_table"][1] is marker
    digest._mutated()
    digest.query_many(box)
    assert digest.__dict__["_flat_table"][1] is not marker
