"""Crash recovery exactness: kill-and-restore equals never-crashed.

The durability contract (``src/repro/durable/DURABILITY.md``) is that
a stream engine killed at *any* batch boundary and restored from its
checkpoint store produces **bit-identical** snapshots -- byte-equal
codec frames, not just statistically equivalent answers -- to an
engine that never crashed.  That is pinned here over 30 seeds, both
store backends, every window kind, and a crash point that lands
mid-pane (between ingest and seal), with the randomized summaries
(varopt, obliv sample) included so RNG state restoration is covered.
"""

import numpy as np
import pytest

from repro import obs
from repro.distributed import codec
from repro.durable import LogCheckpointStore, SQLiteCheckpointStore
from repro.stream import MicroBatch, StreamEngine, sliding, tumbling
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box

DOMAIN_SIZE = 1 << 12
METHODS = ["exact", "varopt", "sketch", "qdigest-stream", "obliv"]
QUERIES = [
    Box((0,), (DOMAIN_SIZE // 2,)),
    Box((100,), (4000,)),
]
BACKENDS = ["log", "sqlite"]
SEEDS = list(range(30))


def domain():
    return ProductDomain([OrderedDomain(DOMAIN_SIZE)])


def make_store(backend, tmp_path, name="ck"):
    if backend == "log":
        return LogCheckpointStore(str(tmp_path / name))
    return SQLiteCheckpointStore(str(tmp_path / f"{name}.sqlite"))


def stamped_batches(seed, n_batches=24, n=30):
    """Micro-batches with within-batch timestamp vectors (pane splits)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_batches):
        coords = rng.integers(0, DOMAIN_SIZE, size=(n, 1))
        weights = 1.0 + rng.pareto(1.3, size=n)
        stamps = np.sort(rng.uniform(i * 1.8, i * 1.8 + 1.7, size=n))
        out.append(MicroBatch(coords, weights, None, stamps))
    return out


def frames(engine):
    return {m: codec.to_bytes(engine.snapshot(m)) for m in engine.methods}


def kill_and_restore(store, window, data, seed, *, kill_at,
                     checkpoint_at=None):
    """Feed ``kill_at`` batches, crash, restore, feed the rest."""
    engine = StreamEngine(
        domain(), METHODS, 64, window=window, seed=seed,
        store=store, stream_id="s",
    )
    for i, batch in enumerate(data[:kill_at]):
        engine.process(batch)
        if checkpoint_at is not None and i == checkpoint_at:
            engine.checkpoint()
    del engine  # the crash: no clean shutdown, the store has everything
    restored = StreamEngine.restore(store, "s")
    for batch in data[kill_at:]:
        restored.process(batch)
    return restored


class TestKillRestoreBitExact:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_landmark_mid_stream(self, backend, seed, tmp_path):
        data = stamped_batches(seed)
        ref = StreamEngine(domain(), METHODS, 64, seed=seed)
        for batch in data:
            ref.process(batch)
        store = make_store(backend, tmp_path)
        restored = kill_and_restore(
            store, None, data, seed,
            kill_at=11 + seed % 7, checkpoint_at=seed % 5,
        )
        assert frames(restored) == frames(ref)
        assert restored.items_seen == ref.items_seen
        assert restored.query_many_now(QUERIES) == ref.query_many_now(
            QUERIES
        )
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tumbling_crash_mid_pane(self, backend, seed, tmp_path):
        # Pane width 4, batches straddle pane boundaries (1.7-wide
        # stamp spans every 1.8), and the kill point varies over seeds
        # so crashes land both mid-pane and at seal boundaries.
        data = stamped_batches(seed)
        window = tumbling(4.0)
        ref = StreamEngine(domain(), METHODS, 64, window=window, seed=seed)
        for batch in data:
            ref.process(batch)
        store = make_store(backend, tmp_path)
        restored = kill_and_restore(
            store, window, data, seed, kill_at=9 + seed % 9,
        )
        assert frames(restored) == frames(ref)
        lw_ref, lw_res = ref.last_window(), restored.last_window()
        assert (lw_ref is None) == (lw_res is None)
        if lw_ref is not None:
            for m in METHODS:
                assert codec.to_bytes(lw_res[m]) == codec.to_bytes(
                    lw_ref[m]
                )
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sliding_with_checkpoint(self, backend, seed, tmp_path):
        data = stamped_batches(seed)
        window = sliding(8.0, 2.0)
        ref = StreamEngine(domain(), METHODS, 64, window=window, seed=seed)
        for batch in data:
            ref.process(batch)
        store = make_store(backend, tmp_path)
        restored = kill_and_restore(
            store, window, data, seed,
            kill_at=13 + seed % 5, checkpoint_at=6,
        )
        assert frames(restored) == frames(ref)
        assert restored.query_many_now(QUERIES) == ref.query_many_now(
            QUERIES
        )
        store.close()


class TestRecoveryMechanics:
    def test_restore_at_stream_end(self, tmp_path):
        data = stamped_batches(3)
        ref = StreamEngine(domain(), METHODS, 64, seed=3)
        for batch in data:
            ref.process(batch)
        store = make_store("log", tmp_path)
        restored = kill_and_restore(
            store, None, data, 3, kill_at=len(data)
        )
        assert frames(restored) == frames(ref)
        store.close()

    def test_checkpoint_compacts_the_log(self, tmp_path):
        store = make_store("log", tmp_path)
        engine = StreamEngine(
            domain(), ["exact"], 64, seed=1, store=store, stream_id="s"
        )
        data = stamped_batches(1, n_batches=12)
        for batch in data:
            engine.process(batch)
        before = len(store.records("s"))
        engine.checkpoint()
        after = len(store.records("s"))
        assert after < before  # batch records folded into the snapshot
        store.close()

    def test_restore_continues_persisting(self, tmp_path):
        # The restored engine keeps writing to the same store: a second
        # crash after the first recovery must also be survivable.
        data = stamped_batches(5)
        ref = StreamEngine(domain(), METHODS, 64, seed=5)
        for batch in data:
            ref.process(batch)
        store = make_store("sqlite", tmp_path)
        engine = StreamEngine(
            domain(), METHODS, 64, seed=5, store=store, stream_id="s"
        )
        for batch in data[:8]:
            engine.process(batch)
        del engine
        mid = StreamEngine.restore(store, "s")
        for batch in data[8:16]:
            mid.process(batch)
        mid.checkpoint()
        del mid  # second crash
        final = StreamEngine.restore(store, "s")
        for batch in data[16:]:
            final.process(batch)
        assert frames(final) == frames(ref)
        store.close()

    def test_duplicate_stream_id_rejected(self, tmp_path):
        store = make_store("log", tmp_path)
        StreamEngine(domain(), ["exact"], 64, store=store, stream_id="s")
        with pytest.raises(ValueError, match="restore"):
            StreamEngine(
                domain(), ["exact"], 64, store=store, stream_id="s"
            )
        store.close()

    def test_restore_unknown_stream_rejected(self, tmp_path):
        store = make_store("log", tmp_path)
        with pytest.raises(ValueError, match="no open record"):
            StreamEngine.restore(store, "nope")
        store.close()

    def test_seal_hook_not_refired_on_restore(self, tmp_path):
        sealed = []
        store = make_store("log", tmp_path)
        window = tumbling(4.0)
        engine = StreamEngine(
            domain(), ["exact"], 64, window=window, seed=2,
            store=store, stream_id="s",
            on_pane_sealed=lambda index, summaries: sealed.append(index),
        )
        data = stamped_batches(2, n_batches=16)
        for batch in data[:10]:
            engine.process(batch)
        fired_before = list(sealed)
        assert fired_before  # panes sealed pre-crash
        del engine
        restored = StreamEngine.restore(
            store, "s",
            on_pane_sealed=lambda index, summaries: sealed.append(index),
        )
        # restoring replays tail batches into already-sealed panes
        # without re-firing their hooks
        assert sealed == fired_before
        for batch in data[10:]:
            restored.process(batch)
        assert sealed == sorted(set(sealed))  # each pane sealed once
        store.close()


class TestBadWeightsRejected:
    """A batch with a negative or non-finite weight never reaches the log.

    Logged, such a batch would be absorbed by ``exact`` and then
    rejected by the reservoir, so every later restore would re-raise
    on replay.
    """

    @pytest.mark.parametrize("bad", [-2.0, np.nan, np.inf])
    def test_rejected_before_logging(self, bad, tmp_path):
        store = LogCheckpointStore(str(tmp_path / "ck"))
        engine = StreamEngine(
            domain(), ["exact", "obliv"], 64, seed=1,
            store=store, stream_id="s",
        )
        engine.process(MicroBatch(np.array([[5], [6]]), np.array([4.0, 6.0])))
        logged = [(r.seq, r.kind) for r in store.records("s")]
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine.process(
                (np.array([[1], [2], [3]]), np.array([1.0, bad, 3.0]))
            )
        assert [(r.seq, r.kind) for r in store.records("s")] == logged
        assert engine.items_seen == 2
        restored = StreamEngine.restore(store, "s")
        assert frames(restored) == frames(engine)
        store.close()


class TestOutOfDomainRejected:
    """A key outside the domain, or of the wrong dimension, is refused
    before the log.

    Logged, it would be absorbed by the reservoirs and then make every
    buffered rebuild raise "coordinates out of range": every later
    snapshot, and every restore's replay, would fail.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "keys", [[[100, -3]], [[5, 64]], [[1], [2]]],
        ids=["out-of-range", "one-past-edge", "wrong-dimension"],
    )
    def test_rejected_before_logging(self, backend, keys, tmp_path):
        square = ProductDomain([OrderedDomain(64), OrderedDomain(64)])
        store = make_store(backend, tmp_path)
        engine = StreamEngine(
            square, ["obliv", "aware", "qdigest"], 16, seed=1,
            store=store, stream_id="s",
        )
        rng = np.random.default_rng(0)
        engine.process(MicroBatch(rng.integers(0, 64, (40, 2)), np.ones(40)))
        logged = [(r.seq, r.kind) for r in store.records("s")]
        with pytest.raises(ValueError, match="out of range|must have shape"):
            engine.process(MicroBatch(np.array(keys), np.ones(len(keys))))
        assert [(r.seq, r.kind) for r in store.records("s")] == logged
        assert engine.items_seen == 40
        restored = StreamEngine.restore(store, "s")
        assert frames(restored) == frames(engine)
        store.close()


class TestBatchRecordKeyWidth:
    """Batch records carry ``uint32`` keys when every axis of the domain
    fits in 32 bits, ``int64`` keys otherwise; replay casts both back to
    the same int64 keys, and logs written with int64 keys still
    restore."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits,dtype", [(32, np.uint32), (33, np.int64)])
    def test_logged_dtype_follows_domain(self, backend, bits, dtype,
                                         tmp_path):
        wide = ProductDomain([OrderedDomain(1 << bits), OrderedDomain(64)])
        store = make_store(backend, tmp_path)
        engine = StreamEngine(wide, ["obliv", "exact"], 16, seed=2,
                              store=store, stream_id="s")
        keys = np.array([[0, 0], [(1 << bits) - 1, 63], [7, 5]])
        engine.process(MicroBatch(keys, np.ones(3)))
        (batch,) = [r for r in store.records("s") if r.kind == "batch"]
        assert batch.payload["coords"].dtype == dtype
        np.testing.assert_array_equal(batch.payload["coords"], keys)
        restored = StreamEngine.restore(store, "s")
        assert restored.snapshot("exact").coords.dtype == np.int64
        assert frames(restored) == frames(engine)
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_int64_batch_records_restore(self, backend, tmp_path):
        data = stamped_batches(4, n_batches=10)
        store = make_store(backend, tmp_path, "narrow")
        engine = kill_and_restore(store, sliding(6.0, 2.0), data, 4,
                                  kill_at=len(data))
        older = make_store(backend, tmp_path, "wide")
        for record in store.records("s"):
            payload = record.payload
            if record.kind == "batch":
                assert payload["coords"].dtype == np.uint32
                payload = dict(payload,
                               coords=payload["coords"].astype(np.int64))
            older.append("s", record.kind, payload, pane=record.pane)
        assert frames(StreamEngine.restore(older, "s")) == frames(engine)
        store.close()
        older.close()


class TestFractionalKeysRejected:
    """A fractional, NaN or infinite key is refused before the log.

    Cast to int64 it would land in another cell (2.9 in cell 2), and
    the engine's answers would silently move weight between ranges.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [2.9, 63.5, np.nan, np.inf])
    def test_rejected_before_logging(self, backend, bad, tmp_path):
        store = make_store(backend, tmp_path)
        engine = StreamEngine(
            domain(), ["exact", "obliv", "qdigest-stream"], 16, seed=1,
            store=store, stream_id="s",
        )
        engine.process((np.array([3, 7, 64]), np.array([1.0, 2.0, 3.0])))
        logged = [(r.seq, r.kind) for r in store.records("s")]
        with pytest.raises(ValueError, match="whole numbers"):
            engine.process(([2.0, bad], [1.0, 2.0]))
        assert [(r.seq, r.kind) for r in store.records("s")] == logged
        assert engine.items_seen == 3
        engine.process(([5.0, 9.0], [4.0, 5.0]))  # whole floats cast
        assert engine.query_now(Box((5,), (5,)))["exact"] == 4.0
        restored = StreamEngine.restore(store, "s")
        assert frames(restored) == frames(engine)
        store.close()


class _StateAppendFails:
    """Store proxy whose ``state`` appends raise (disk full at checkpoint)."""

    def __init__(self, inner):
        self._inner = inner

    def append(self, stream_id, kind, payload, **kwargs):
        if kind == "state":
            raise OSError("disk full")
        return self._inner.append(stream_id, kind, payload, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSyncCheckpoint:
    """``checkpoint()`` runs inline on the caller's thread."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_returns_state_record_seq(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        engine = StreamEngine(
            domain(), METHODS, 64, window=sliding(8.0, 4.0), seed=4,
            store=store, stream_id="s",
        )
        data = stamped_batches(4, n_batches=10)
        seqs = []
        for batches in (data[:5], data[5:]):
            for batch in batches:
                engine.process(batch)
            seqs.append(engine.checkpoint())
            states = [r for r in store.records("s") if r.kind == "state"]
            assert [r.seq for r in states] == seqs[-1:]
        assert all(isinstance(seq, int) for seq in seqs)
        assert seqs[1] > seqs[0]
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failed_append_raises_and_ingest_continues(
        self, backend, tmp_path
    ):
        inner = make_store(backend, tmp_path)
        engine = StreamEngine(
            domain(), METHODS, 64, window=sliding(8.0, 4.0), seed=6,
            store=_StateAppendFails(inner), stream_id="s",
        )
        data = stamped_batches(6, n_batches=12)
        for batch in data[:6]:
            engine.process(batch)
        logged = [(r.seq, r.kind) for r in inner.records("s")]
        with pytest.raises(OSError, match="disk full"):
            engine.checkpoint()
        assert [(r.seq, r.kind) for r in inner.records("s")] == logged
        for batch in data[6:]:
            engine.process(batch)
        restored = StreamEngine.restore(inner, "s")
        assert frames(restored) == frames(engine)
        assert restored.items_seen == engine.items_seen
        inner.close()


class TestLateItemsSatellite:
    def test_rejected_with_pane_and_timestamp(self):
        window = tumbling(4.0)
        engine = StreamEngine(domain(), ["exact"], 64, window=window)
        engine.process(MicroBatch(
            np.array([[1]]), np.array([1.0]), 9.0
        ))
        with pytest.raises(ValueError, match="non-decreasing") as err:
            engine.process(MicroBatch(
                np.array([[2]]), np.array([1.0]), 3.0
            ))
        message = str(err.value)
        assert "3" in message and "9" in message  # offending + clock
        assert "pane" in message
        assert "stream.late_items" in message

    def test_counted_in_obs(self):
        registry = obs.MetricsRegistry(enabled=True)
        window = tumbling(4.0)
        engine = StreamEngine(
            domain(), ["exact"], 64, window=window, registry=registry
        )
        engine.process(MicroBatch(np.array([[1]]), np.array([1.0]), 9.0))
        for bad_ts in (3.0, 1.0):
            with pytest.raises(ValueError):
                engine.process(MicroBatch(
                    np.array([[2]]), np.array([1.0]), bad_ts
                ))
        assert registry.counter("stream.late_items").value == 2

    def test_rejected_before_logging(self, tmp_path):
        # A rejected batch must not reach the write-ahead log, or the
        # restore replay would re-raise mid-recovery.
        store = LogCheckpointStore(str(tmp_path / "ck"))
        window = tumbling(4.0)
        engine = StreamEngine(
            domain(), ["exact"], 64, window=window,
            store=store, stream_id="s",
        )
        engine.process(MicroBatch(np.array([[1]]), np.array([2.0]), 9.0))
        with pytest.raises(ValueError):
            engine.process(MicroBatch(
                np.array([[2]]), np.array([1.0]), 3.0
            ))
        del engine
        restored = StreamEngine.restore(store, "s")  # must not raise
        assert restored.items_seen == 1
        store.close()
