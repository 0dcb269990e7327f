"""Background checkpoints: non-blocking, atomic w.r.t. ingestion.

``checkpoint_async=True`` moves the whole checkpoint (freeze + encode
+ append + truncate + sync) onto a background thread while holding the
engine's ingest lock, so a concurrent ``process()`` waits instead of
interleaving.  The suite wraps the store to (a) slow the state append
down enough to observe concurrency and (b) record an event trace that
proves no ingest ran *inside* the checkpoint's critical section.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.durable import LogCheckpointStore
from repro.stream.engine import AsyncCheckpoint, StreamEngine
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box


class _SlowStore:
    """Store proxy: traces calls, dwells inside the "state" append."""

    def __init__(self, inner, dwell: float = 0.15):
        self._inner = inner
        self._dwell = dwell
        self.events = []
        self._events_lock = threading.Lock()

    def record(self, name):
        with self._events_lock:
            self.events.append((name, threading.get_ident()))

    def append(self, stream_id, kind, payload, **kwargs):
        if kind == "state":
            self.record("state-begin")
            time.sleep(self._dwell)
            seq = self._inner.append(stream_id, kind, payload, **kwargs)
            self.record("state-end")
            return seq
        if kind == "batch":
            self.record("batch")
        return self._inner.append(stream_id, kind, payload, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _engine(tmp_path, store, **kwargs):
    domain = ProductDomain([OrderedDomain(1 << 10)])
    return StreamEngine(domain, "qdigest-stream", 150, store=store,
                        stream_id="s", **kwargs)


def _feed(engine, rng, batches=5, n=50):
    for _ in range(batches):
        engine.process((rng.integers(0, 1 << 10, n), rng.random(n)))


def test_async_checkpoint_returns_before_completion(tmp_path):
    store = _SlowStore(LogCheckpointStore(str(tmp_path / "ck")))
    engine = _engine(tmp_path, store, checkpoint_async=True)
    _feed(engine, np.random.default_rng(1))
    started = time.perf_counter()
    handle = engine.checkpoint()
    elapsed = time.perf_counter() - started
    assert isinstance(handle, AsyncCheckpoint)
    # The call returned while the background append is still dwelling.
    assert elapsed < store._dwell / 2
    seq = handle.result(timeout=10)
    assert isinstance(seq, int)
    assert handle.done


def test_inflight_checkpoint_never_interleaves_with_ingest(tmp_path):
    """The satellite's guarantee: while the async checkpoint holds the
    critical section, `process()` blocks -- the event trace shows no
    batch log between state-begin and state-end, over many rounds."""
    with LogCheckpointStore(str(tmp_path / "ck")) as inner:
        store = _SlowStore(inner, dwell=0.05)
        engine = _engine(tmp_path, store, checkpoint_async=True)
        rng = np.random.default_rng(2)
        _feed(engine, rng)
        for _round in range(5):
            handle = engine.checkpoint()
            # Ingest immediately from this thread: must serialize after.
            _feed(engine, rng, batches=2)
            handle.result(timeout=10)
    events = store.events
    open_ckpt = False
    for name, _tid in events:
        if name == "state-begin":
            assert not open_ckpt
            open_ckpt = True
        elif name == "state-end":
            open_ckpt = False
        else:  # batch
            assert not open_ckpt, "ingest interleaved with checkpoint"
    assert not open_ckpt
    assert sum(1 for name, _ in events if name == "state-begin") == 5


def test_async_checkpoint_restore_matches_sync(tmp_path):
    """The persisted state is the same cut a synchronous checkpoint
    would take: restored engines answer identically."""
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    sync_store = LogCheckpointStore(str(tmp_path / "sync"))
    async_store = LogCheckpointStore(str(tmp_path / "async"))
    sync_engine = _engine(tmp_path, sync_store)
    async_engine = _engine(tmp_path, async_store, checkpoint_async=True)
    _feed(sync_engine, rng_a)
    _feed(async_engine, rng_b)
    sync_engine.checkpoint()
    async_engine.checkpoint().result(timeout=10)
    boxes = [Box((i * 64,), (i * 64 + 63,)) for i in range(16)]
    restored_sync = StreamEngine.restore(sync_store, "s")
    restored_async = StreamEngine.restore(async_store, "s")
    assert (
        restored_sync.query_many_now(boxes)
        == restored_async.query_many_now(boxes)
    )


def test_consecutive_async_checkpoints_serialize(tmp_path):
    store = _SlowStore(LogCheckpointStore(str(tmp_path / "ck")),
                       dwell=0.05)
    engine = _engine(tmp_path, store, checkpoint_async=True)
    _feed(engine, np.random.default_rng(4))
    first = engine.checkpoint()
    second = engine.checkpoint()  # waits for the first internally
    assert first.done
    seq1 = first.result(timeout=10)
    seq2 = second.result(timeout=10)
    assert seq2 > seq1


def test_sync_engine_unchanged(tmp_path):
    engine = _engine(
        tmp_path, LogCheckpointStore(str(tmp_path / "ck"))
    )
    _feed(engine, np.random.default_rng(5))
    seq = engine.checkpoint()
    assert isinstance(seq, int)
    assert engine._ckpt_lock is None  # no lock on the sync hot path


def test_checkpoint_error_surfaces_in_result(tmp_path):
    class _FailingStore(_SlowStore):
        def append(self, stream_id, kind, payload, **kwargs):
            if kind == "state":
                raise OSError("disk full")
            return super().append(stream_id, kind, payload, **kwargs)

    with LogCheckpointStore(str(tmp_path / "ck")) as inner:
        store = _FailingStore(inner)
        engine = _engine(tmp_path, store, checkpoint_async=True)
        _feed(engine, np.random.default_rng(6))
        handle = engine.checkpoint()
        with pytest.raises(OSError, match="disk full"):
            handle.result(timeout=10)
        # The engine stays usable after a failed checkpoint.
        _feed(engine, np.random.default_rng(7), batches=1)
