"""Async serving tier: dispatcher backpressure, service flushing, parity.

Covers the serving-tier contracts end to end:

* :class:`AsyncDispatcher` -- per-worker queue bounds, explicit
  :class:`Backpressure` shedding, FIFO reply matching;
* :class:`ServingFrontend` -- deadline- and size-triggered flushes,
  admission control (queue-full and per-tenant fair-share sheds),
  cross-supplier fan-out sums, per-query fault isolation, the
  lock-free read of resolved answers under contending submitters, and
  the closed service's typed refusal;
* async/sync parity -- concurrent fleet ``build_sharded`` calls
  through one coordinator stay bit-identical to the serial build, and
  their per-build wire accounting sums exactly to the transport's
  counters.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.types import Dataset
from repro.distributed import (
    AsyncDispatcher,
    Backpressure,
    Coordinator,
    InProcessTransport,
    OverloadError,
    ServiceClosedError,
    ServingFrontend,
)
from repro.distributed.codec import encode_message
from repro.engine.builder import build_sharded
from repro.engine.registry import build
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box

SIZE = 200
DOMAIN = 1 << 12


def dataset(seed=42, n=3000):
    rng = np.random.default_rng(seed)
    return Dataset.one_dimensional(
        rng.integers(0, DOMAIN, size=n),
        1.0 + rng.pareto(1.4, size=n),
        DOMAIN,
    )


def battery(step=DOMAIN // 8):
    return [Box((lo,), (lo + DOMAIN // 3,))
            for lo in range(0, DOMAIN // 2, step)]


class StaticSupplier:
    """Frozen summaries behind the snapshot-supplier protocol."""

    def __init__(self, summaries):
        self._summaries = summaries
        self.version = 0

    def snapshot(self, method):
        return self._summaries[method]

    @property
    def methods(self):
        return list(self._summaries)


def exact_supplier(data):
    return StaticSupplier(
        {"exact": build("exact", data, SIZE, np.random.default_rng(1))}
    )


# ----------------------------------------------------------------------
# AsyncDispatcher: bounded queues, backpressure, FIFO replies
# ----------------------------------------------------------------------

class TestDispatcherBackpressure:
    def _gated(self, gate):
        """Echo handler that blocks until ``gate`` is set."""
        def factory(worker_id):
            def handler(frame):
                gate.wait(5.0)
                return frame
            return handler
        return factory

    def test_max_pending_bound_sheds(self):
        gate = threading.Event()
        transport = InProcessTransport(handler_factory=self._gated(gate))
        transport.start(1)
        dispatcher = AsyncDispatcher(
            transport, max_inflight=1, max_pending=4
        )
        try:
            futures = [
                dispatcher.submit(
                    0, {"type": "ping", "i": i}, block=False
                )
                for i in range(4)
            ]
            # The 5th submission finds the queue at its bound.
            with pytest.raises(Backpressure):
                dispatcher.submit(0, {"type": "ping", "i": 4}, block=False)
            assert dispatcher.queue_depth(0) == 4
            assert dispatcher.stats.rejected == 1
            # block=True respects its timeout on a still-full queue.
            with pytest.raises(Backpressure):
                dispatcher.submit(
                    0, {"type": "ping", "i": 5}, timeout=0.05
                )
            gate.set()
            replies = [future.result(5.0) for future in futures]
            assert [reply["i"] for reply in replies] == [0, 1, 2, 3]
            assert dispatcher.stats.backpressure_waits >= 1
        finally:
            gate.set()
            dispatcher.stop()
            transport.stop()

    def test_fifo_reply_matching(self):
        transport = InProcessTransport(
            handler_factory=lambda worker_id: (lambda frame: frame)
        )
        transport.start(2)
        dispatcher = AsyncDispatcher(
            transport, max_inflight=2, max_pending=64
        )
        try:
            futures = [
                dispatcher.submit(i % 2, {"type": "ping", "i": i})
                for i in range(20)
            ]
            replies = [future.result(5.0) for future in futures]
            assert [reply["i"] for reply in replies] == list(range(20))
            assert dispatcher.stats.completed == 20
            assert dispatcher.stats.orphans == 0
        finally:
            dispatcher.stop()
            transport.stop()

    def test_queue_depth_never_exceeds_bound(self):
        release = threading.Event()

        def factory(worker_id):
            def handler(frame):
                release.wait(0.002)
                return frame
            return handler

        transport = InProcessTransport(handler_factory=factory)
        transport.start(1)
        dispatcher = AsyncDispatcher(
            transport, max_inflight=1, max_pending=8
        )
        try:
            futures = []
            for i in range(50):
                futures.append(
                    dispatcher.submit(0, {"type": "ping", "i": i})
                )
            for future in futures:
                future.result(10.0)
            assert dispatcher.stats.max_queue_depth <= 8
        finally:
            release.set()
            dispatcher.stop()
            transport.stop()


# ----------------------------------------------------------------------
# ServingFrontend: flush triggers, admission control, fan-out
# ----------------------------------------------------------------------

class TestServingFlush:
    def test_deadline_flush_resolves_without_filling_batch(self):
        with ServingFrontend(
            exact_supplier(dataset()), batch_size=10_000,
            max_delay_ms=5.0,
        ) as service:
            start = time.monotonic()
            value = service.submit("exact", battery()[0]).result(5.0)
            elapsed = time.monotonic() - start
            stats = service.stats()
        assert value > 0
        assert elapsed < 2.0  # deadline-bounded, far below any fill
        assert stats["flushes_deadline"] >= 1
        assert stats["flushes_size"] == 0

    def test_size_flush_fires_before_deadline(self):
        with ServingFrontend(
            exact_supplier(dataset()), batch_size=4,
            max_delay_ms=60_000.0,  # deadline effectively never
        ) as service:
            handles = [
                service.submit("exact", query)
                for query in battery()[:4]
            ]
            values = [handle.result(5.0) for handle in handles]
            stats = service.stats()
        assert all(value > 0 for value in values)
        assert stats["flushes_size"] >= 1
        assert stats["flushes_deadline"] == 0
        assert stats["batch_hist"].get(4) == 1

    def test_filling_batch_wakes_waiting_flusher(self):
        """Once the flusher sleeps on the first query's deadline, only
        the query that fills the batch may wake it."""
        with ServingFrontend(
            exact_supplier(dataset()), batch_size=4,
            max_delay_ms=60_000.0,  # deadline effectively never
        ) as service:
            first = service.submit("exact", battery()[0])
            time.sleep(0.05)  # the flusher now waits out the deadline
            handles = [first] + [
                service.submit("exact", query) for query in battery()[1:4]
            ]
            values = [handle.result(5.0) for handle in handles]
            stats = service.stats()
        assert all(value > 0 for value in values)
        assert stats["flushes_size"] == 1
        assert stats["flushes_deadline"] == 0

    def test_answers_match_direct_queries(self):
        data = dataset()
        supplier = exact_supplier(data)
        direct = supplier.snapshot("exact").query_many(battery())
        with ServingFrontend(
            supplier, batch_size=8, max_delay_ms=2.0
        ) as service:
            handles = [
                service.submit("exact", query, tenant=f"t{i % 3}")
                for i, query in enumerate(battery())
            ]
            served = [handle.result(5.0) for handle in handles]
        np.testing.assert_allclose(served, direct, rtol=1e-12)

    def test_fanout_sums_across_suppliers(self):
        rng = np.random.default_rng(7)
        coords = rng.integers(0, DOMAIN, size=4000)
        weights = 1.0 + rng.pareto(1.4, size=4000)
        halves = [
            Dataset.one_dimensional(
                coords[half::2], weights[half::2], DOMAIN
            )
            for half in (0, 1)
        ]
        whole = Dataset.one_dimensional(coords, weights, DOMAIN)
        direct = exact_supplier(whole).snapshot("exact").query_many(
            battery()
        )
        with ServingFrontend(
            [exact_supplier(half) for half in halves],
            batch_size=8, max_delay_ms=2.0,
        ) as service:
            handles = [
                service.submit("exact", query) for query in battery()
            ]
            served = [handle.result(5.0) for handle in handles]
        np.testing.assert_allclose(served, direct, rtol=1e-9)

    def test_fault_isolation_pins_bad_query(self):
        good = battery()[0]
        bad = Box((0, 0), (5, 5))  # 2-D query against a 1-D domain
        with ServingFrontend(
            exact_supplier(dataset()), batch_size=64, start=False
        ) as service:
            first = service.submit("exact", good)
            broken = service.submit("exact", bad)
            second = service.submit("exact", good)
            service.flush()
            assert first.result(1.0) == second.result(1.0) > 0
            with pytest.raises(Exception):
                broken.result(1.0)


class TestAdmissionControl:
    def test_queue_full_sheds(self):
        with ServingFrontend(
            exact_supplier(dataset()), batch_size=64,
            max_pending=10, tenant_share=1.0, start=False,
        ) as service:
            for i in range(10):
                service.submit("exact", battery()[0], tenant=f"t{i}")
            with pytest.raises(OverloadError):
                service.submit("exact", battery()[0], tenant="t-extra")
            stats = service.stats()
            assert stats["shed"] == 1
            assert stats["pending"] == 10
            # Flushing frees admission slots again.
            assert service.flush() == 10
            service.submit("exact", battery()[0], tenant="t-extra")

    def test_tenant_fair_share(self):
        with ServingFrontend(
            exact_supplier(dataset()), batch_size=64,
            max_pending=10, tenant_share=0.5, start=False,
        ) as service:
            admitted = shed = 0
            for _ in range(8):
                try:
                    service.submit("exact", battery()[0], tenant="flood")
                    admitted += 1
                except OverloadError:
                    shed += 1
            assert admitted == 5  # max(1, int(10 * 0.5))
            assert shed == 3
            # The flooding tenant's shed must not block a quiet one.
            service.submit("exact", battery()[0], tenant="quiet")
            stats = service.stats()
            assert stats["shed_tenant"] == 3
            assert stats["submitted"] == 6


class TestConcurrentSubmitters:
    def test_lock_free_answers_bitwise_under_contention(self):
        """Four submitters and the flusher, with a tiny switch interval:
        every handle resolves, reads the very bits of the summary's own
        ``query_many``, and a failing query raises its own error from
        the lock-free read path."""
        data = dataset()
        summaries = {
            method: build(method, data, SIZE, np.random.default_rng(3))
            for method in ("exact", "obliv", "sketch", "qdigest-stream")
        }
        methods = list(summaries)
        rng = np.random.default_rng(8)
        writers, per_writer = 4, 400
        lows = rng.integers(0, DOMAIN, (writers, per_writer))
        highs = np.minimum(lows + rng.integers(0, DOMAIN // 4, lows.shape),
                           DOMAIN - 1)
        work = [
            [(methods[i % len(methods)], Box((lo,), (hi,)))
             for i, (lo, hi) in enumerate(zip(row_lo.tolist(),
                                              row_hi.tolist()))]
            for row_lo, row_hi in zip(lows, highs)
        ]
        # One 2-D box per writer: its kernel group fails, and only this
        # query may carry the error.
        bad_at = [7 * w + 5 for w in range(writers)]
        for w, jobs in enumerate(work):
            jobs[bad_at[w]] = ("sketch", Box((w, 0), (w + 9, 9)))
        handles = [[] for _ in range(writers)]
        errors = []

        def submit_all(w):
            try:
                for i, (method, query) in enumerate(work[w]):
                    handles[w].append(
                        service.submit(method, query, tenant=f"t{w}")
                    )
                    # Read back while the flusher publishes: some of
                    # these wait, some are already resolved.
                    if i % 16 == 15 and i - 8 != bad_at[w]:
                        handles[w][i - 8].result(30.0)
            except Exception as error:  # pragma: no cover - reported
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServingFrontend(
                StaticSupplier(summaries), batch_size=32, max_delay_ms=0.5,
                max_pending=writers * per_writer, tenant_share=1.0,
            ) as service:
                threads = [threading.Thread(target=submit_all, args=(w,))
                           for w in range(writers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
            stats = service.stats()  # close() answered the rest
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        assert stats["submitted"] == writers * per_writer
        assert stats["pending"] == 0
        raised = []
        for w, row in enumerate(handles):
            assert len(row) == per_writer
            assert all(handle.done_at is not None for handle in row)
            with pytest.raises(ValueError, match="dimensionality") as first:
                row[bad_at[w]].result(0)
            with pytest.raises(ValueError) as again:
                row[bad_at[w]].result(0)
            assert again.value is first.value
            raised.append(first.value)
        assert len({id(error) for error in raised}) == writers
        for method, summary in summaries.items():
            good = [handle for w, row in enumerate(handles)
                    for i, handle in enumerate(row)
                    if handle.method == method and i != bad_at[w]]
            direct = summary.query_many([handle.query for handle in good])
            served = [handle.result(0) for handle in good]
            assert np.array_equal(np.asarray(served).view(np.int64),
                                  np.asarray(direct).view(np.int64)), method


class TestClosedService:
    @pytest.mark.parametrize("start", (True, False))
    def test_close_answers_queued_then_refuses(self, start):
        service = ServingFrontend(
            exact_supplier(dataset()), batch_size=64,
            max_delay_ms=60_000.0, start=start,  # only close() flushes
        )
        queued = [service.submit("exact", query) for query in battery()]
        service.close()
        assert all(handle.done() for handle in queued)
        assert all(handle.result(0) > 0 for handle in queued)
        with pytest.raises(ServiceClosedError):
            service.submit("exact", battery()[0])
        with pytest.raises(ServiceClosedError):
            service.start()
        assert not issubclass(ServiceClosedError, OverloadError)
        stats = service.stats()
        assert stats["pending"] == 0
        assert stats["submitted"] == len(queued)
        service.close()  # idempotent


# ----------------------------------------------------------------------
# Async path parity: concurrent builds, exact wire accounting
# ----------------------------------------------------------------------

class TestAsyncBuildParity:
    def test_concurrent_builds_bit_identical_and_wire_exact(self):
        datasets = [dataset(seed=21), dataset(seed=22)]
        locals_ = [
            build_sharded(
                "sketch", data, SIZE, np.random.default_rng(5 + i),
                num_shards=2,
            )
            for i, data in enumerate(datasets)
        ]
        results = [None, None]
        errors = []
        with Coordinator("inprocess", 2) as coord:
            before = coord.transport.stats.snapshot()

            def run(i):
                try:
                    results[i] = build_sharded(
                        "sketch", datasets[i], SIZE,
                        np.random.default_rng(5 + i),
                        coordinator=coord,
                    )
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            after = coord.transport.stats.snapshot()
        assert not errors
        # Bit-identical to the synchronous in-process engine, even
        # with both builds interleaving on one dispatcher.
        for local, dist in zip(locals_, results):
            assert dist.summary.query_many(battery()) == \
                local.summary.query_many(battery())
        # Per-build future-summed accounting adds up exactly to the
        # transport's counters: nothing double-counted, nothing lost.
        total_wire = sum(
            result.wire["bytes_sent"] + result.wire["bytes_received"]
            for result in results
        )
        assert total_wire == (
            after["bytes_sent"] - before["bytes_sent"]
            + after["bytes_received"] - before["bytes_received"]
        )
        total_frames = sum(result.wire["frames_sent"] for result in results)
        assert total_frames == (
            after["frames_sent"] - before["frames_sent"]
        )
        assert coord.retries == 0
        assert all(result.wire["shm_bytes"] == 0 for result in results)
