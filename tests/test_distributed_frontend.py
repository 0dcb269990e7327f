"""Distributed streaming ingest + the query-serving frontend."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.types import Dataset
from repro.datagen.network import (
    NetworkConfig,
    network_domain,
    stream_network_flows,
)
from repro.datagen.queries import uniform_area_queries
from repro.distributed import (
    DistributedIngest,
    QueryFrontend,
    codec,
)
from repro.stream import MicroBatch, StreamEngine, tumbling
from repro.stream.incremental import derive_seed
from repro.structures.product import line_domain
from repro.structures.ranges import Box

CONFIG = NetworkConfig(n_pairs=6000, n_sources=1200, n_dests=900)


def flow_batches(batch_size=1000, seed=7):
    return stream_network_flows(CONFIG, seed=seed, batch_size=batch_size)


class TestDistributedIngest:
    def test_exact_folds_to_full_data(self):
        """Workers' exact slices fold back to the complete stream."""
        domain = network_domain(CONFIG)
        total = 0.0
        count = 0
        with DistributedIngest(
            domain, ["exact"], 100, num_workers=3, seed=1
        ) as fleet:
            for batch in flow_batches():
                fleet.process(batch)
                total += float(batch.weights.sum())
                count += batch.n
            assert fleet.items_dispatched == count
            folded = fleet.snapshot("exact")
            assert folded.size == count
            assert folded.total_weight() == pytest.approx(total)

    def test_sample_estimates_track_truth(self):
        domain = network_domain(CONFIG)
        with DistributedIngest(
            domain, ["obliv", "exact"], 500, num_workers=3, seed=2
        ) as fleet:
            fleet.dispatch(flow_batches())
            rng = np.random.default_rng(5)
            battery = uniform_area_queries(
                domain, 60, 3, max_fraction=0.1, rng=rng
            )
            answers = fleet.query_many_now(battery)
        exact = np.asarray(answers["exact"])
        obliv = np.asarray(answers["obliv"])
        scale = max(1.0, float(np.abs(exact).max()))
        assert float(np.abs(obliv - exact).mean()) / scale < 0.15

    def test_snapshot_cached_until_next_dispatch(self):
        domain = line_domain(256)
        with DistributedIngest(
            domain, ["exact"], 50, num_workers=2, seed=0
        ) as fleet:
            fleet.process(MicroBatch([[1], [2]], [1.0, 2.0]))
            first = fleet.snapshot("exact")
            assert fleet.snapshot("exact") is first  # same version
            fleet.process(MicroBatch([[3]], [4.0]))
            second = fleet.snapshot("exact")
            assert second is not first
            assert second.total_weight() == pytest.approx(7.0)

    def test_seed_reproducibility(self):
        domain = network_domain(CONFIG)
        taus = []
        for _ in range(2):
            with DistributedIngest(
                domain, ["obliv"], 200, num_workers=3, seed=11
            ) as fleet:
                fleet.dispatch(flow_batches())
                taus.append(fleet.snapshot("obliv").tau)
        assert taus[0] == taus[1]

    def test_landmark_slices_are_stream_engines(self):
        """Each landmark slice is the in-process landmark engine.

        Batches go round-robin to the slices and slice ``sid`` is
        seeded ``derive_seed(seed, "worker", sid)``: the slices'
        snapshots and checkpoint states match the engine's bit for
        bit.  Without a window the fleet does not forward timestamps,
        so out-of-order stamps cannot matter.
        """
        domain = network_domain(CONFIG)
        methods = ["obliv", "aware", "exact", "sketch"]
        batches = list(flow_batches(batch_size=500))
        with DistributedIngest(
            domain, methods, 150, num_workers=2, seed=13
        ) as fleet:
            for step, batch in enumerate(batches):
                fleet.process(MicroBatch(
                    batch.coords, batch.weights, float(-step)
                ))
            slices = fleet._collect()
            fleet.checkpoint()
            states = [sl.ckpt_state for sl in fleet._slices]
        for sid in range(2):
            local = StreamEngine(
                domain, methods, 150, seed=derive_seed(13, "worker", sid)
            )
            for batch in batches[sid::2]:
                local.process(MicroBatch(batch.coords, batch.weights))
            for method in methods:
                assert codec.to_bytes(slices[method][sid]) == \
                    codec.to_bytes(local.snapshot(method))
            assert states[sid] == {
                "kind": "engine", "payload": local._checkpoint_payload(),
            }

    def test_unknown_method_rejected(self):
        domain = line_domain(16)
        with DistributedIngest(
            domain, ["exact"], 10, num_workers=2
        ) as fleet:
            with pytest.raises(KeyError, match="not registered"):
                fleet.snapshot("obliv")

    def test_ingest_error_surfaces_at_snapshot(self):
        """A bad batch must not silently vanish a worker's slice."""
        from repro.distributed import DistributedError

        domain = line_domain(64)
        with DistributedIngest(
            domain, ["obliv"], 10, num_workers=2, seed=0,
            window=tumbling(4.0),
        ) as fleet:
            fleet.process(MicroBatch([[1]], [1.0], 9.0))
            fleet.process(MicroBatch([[4]], [1.0], 9.0))
            # A late batch passes the coordinator, which keeps no event
            # clock per slice, but worker 0's windowed engine (clock at
            # 9.0) rejects it.  (A negative or non-finite weight would
            # not do: MicroBatch rejects it before the batch is routed.)
            fleet.process(MicroBatch([[2]], [1.0], 3.0))
            fleet.process(MicroBatch([[3]], [1.0], 10.0))
            with pytest.raises(DistributedError, match="ingest failed"):
                fleet.snapshot("obliv")

    def test_snapshot_tolerates_worker_death_mid_collect(self):
        """A worker dying at snapshot time shrinks the wait, not hangs."""
        from repro.distributed import Coordinator, InProcessTransport
        from repro.distributed.codec import decode_message
        from repro.distributed.worker import WorkerRuntime

        def factory(worker_id):
            runtime = WorkerRuntime()

            def handle(frame):
                if (worker_id == 1
                        and decode_message(frame)["type"] == "snapshot"):
                    raise RuntimeError("simulated death at snapshot")
                return runtime.handle_frame(frame)[0]

            return handle

        transport = InProcessTransport(handler_factory=factory)
        coordinator = Coordinator(transport, num_workers=2, timeout=30.0)
        domain = line_domain(64)
        with DistributedIngest(
            domain, ["exact"], 10, seed=0, coordinator=coordinator
        ) as fleet:
            for step in range(4):  # round-robin: two batches per worker
                fleet.process(MicroBatch([[step]], [1.0]))
            folded = fleet.snapshot("exact")
            # Worker 1's slice is lost with its death; the survivor's
            # two items still fold and serve.
            assert folded.total_weight() == pytest.approx(2.0)
            assert not transport.alive(1)
        coordinator.close()

    def test_multiprocessing_transport(self):
        domain = network_domain(CONFIG)
        try:
            fleet = DistributedIngest(
                domain, ["exact"], 100, num_workers=2,
                transport="mp", seed=3,
            )
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process spawning unavailable: {exc}")
        with fleet:
            total = 0.0
            for batch in flow_batches(batch_size=1500):
                fleet.process(batch)
                total += float(batch.weights.sum())
            assert fleet.snapshot("exact").total_weight() == \
                pytest.approx(total)


class TestQueryFrontend:
    def _fleet(self):
        return DistributedIngest(
            network_domain(CONFIG), ["obliv", "exact"], 300,
            num_workers=2, seed=4,
        )

    def test_cache_hits_between_updates(self):
        with self._fleet() as fleet:
            fleet.dispatch(flow_batches())
            frontend = QueryFrontend(fleet, slots=4)
            battery = uniform_area_queries(
                network_domain(CONFIG), 30, 3,
                max_fraction=0.1, rng=np.random.default_rng(1),
            )
            first = frontend.query_many("exact", battery)
            again = frontend.query_many("exact", battery)
            assert first == again
            assert frontend.stats.hits == 1
            assert frontend.stats.misses == 1
            assert frontend.stats.batteries == 2
            assert frontend.stats.queries == 60

    def test_cache_invalidated_by_new_data(self):
        domain = line_domain(64)
        with DistributedIngest(
            domain, ["exact"], 20, num_workers=2, seed=0
        ) as fleet:
            frontend = QueryFrontend(fleet, slots=4)
            box = Box((0,), (63,))
            fleet.process(MicroBatch([[1]], [1.0]))
            assert frontend.query("exact", box) == pytest.approx(1.0)
            fleet.process(MicroBatch([[2]], [2.0]))
            # New version: the frontend must re-fold, not serve stale.
            assert frontend.query("exact", box) == pytest.approx(3.0)
            assert frontend.stats.misses == 2

    def test_lru_eviction(self):
        domain = line_domain(64)
        with DistributedIngest(
            domain, ["exact"], 20, num_workers=2, seed=0
        ) as fleet:
            frontend = QueryFrontend(fleet, slots=2)
            box = Box((0,), (63,))
            for step in range(4):
                fleet.process(MicroBatch([[step]], [1.0]))
                frontend.query("exact", box)
            assert frontend.stats.evictions == 2
            assert frontend.stats.misses == 4

    def test_serve_all_methods(self):
        with self._fleet() as fleet:
            fleet.dispatch(flow_batches(batch_size=2000))
            frontend = QueryFrontend(fleet)
            battery = uniform_area_queries(
                network_domain(CONFIG), 10, 3,
                max_fraction=0.1, rng=np.random.default_rng(2),
            )
            served = frontend.serve(battery)
            assert set(served) == {"obliv", "exact"}
            assert all(len(v) == 10 for v in served.values())

    def test_wraps_local_stream_engine(self):
        """The frontend serves any supplier -- including StreamEngine."""
        domain = line_domain(128)
        engine = StreamEngine(domain, "exact", 50, seed=0)
        frontend = QueryFrontend(engine)
        box = Box((0,), (127,))
        engine.process(MicroBatch([[3], [4]], [1.0, 2.0]))
        assert frontend.query("exact", box) == pytest.approx(3.0)
        engine.process(MicroBatch([[5]], [3.0]))
        assert frontend.query("exact", box) == pytest.approx(6.0)
        assert frontend.stats.misses == 2

    def test_rejects_versionless_supplier(self):
        class Bare:
            def snapshot(self, method):
                return None

        with pytest.raises(TypeError, match="version"):
            QueryFrontend(Bare()).snapshot("exact")


class TestPaneHandOff:
    def test_sealed_panes_ship_and_fold(self):
        """StreamEngine's seal hook feeds the distributed codec path."""
        from repro.distributed import codec
        from repro.engine.builder import fold_snapshots
        from repro.stream import tumbling

        shipped = []
        domain = line_domain(512)
        engine = StreamEngine(
            domain, "qdigest-stream", 64, window=tumbling(10.0), seed=1,
            on_pane_sealed=lambda index, snaps: shipped.append(
                (index, {m: codec.to_bytes(s) for m, s in snaps.items()})
            ),
        )
        rng = np.random.default_rng(0)
        for step in range(30):
            keys = rng.integers(0, 512, size=20).reshape(-1, 1)
            engine.process(
                MicroBatch(keys, np.ones(20), timestamp=float(step))
            )
        assert [index for index, _ in shipped] == [0, 1]
        decoded = [
            codec.from_bytes(frames["qdigest-stream"])
            for _, frames in shipped
        ]
        folded = fold_snapshots(decoded)
        # Two sealed panes of 10 batches x 20 unit-weight items each.
        assert folded.total == pytest.approx(400.0)



class TestConcurrentFleet:
    """Ingest and serving threads sharing one fleet."""

    def test_snapshot_racing_process_holds_the_batch(self):
        """A ``process()`` on another thread while a collect is in
        flight must not get its version attached to the collect's
        older data: the next ``snapshot()`` holds the batch."""
        with DistributedIngest(
            line_domain(256), ["exact"], 50, num_workers=2, seed=0
        ) as fleet:
            fleet.process(MicroBatch([[1], [2]], [1.0, 2.0]))
            coordinator = fleet._coordinator
            gather = coordinator.gather
            in_gather = threading.Event()
            release = threading.Event()

            def paused_gather(*args, **kwargs):
                in_gather.set()
                assert release.wait(10.0)
                return gather(*args, **kwargs)

            coordinator.gather = paused_gather
            collector = threading.Thread(
                target=fleet.snapshot, args=("exact",), daemon=True
            )
            collector.start()
            assert in_gather.wait(10.0)
            coordinator.gather = gather
            ingester = threading.Thread(
                target=fleet.process, args=(MicroBatch([[3]], [4.0]),),
                daemon=True,
            )
            ingester.start()
            ingester.join(0.5)  # finishes now only if nothing serializes it
            release.set()
            collector.join(10.0)
            ingester.join(10.0)
            assert not collector.is_alive() and not ingester.is_alive()
            assert fleet.snapshot("exact").total_weight() == pytest.approx(
                7.0
            )

    def test_concurrent_ingest_and_snapshots_lose_nothing(self):
        """Writers and readers hammer one fleet with a tiny switch
        interval: no version bump or request id may be lost, and the
        last snapshot holds every batch."""
        writers, batches = 4, 25
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DistributedIngest(
                line_domain(256), ["exact"], 50, num_workers=2, seed=0
            ) as fleet:
                def write(offset):
                    for i in range(batches):
                        fleet.process(
                            MicroBatch([[(offset + i) % 256]], [1.0])
                        )

                def read():
                    for _ in range(batches):
                        fleet.snapshot("exact")

                threads = [
                    threading.Thread(target=write, args=(w,), daemon=True)
                    for w in range(writers)
                ] + [threading.Thread(target=read, daemon=True)
                     for _ in range(2)]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 60.0
                for thread in threads:
                    thread.join(max(0.0, deadline - time.monotonic()))
                assert not any(thread.is_alive() for thread in threads)
                assert fleet.version == writers * batches
                assert fleet.snapshot("exact").total_weight() == (
                    pytest.approx(float(writers * batches))
                )
        finally:
            sys.setswitchinterval(switch)
