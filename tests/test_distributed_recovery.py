"""Distributed crash recovery: worker loss without losing coverage.

:class:`~repro.durable.FaultyTransport` injects deterministic kills
(the n-th outbound frame to a worker is lost along with the worker),
and the recovery contract is pinned the same way the engine's is:
a fleet that loses a worker mid-stream under ``recovery="replay"``
answers **bit-identically** to a fleet that never did.
"""

import numpy as np
import pytest

from repro import obs
from repro.distributed.coordinator import (
    Coordinator,
    DistributedError,
    DistributedIngest,
)
from repro.distributed.transport import TransportError
from repro.durable import FaultyTransport, LogCheckpointStore
from repro.stream import MicroBatch, tumbling
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box

DOMAIN_SIZE = 1 << 12
METHODS = ["exact", "varopt"]
QUERIES = [
    Box((0,), (DOMAIN_SIZE // 2,)),
    Box((100,), (4000,)),
]


def domain():
    return ProductDomain([OrderedDomain(DOMAIN_SIZE)])


def batches(seed, n_batches=24, n=30):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_batches):
        coords = rng.integers(0, DOMAIN_SIZE, size=(n, 1))
        weights = 1.0 + rng.pareto(1.3, size=n)
        out.append(MicroBatch(coords, weights, float(i)))
    return out


def run_fleet(transport, seed, *, recovery="replay", window=None,
              num_workers=4, replay_log=64, checkpoint_interval=None,
              store=None, n_batches=24):
    ingest = DistributedIngest(
        domain(), METHODS, 48, transport=transport,
        num_workers=num_workers, seed=seed, recovery=recovery,
        window=window, replay_log=replay_log,
        checkpoint_interval=checkpoint_interval, store=store,
    )
    try:
        for batch in batches(seed, n_batches=n_batches):
            ingest.process(batch)
        return ingest.query_many_now(QUERIES)
    finally:
        ingest.close()


class TestBadWeightsRejected:
    @pytest.mark.parametrize("bad", [-2.0, np.nan, np.inf])
    def test_bad_batch_never_reaches_a_worker(self, bad):
        # The batch is refused before it is routed, logged for replay
        # or counted, so the fleet answers as if it never came.
        baseline = run_fleet("inprocess", 3, num_workers=2, n_batches=6)
        ingest = DistributedIngest(
            domain(), METHODS, 48, transport="inprocess",
            num_workers=2, seed=3, recovery="replay",
        )
        try:
            for i, batch in enumerate(batches(3, n_batches=6)):
                if i == 3:
                    with pytest.raises(
                        ValueError, match="finite and non-negative"
                    ):
                        ingest.process((
                            np.array([[1], [2], [3]]),
                            np.array([1.0, bad, 3.0]),
                            float(i),
                        ))
                ingest.process(batch)
            assert ingest.query_many_now(QUERIES) == baseline
        finally:
            ingest.close()


class TestOutOfDomainRejected:
    @pytest.mark.parametrize(
        "keys", [[[DOMAIN_SIZE]], [[-3]], [[1, 2]]],
        ids=["out-of-range", "negative", "wrong-dimension"],
    )
    def test_bad_batch_never_reaches_a_worker(self, keys):
        # Refused before routing: no worker absorbs it, so no later
        # snapshot fails and the fleet answers as if it never came.
        baseline = run_fleet("inprocess", 3, num_workers=2, n_batches=6)
        ingest = DistributedIngest(
            domain(), METHODS, 48, transport="inprocess",
            num_workers=2, seed=3, recovery="replay",
        )
        try:
            for i, batch in enumerate(batches(3, n_batches=6)):
                if i == 3:
                    with pytest.raises(
                        ValueError, match="out of range|must have shape"
                    ):
                        ingest.process(
                            (np.array(keys), np.ones(len(keys)), float(i))
                        )
                ingest.process(batch)
            assert ingest.query_many_now(QUERIES) == baseline
        finally:
            ingest.close()


class TestFractionalKeysRejected:
    @pytest.mark.parametrize("bad", [2.9, np.nan, np.inf])
    def test_bad_batch_never_reaches_a_worker(self, bad):
        # 2.9 used to be truncated to key 2 and routed to a worker.
        baseline = run_fleet("inprocess", 3, num_workers=2, n_batches=6)
        ingest = DistributedIngest(
            domain(), METHODS, 48, transport="inprocess",
            num_workers=2, seed=3, recovery="replay",
        )
        try:
            for i, batch in enumerate(batches(3, n_batches=6)):
                if i == 3:
                    with pytest.raises(ValueError, match="whole numbers"):
                        ingest.process(
                            (np.array([[1.0], [bad]]), np.ones(2), float(i))
                        )
                ingest.process(batch)
            assert ingest.query_many_now(QUERIES) == baseline
        finally:
            ingest.close()


class TestReplayRecovery:
    @pytest.mark.parametrize("seed", range(30))
    def test_kill_mid_stream_bit_identical_inprocess(self, seed):
        baseline = run_fleet("inprocess", seed)
        victim = seed % 4
        # frame 1 is open_stream; the kill lands on an ingest frame
        kill_at = 2 + seed % 6
        faulty = FaultyTransport(
            "inprocess", kill_after={victim: kill_at}
        )
        recovered = run_fleet(faulty, seed)
        assert recovered == baseline
        assert faulty.killed == {victim}

    @pytest.mark.parametrize("seed", range(4))
    def test_kill_mid_stream_bit_identical_mp(self, seed):
        baseline = run_fleet("mp", seed)
        faulty = FaultyTransport("mp", kill_after={seed % 3: 3})
        recovered = run_fleet(faulty, seed, num_workers=4)
        assert recovered == baseline

    def test_windowed_streams_recover(self):
        window = tumbling(8.0)
        baseline = run_fleet("inprocess", 7, window=window)
        faulty = FaultyTransport("inprocess", kill_after={1: 4})
        recovered = run_fleet(faulty, 7, window=window)
        assert recovered == baseline

    def test_checkpoint_interval_bounds_the_replay_log(self):
        # With periodic checkpoints a tiny replay log suffices: only
        # the tail since the last checkpoint is ever replayed.
        baseline = run_fleet("inprocess", 9)
        faulty = FaultyTransport("inprocess", kill_after={2: 6})
        recovered = run_fleet(
            faulty, 9, replay_log=3, checkpoint_interval=8
        )
        assert recovered == baseline

    def test_replay_log_gap_is_loud(self):
        # No checkpoints + a replay log shorter than the slice's
        # backlog: recovery must refuse rather than silently lose data.
        faulty = FaultyTransport("inprocess", kill_after={0: 22})
        with pytest.raises(DistributedError, match="replay"):
            run_fleet(
                faulty, 11, num_workers=1, replay_log=2, n_batches=40
            )

    def test_death_mid_collect_recovers(self):
        # 24 batches over 4 workers = 6 ingest frames each after the
        # open; frame 8 is the snapshot request itself.
        baseline = run_fleet("inprocess", 13)
        faulty = FaultyTransport("inprocess", kill_after={0: 8})
        recovered = run_fleet(faulty, 13)
        assert recovered == baseline

    def test_multiple_deaths(self):
        baseline = run_fleet("inprocess", 17)
        faulty = FaultyTransport(
            "inprocess", kill_after={0: 3, 2: 5}
        )
        recovered = run_fleet(faulty, 17)
        assert recovered == baseline
        assert faulty.killed == {0, 2}

    def test_recovery_metrics_counted(self):
        registry = obs.MetricsRegistry(enabled=True)
        coordinator = Coordinator(
            FaultyTransport("inprocess", kill_after={1: 4}),
            4, registry=registry,
        )
        ingest = DistributedIngest(
            domain(), METHODS, 48, seed=3, recovery="replay",
            replay_log=64, coordinator=coordinator,
        )
        try:
            for batch in batches(3):
                ingest.process(batch)
            ingest.query_many_now(QUERIES)
        finally:
            ingest.close()
            coordinator.close()
        assert registry.counter(
            "coordinator.slices_recovered"
        ).value >= 1
        assert registry.counter(
            "coordinator.batches_replayed"
        ).value >= 1

    def test_persists_checkpoints_to_store(self, tmp_path):
        store = LogCheckpointStore(str(tmp_path / "ck"))
        baseline = run_fleet("inprocess", 5)
        recovered = run_fleet(
            FaultyTransport("inprocess", kill_after={0: 7}), 5,
            checkpoint_interval=6, store=store,
        )
        assert recovered == baseline
        keys = store.streams()
        assert keys and all(k.startswith("live/") for k in keys)
        for key in keys:
            assert store.resume_state(key)["checkpoints"] >= 1
        store.close()


class TestNoneModeUnchanged:
    def test_lost_slice_stays_lost(self):
        # The historical lossy semantics: recovery="none" drops the
        # dead worker's slice and answers from the survivors.
        baseline = run_fleet("inprocess", 27, recovery="none")
        faulty = FaultyTransport("inprocess", kill_after={0: 8})
        lossy = run_fleet(faulty, 27, recovery="none")
        assert lossy != baseline
        assert lossy["exact"][0] < baseline["exact"][0]

    def test_unknown_recovery_mode_raises(self):
        with pytest.raises(ValueError, match="unknown recovery mode"):
            DistributedIngest(
                domain(), METHODS, 48, transport="inprocess",
                num_workers=2, recovery="replicate",
            )


class TestBackoffSatellite:
    def test_retry_delay_exponential_with_cap(self):
        coordinator = Coordinator(
            "inprocess", 1, retry_backoff=0.1, retry_backoff_cap=0.4
        )
        try:
            for attempt, ceiling in [(1, 0.1), (2, 0.2), (3, 0.4),
                                     (10, 0.4)]:
                draws = [
                    coordinator.retry_delay(attempt) for _ in range(50)
                ]
                assert all(0.0 <= d <= ceiling for d in draws)
                assert len(set(draws)) > 1  # jittered, not constant
        finally:
            coordinator.close()

    def test_zero_backoff_restores_immediate_retry(self):
        coordinator = Coordinator("inprocess", 1, retry_backoff=0.0)
        try:
            assert coordinator.retry_delay(5) == 0.0
        finally:
            coordinator.close()

    def test_retries_counted_and_timed(self):
        # A build task lands on a worker the schedule kills on its
        # first frame; the coordinator re-dispatches it with a drawn
        # backoff, both of which land in the obs metrics.
        registry = obs.MetricsRegistry(enabled=True)
        rng = np.random.default_rng(0)
        coords = rng.integers(0, DOMAIN_SIZE, size=(50, 1))
        weights = 1.0 + rng.pareto(1.3, size=50)
        coordinator = Coordinator(
            FaultyTransport("inprocess", kill_after={0: 1}), 2,
            retry_backoff=0.001, retry_backoff_cap=0.004,
            registry=registry,
        )
        try:
            from repro.distributed import codec

            replies = coordinator.run_tasks([{
                "type": "build",
                "method": "exact",
                "size": 48,
                "seed": 1,
                "coords": coords,
                "weights": weights,
                "domain": codec.encode_domain(domain()),
            }])
            assert replies[0]["ok"]
        finally:
            coordinator.close()
        assert registry.counter("coordinator.task_retries").value >= 1
        hist = registry.histogram("coordinator.retry_backoff_seconds")
        assert hist.count >= 1


class TestFaultyTransport:
    def test_drop_without_kill(self):
        faulty = FaultyTransport(
            "inprocess", drop_sends={0: [2]}
        )
        # dropping one ingest frame loses those items but not the
        # worker: recovery="none" still answers
        ingest = DistributedIngest(
            domain(), ["exact"], 48, transport=faulty,
            num_workers=2, seed=1, recovery="none",
        )
        try:
            for batch in batches(1, n_batches=6):
                ingest.process(batch)
            result = ingest.query_many_now(QUERIES)
            assert result["exact"][0] > 0
        finally:
            ingest.close()
        assert faulty.killed == frozenset()

    def test_killed_worker_raises_on_send(self):
        faulty = FaultyTransport("inprocess", kill_after={0: 1})
        faulty.start(1)
        try:
            faulty.send(0, b"x")  # the killing frame is swallowed
            assert not faulty.alive(0)
            with pytest.raises(TransportError):
                faulty.send(0, b"y")
        finally:
            faulty.stop()
