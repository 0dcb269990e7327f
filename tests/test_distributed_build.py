"""Fleet shard builds: parity with the serial engine + fault paths.

The headline guarantee: ``build_sharded(..., coordinator=...)`` over
any transport produces *identical* query answers to the serial
in-process ``build_sharded`` given the same seed -- per-shard seeds,
worker builders, codec round trip and fold all line up bit-for-bit.
Plus the coordinator's failure handling: task errors and worker deaths
are retried/reassigned to surviving workers.
"""

import numpy as np
import pytest

from repro.core.types import Dataset
from repro.distributed import (
    Coordinator,
    DistributedError,
    InProcessTransport,
    SharedMemoryTransport,
)
from repro.distributed.codec import decode_message, encode_message, to_bytes
from repro.distributed.worker import WorkerRuntime
from repro.engine import registry
from repro.engine.builder import build_sharded
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box

SIZE = 200


def dataset_2d(seed=42, n=3000):
    rng = np.random.default_rng(seed)
    size = 1 << 12
    coords = rng.integers(0, size, size=(n, 2))
    weights = 1.0 + rng.pareto(1.4, size=n)
    domain = ProductDomain([OrderedDomain(size), OrderedDomain(size)])
    return Dataset(coords=coords, weights=weights, domain=domain)


def dataset_1d(seed=42, n=3000):
    rng = np.random.default_rng(seed)
    size = 1 << 12
    return Dataset.one_dimensional(
        rng.integers(0, size, size=n),
        1.0 + rng.pareto(1.4, size=n),
        size,
    )


def queries(dims):
    size = 1 << 12
    if dims == 1:
        return [Box((lo,), (lo + size // 3,))
                for lo in range(0, size // 2, size // 8)]
    return [Box((lo, 0), (lo + size // 3, size // 2))
            for lo in range(0, size // 2, size // 8)]


MERGEABLE_METHODS = [
    name for name in sorted(registry.available())
    if registry.is_mergeable(name)
]


def fleet_build(method, data, rng, *, num_workers=None,
                transport="inprocess", num_shards=None, **options):
    """``build_sharded`` on a fleet started (and closed) for this call."""
    with Coordinator(transport, num_workers, **options) as coord:
        return build_sharded(
            method, data, SIZE, rng,
            num_shards=num_shards, coordinator=coord,
        )


class TestParityWithLocalEngine:
    @pytest.mark.parametrize("method", MERGEABLE_METHODS)
    def test_inprocess_matches_build_sharded(self, method):
        data = dataset_1d() if method == "qdigest-stream" else dataset_2d()
        local = build_sharded(
            method, data, SIZE, np.random.default_rng(5), num_shards=4,
        )
        dist = fleet_build(
            method, data, np.random.default_rng(5), num_workers=4,
        )
        battery = queries(data.dims)
        assert dist.summary.query_many(battery) == \
            local.summary.query_many(battery)
        assert to_bytes(dist.summary) == to_bytes(local.summary)
        assert dist.num_shards == local.num_shards
        assert dist.shard_sizes == local.shard_sizes

    @pytest.mark.parametrize("method", MERGEABLE_METHODS)
    def test_multiprocessing_4_workers_matches_build_sharded(self, method):
        """The acceptance criterion: 4 workers over real processes."""
        data = dataset_1d() if method == "qdigest-stream" else dataset_2d()
        local = build_sharded(
            method, data, SIZE, np.random.default_rng(5), num_shards=4,
        )
        try:
            dist = fleet_build(
                method, data, np.random.default_rng(5),
                num_workers=4, transport="multiprocessing",
            )
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process spawning unavailable: {exc}")
        battery = queries(data.dims)
        assert dist.summary.query_many(battery) == \
            local.summary.query_many(battery)
        assert to_bytes(dist.summary) == to_bytes(local.summary)

    def test_shared_memory_matches_build_sharded(self):
        """Every mergeable method, frame for frame, through segments."""
        try:
            coord = Coordinator(
                SharedMemoryTransport(min_shm_bytes=1 << 12), num_workers=2
            )
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process spawning unavailable: {exc}")
        with coord:
            for method in MERGEABLE_METHODS:
                data = (dataset_1d() if method == "qdigest-stream"
                        else dataset_2d())
                local = build_sharded(
                    method, data, SIZE, np.random.default_rng(5),
                    num_shards=4,
                )
                dist = build_sharded(
                    method, data, SIZE, np.random.default_rng(5),
                    num_shards=4, coordinator=coord,
                )
                assert to_bytes(dist.summary) == to_bytes(local.summary)
            assert coord.transport.stats.snapshot()["shm_bytes"] > 0

    def test_transports_agree_with_each_other(self):
        data = dataset_2d(seed=7)
        answers = []
        for transport in ("inprocess", "multiprocessing"):
            dist = fleet_build(
                "qdigest", data, np.random.default_rng(1),
                num_workers=3, transport=transport,
            )
            answers.append(dist.summary.query_many(queries(2)))
        assert answers[0] == answers[1]

    def test_coordinator_reuse_across_builds(self):
        data = dataset_2d(seed=9)
        with Coordinator("inprocess", num_workers=3) as coord:
            first = build_sharded(
                "obliv", data, SIZE, np.random.default_rng(0),
                coordinator=coord,
            )
            second = build_sharded(
                "sketch", data, SIZE, np.random.default_rng(0),
                coordinator=coord,
            )
        assert first.num_shards == second.num_shards == 3

    def test_fleet_builds_names_only(self):
        with Coordinator("inprocess", num_workers=2) as coord:
            with pytest.raises(TypeError, match="by name"):
                build_sharded(
                    lambda d, s, rng: registry.build("obliv", d, s, rng),
                    dataset_2d(), SIZE, coordinator=coord,
                )

    @pytest.mark.parametrize("workers", [0, -2])
    def test_empty_fleet_raises(self, workers):
        """No fleet size below one starts a default fleet instead."""
        with pytest.raises(ValueError, match="at least one worker"):
            Coordinator("inprocess", num_workers=workers)
        with pytest.raises(ValueError, match=">= 1"):
            build_sharded("obliv", dataset_2d(), SIZE, num_shards=workers)

    def test_unknown_method_fails_fast(self):
        with pytest.raises(KeyError, match="unknown method"):
            fleet_build(
                "no-such-method", dataset_2d(),
                np.random.default_rng(0), num_workers=2,
            )


class _FlakyRuntime:
    """Worker handler that fails the first ``failures`` build tasks."""

    def __init__(self, failures):
        self._runtime = WorkerRuntime()
        self._failures = failures

    def __call__(self, frame):
        message = decode_message(frame)
        if message.get("type") == "build" and self._failures > 0:
            self._failures -= 1
            return encode_message({
                "type": "result",
                "task_id": message["task_id"],
                "ok": False,
                "error": "injected failure",
            })
        reply, _stop = self._runtime.handle_frame(frame)
        return reply


class _CrashingRuntime:
    """Worker handler that dies (raises) on its first build task."""

    def __init__(self):
        self._runtime = WorkerRuntime()
        self._crashed = False

    def __call__(self, frame):
        message = decode_message(frame)
        if message.get("type") == "build" and not self._crashed:
            self._crashed = True
            raise RuntimeError("simulated worker crash")
        reply, _stop = self._runtime.handle_frame(frame)
        return reply


class TestFaultHandling:
    def test_failed_tasks_are_retried(self):
        """Transient task errors are retried until they succeed."""
        data = dataset_2d(seed=3)
        transport = InProcessTransport(
            handler_factory=lambda worker_id: _FlakyRuntime(
                failures=1 if worker_id == 0 else 0
            )
        )
        coord = Coordinator(transport, num_workers=3, max_retries=2)
        with coord:
            result = build_sharded(
                "obliv", data, SIZE, np.random.default_rng(0),
                coordinator=coord,
            )
        assert coord.retries >= 1
        assert result.summary.size == SIZE

    def test_dead_workers_tasks_reassigned(self):
        """A crashed worker's task moves to a surviving worker."""
        data = dataset_2d(seed=3)

        def factory(worker_id):
            if worker_id == 0:
                return _CrashingRuntime()
            runtime = WorkerRuntime()
            return lambda frame: runtime.handle_frame(frame)[0]

        transport = InProcessTransport(handler_factory=factory)
        coord = Coordinator(transport, num_workers=3, max_retries=2)
        with coord:
            result = build_sharded(
                "obliv", data, SIZE, np.random.default_rng(0),
                num_shards=3, coordinator=coord,
            )
        assert not transport.alive(0)
        assert result.summary.size == SIZE

    def test_persistent_failure_exhausts_retries(self):
        data = dataset_2d(seed=3)
        transport = InProcessTransport(
            handler_factory=lambda worker_id: _FlakyRuntime(failures=10**6)
        )
        coord = Coordinator(transport, num_workers=2, max_retries=2)
        with coord:
            with pytest.raises(DistributedError, match="failed after"):
                build_sharded(
                    "obliv", data, SIZE, np.random.default_rng(0),
                    coordinator=coord,
                )

    def test_protocol_error_replies_fail_fast(self):
        """A worker stuck on 'error' replies exhausts retries loudly,
        instead of hanging the build until the deadline."""
        data = dataset_2d(seed=3)
        transport = InProcessTransport(
            handler_factory=lambda worker_id: lambda frame:
                encode_message({"type": "error",
                                "error": "wire version mismatch"})
        )
        coord = Coordinator(
            transport, num_workers=2, max_retries=1, timeout=30.0
        )
        with coord:
            with pytest.raises(DistributedError,
                               match="wire version mismatch"):
                build_sharded(
                    "obliv", data, SIZE, np.random.default_rng(0),
                    coordinator=coord,
                )

    def test_all_workers_dead_raises(self):
        data = dataset_2d(seed=3)
        transport = InProcessTransport(
            handler_factory=lambda worker_id: _CrashingRuntime()
        )
        coord = Coordinator(transport, num_workers=2, max_retries=5)
        with coord:
            with pytest.raises(DistributedError, match="workers"):
                build_sharded(
                    "obliv", data, SIZE, np.random.default_rng(0),
                    coordinator=coord,
                )

    def test_mp_worker_crash_reassigned(self):
        """A real process killed mid-fleet does not sink the build."""
        data = dataset_2d(seed=3)
        try:
            coord = Coordinator("multiprocessing", num_workers=3)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process spawning unavailable: {exc}")
        with coord:
            # Make worker 0 exit abruptly (no reply), then build.
            coord.send(0, {"type": "exit"})
            result = build_sharded(
                "obliv", data, SIZE, np.random.default_rng(0),
                num_shards=3, coordinator=coord,
            )
        assert result.summary.size == SIZE
