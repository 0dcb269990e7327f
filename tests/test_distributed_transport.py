"""The shared-memory transport and the wire-stats accounting.

The shared-memory transport must be indistinguishable from the plain
pipe transport above the byte layer -- identical build results, same
worker-death reporting -- while moving large request payloads through
coordinator-owned segments whose lifecycle (allocate, reuse, reclaim
on reply, unlink at stop) these tests pin down.
"""

import glob

import numpy as np
import pytest

from repro.core.types import Dataset
from repro.distributed import (
    Coordinator,
    InProcessTransport,
    SharedMemoryTransport,
    make_transport,
)
from repro.distributed import codec
from repro.distributed.transport import (
    SHM_DESC_MAGIC,
    pack_shm_descriptor,
    unpack_shm_descriptor,
)
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


def queries():
    size = 1 << 12
    return [Box((lo, 0), (lo + size // 3, size // 2))
            for lo in range(0, size // 2, size // 8)]


def start_shm(num_workers, **kwargs):
    transport = SharedMemoryTransport(**kwargs)
    try:
        transport.start(num_workers)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"process spawning unavailable: {exc}")
    return transport


def drain(transport, want, timeout=30.0):
    """Collect ``want`` replies or fail loudly."""
    replies = []
    import time

    deadline = time.monotonic() + timeout
    while len(replies) < want and time.monotonic() < deadline:
        replies.extend(transport.poll(0.2))
    assert len(replies) == want, f"got {len(replies)}/{want} replies"
    return replies


class TestDescriptors:
    def test_round_trip(self):
        name, length = "psm_abc123", 123456
        frame = pack_shm_descriptor(name, length)
        assert frame.startswith(SHM_DESC_MAGIC)
        assert unpack_shm_descriptor(frame) == (name, length)

    def test_inline_frames_pass_through(self):
        assert unpack_shm_descriptor(codec.encode_message(
            {"type": "ping"}
        )) is None


class TestWireStats:
    def test_inprocess_counts_both_directions(self):
        transport = InProcessTransport()
        transport.start(1)
        frame = codec.encode_message({"type": "ping"})
        transport.send(0, frame)
        (worker_id, reply), = transport.poll(0)
        assert worker_id == 0
        stats = transport.stats.snapshot()
        assert stats["frames_sent"] == 1
        assert stats["bytes_sent"] == len(frame)
        assert stats["frames_received"] == 1
        assert stats["bytes_received"] == len(reply)
        assert stats["shm_frames"] == stats["shm_bytes"] == 0

    def test_build_records_wire_accounting(self):
        with Coordinator("inprocess", 2) as coord:
            result = build_sharded(
                "obliv", dataset_2d(), SIZE, np.random.default_rng(0),
                coordinator=coord,
            )
        assert result.wire["frames_sent"] > 0
        assert result.wire["bytes_sent"] + result.wire["bytes_received"] > 0
        assert result.wire["shm_bytes"] == 0


class TestTransportLookup:
    def test_names_resolve(self):
        for name, cls in [("inprocess", InProcessTransport),
                          ("shm", SharedMemoryTransport)]:
            transport = make_transport(name)
            assert type(transport) is cls
            assert transport.stats.snapshot()["frames_sent"] == 0

    @pytest.mark.parametrize("name", ["tcp", "sockets"])
    def test_unknown_name_raises_key_error(self, name):
        with pytest.raises(KeyError, match="unknown transport"):
            make_transport(name)


class TestSharedMemoryTransport:
    def test_build_parity_with_local(self):
        data = dataset_2d()
        # Low threshold so the ~20 KiB shard frames go through shm.
        transport = SharedMemoryTransport(min_shm_bytes=1 << 12)
        try:
            coord = Coordinator(transport, 4)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process spawning unavailable: {exc}")
        with coord:
            result = build_sharded(
                "obliv", data, SIZE, np.random.default_rng(0),
                coordinator=coord,
            )
        local = build_sharded(
            "obliv", data, SIZE, np.random.default_rng(0), num_shards=4
        )
        for box in queries():
            assert result.summary.query(box) == pytest.approx(
                local.summary.query(box), rel=1e-12
            )
        # Large shard frames went out-of-band: descriptors on the
        # pipe, payloads through segments.
        wire = result.wire
        assert wire["shm_bytes"] > wire["bytes_sent"] + wire["bytes_received"]

    def test_small_and_fire_and_forget_frames_stay_inline(self):
        transport = start_shm(1, min_shm_bytes=1 << 16)
        try:
            transport.send(0, codec.encode_message({"type": "ping"}))
            drain(transport, 1)
            assert transport.stats.shm_frames == 0
            assert transport.stats.frames_sent == 1
        finally:
            transport.stop()

    def test_segment_lifecycle_reuse_and_unlink(self):
        transport = start_shm(1, min_shm_bytes=1 << 10)
        try:
            big = codec.encode_message(
                {"type": "ping", "pad": b"x" * (1 << 12)}
            )
            transport.send(0, big)
            assert transport.stats.shm_frames == 1
            assert transport.stats.shm_bytes == len(big)
            (pool,) = transport._segments.values()
            assert len(pool) == 1 and pool[0].in_use
            name = pool[0].shm.name
            assert glob.glob(f"/dev/shm/*{name.lstrip('/')}*")
            drain(transport, 1)
            assert not pool[0].in_use  # reply landed: reclaimed
            # A second big frame reuses the same segment.
            transport.send(0, big)
            assert len(pool) == 1 and pool[0].in_use
            drain(transport, 1)
        finally:
            transport.stop()
        assert transport._segments == {}
        assert not glob.glob(f"/dev/shm/*{name.lstrip('/')}*")

    def test_worker_crash_reassigned(self):
        """A worker killed mid-fleet reports dead; the build survives."""
        data = dataset_2d(seed=3)
        try:
            coord = Coordinator(SharedMemoryTransport(), num_workers=3)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process spawning unavailable: {exc}")
        with coord:
            coord.send(0, {"type": "exit"})
            result = build_sharded(
                "obliv", data, SIZE, np.random.default_rng(0),
                num_shards=3, coordinator=coord,
            )
        assert result.summary.size == SIZE

    def test_dead_worker_send_raises(self):
        transport = start_shm(1)
        try:
            transport.send(
                0, codec.encode_message({"type": "exit"}),
                reply_expected=False,
            )
            import time

            deadline = time.monotonic() + 10
            while transport.alive(0) and time.monotonic() < deadline:
                transport.poll(0.1)
            assert not transport.alive(0)
            from repro.distributed.transport import TransportError

            with pytest.raises(TransportError):
                transport.send(0, codec.encode_message({"type": "ping"}))
        finally:
            transport.stop()

    def test_stop_is_idempotent(self):
        transport = start_shm(1, min_shm_bytes=1 << 10)
        transport.send(
            0, codec.encode_message({"type": "ping", "pad": b"y" * 4096})
        )
        drain(transport, 1)
        transport.stop()
        transport.stop()
        assert transport._segments == {}
