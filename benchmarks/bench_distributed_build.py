"""Distributed build/serve benchmarks: multi-worker builds + serving.

Four acceptance measurements for the distributed subsystem:

* **build scaling**: serial in-process ``build_sharded`` vs the same
  call on 2/4/8-worker fleets (``coordinator=``) over the
  multiprocessing and shared-memory transports -- the fleet path must
  (a) produce *identical* answers with the same seed and (b) beat the
  single-process wall time on multi-core hosts.  Fleet startup is
  timed separately (``fleet_start_s``): production coordinators are
  long-lived, so the build timing is against a warm fleet.
* **wire bytes**: every mode records what actually crossed the wire
  (``bytes_on_wire``/``frames_sent``/``shm_bytes``, from the build's
  ``ShardedBuild.wire``), and the
  ``wire-codec`` records price the exact build-task frames raw vs
  compressed -- the regression gate asserts compressed never exceeds
  raw, and sorted int64 key frames must shrink >= 3x.
* **wire overhead**: the in-process transport runs the full
  encode/ship/decode path with zero process cost, isolating what the
  codec itself adds to a build.
* **query serving**: a 1k-query battery against the folded summary
  through the :class:`~repro.distributed.frontend.QueryFrontend`,
  first battery (fold + sorts + sweep) vs repeat battery (cached
  snapshot + cached sort orders).
"""

import os
import time

import numpy as np

from conftest import SMOKE, emit, emit_json, perf_assert
from repro.datagen.network import NetworkConfig, generate_network_flows
from repro.datagen.queries import uniform_area_queries
from repro.distributed import Coordinator, QueryFrontend, codec
from repro.engine.builder import build_sharded
from repro.engine.shard import shard_dataset

#: Large setting: enough rows that per-shard build work dominates the
#: shard shipping cost (acceptance criterion for multi-worker speedup).
BUILD_CONFIG = NetworkConfig(
    n_pairs=5_000 if SMOKE else 400_000,
    n_sources=1_000 if SMOKE else 30_000,
    n_dests=800 if SMOKE else 24_000,
)
SAMPLE_SIZE = 200 if SMOKE else 2_000
#: Fleet sizes follow the machine: a process-per-worker transport on a
#: 2-core runner gains nothing from an 8-worker fleet, and its record
#: would poison the cross-machine regression baseline.  Two workers is
#: always measured (the minimum that exercises sharding); 4 and 8 join
#: when the cores are actually there.
_CPUS = os.cpu_count() or 1
WORKER_COUNTS = (
    [2] if SMOKE
    else sorted({2, *(w for w in (4, 8) if w <= _CPUS)})
)
SHM_WORKERS = 2 if SMOKE else min(4, max(2, _CPUS))
N_QUERIES = 100 if SMOKE else 1_000
METHODS = ["obliv", "qdigest"]


class _StaticSupplier:
    """Adapt one frozen summary to the frontend's supplier protocol."""

    version = 0

    def __init__(self, summary):
        self._summary = summary

    def snapshot(self, method):
        return self._summary


def _task_frame_bytes(method, data, num_shards=4):
    """Exact build-task frame sizes for one build, raw vs compressed.

    Mirrors the coordinator's task construction, so the two totals are
    precisely what a 4-worker build ships with and without the v2
    array codecs.
    """
    domain_spec = codec.encode_domain(data.domain)
    raw = wire = 0
    for index, shard in enumerate(shard_dataset(data, num_shards)):
        task = {
            "type": "build",
            "method": method,
            "size": int(SAMPLE_SIZE),
            "seed": index,
            "task_id": index,
            "coords": shard.coords,
            "weights": shard.weights,
            "domain": domain_spec,
        }
        raw += len(codec.encode_message(task, compress=False))
        wire += len(codec.encode_message(task))
    return raw, wire


def _bytes_on_wire(result):
    return result.wire["bytes_sent"] + result.wire["bytes_received"]


def _warm_build(method, data, transport, workers):
    """One build against a pre-started fleet.

    Returns the build, its wall time, the fleet's startup time and the
    fleet's task retries.
    """
    start = time.perf_counter()
    coord = Coordinator(transport, num_workers=workers)
    fleet_start_s = time.perf_counter() - start
    try:
        start = time.perf_counter()
        result = build_sharded(
            method, data, SAMPLE_SIZE, np.random.default_rng(5),
            coordinator=coord,
        )
        build_s = time.perf_counter() - start
    finally:
        coord.close()
    return result, build_s, fleet_start_s, coord.retries


def _build_benchmark(data):
    rows = []
    records = []
    rng = np.random.default_rng(123)
    battery = uniform_area_queries(
        data.domain, 20, 3, max_fraction=0.1, rng=rng
    )
    for method in METHODS:
        start = time.perf_counter()
        local = build_sharded(
            method, data, SAMPLE_SIZE, np.random.default_rng(5),
            num_shards=4,
        )
        local_secs = time.perf_counter() - start
        local_answers = local.summary.query_many(battery)
        rows.append((method, "local build_sharded(4, serial)", 1,
                     local_secs, None, None))
        records.append({
            "method": method, "mode": "local-serial",
            "workers": 1, "size": SAMPLE_SIZE, "n": data.n,
            "wall_time_s": local_secs,
            "throughput_per_s": data.n / max(local_secs, 1e-12),
        })

        # What the build-task frames cost raw vs compressed (the v2
        # codecs must never lose to the raw framing).
        raw_bytes, wire_bytes = _task_frame_bytes(method, data)
        assert wire_bytes <= raw_bytes
        records.append({
            "method": method, "mode": "wire-codec",
            "size": SAMPLE_SIZE, "n": data.n,
            "raw_bytes": raw_bytes, "bytes_on_wire": wire_bytes,
            "compression_ratio": raw_bytes / max(wire_bytes, 1),
        })

        # Fleet start and stop stay inside the timing, as they always
        # have for this row: an in-process fleet is four threads.
        start = time.perf_counter()
        with Coordinator("inprocess", num_workers=4) as coord:
            wired = build_sharded(
                method, data, SAMPLE_SIZE, np.random.default_rng(5),
                coordinator=coord,
            )
        wired_secs = time.perf_counter() - start
        rows.append((method, "inprocess wire (codec overhead)", 4,
                     wired_secs, None, _bytes_on_wire(wired)))
        records.append({
            "method": method, "mode": "inprocess-wire",
            "workers": 4, "size": SAMPLE_SIZE, "n": data.n,
            "wall_time_s": wired_secs,
            "throughput_per_s": data.n / max(wired_secs, 1e-12),
            "bytes_on_wire": _bytes_on_wire(wired),
            "frames_sent": wired.wire["frames_sent"],
        })

        best_dist = None
        for workers in WORKER_COUNTS:
            dist, dist_secs, fleet_secs, retries = _warm_build(
                method, data, "multiprocessing", workers
            )
            best_dist = min(best_dist or dist_secs, dist_secs)
            rows.append((method, "multiprocessing (warm fleet)", workers,
                         dist_secs, retries, _bytes_on_wire(dist)))
            records.append({
                "method": method, "mode": "multiprocessing",
                "workers": workers, "size": SAMPLE_SIZE, "n": data.n,
                "wall_time_s": dist_secs,
                "throughput_per_s": data.n / max(dist_secs, 1e-12),
                "fleet_start_s": fleet_secs,
                "bytes_on_wire": _bytes_on_wire(dist),
                "frames_sent": dist.wire["frames_sent"],
                "retries": retries,
            })
            if workers == 4:
                # Same seed => same shard seeds, builders and fold:
                # the distributed summary must answer identically.
                assert dist.summary.query_many(battery) == local_answers

        shm, shm_secs, shm_fleet_secs, shm_retries = _warm_build(
            method, data, "shared-memory", SHM_WORKERS
        )
        best_dist = min(best_dist, shm_secs)
        rows.append((method, "shared-memory (warm fleet)", SHM_WORKERS,
                     shm_secs, shm_retries, _bytes_on_wire(shm)))
        records.append({
            "method": method, "mode": "shared-memory",
            "workers": SHM_WORKERS, "size": SAMPLE_SIZE, "n": data.n,
            "wall_time_s": shm_secs,
            "throughput_per_s": data.n / max(shm_secs, 1e-12),
            "fleet_start_s": shm_fleet_secs,
            "bytes_on_wire": _bytes_on_wire(shm),
            "frames_sent": shm.wire["frames_sent"],
            "shm_bytes": shm.wire["shm_bytes"],
            "retries": shm_retries,
        })
        if SHM_WORKERS == 4:
            assert shm.summary.query_many(battery) == local_answers

        records.append({
            "method": method, "mode": "speedup",
            "size": SAMPLE_SIZE, "n": data.n,
            "local_s": local_secs, "best_mp_s": best_dist,
            "speedup": local_secs / max(best_dist, 1e-12),
        })
    # The headline wire criterion: sorted int64 key frames (the shape
    # shard coordinates ship in after contiguous sharding) must
    # compress >= 3x under the delta+varint codec.
    keys = np.sort(np.ascontiguousarray(data.coords[:, 0]))
    raw_keys = len(codec.encode_value(keys, compress=False))
    wire_keys = len(codec.encode_value(keys))
    assert raw_keys >= 3 * wire_keys, (raw_keys, wire_keys)
    records.append({
        "method": "sorted-int64-keys", "mode": "wire-codec",
        "n": int(keys.shape[0]),
        "raw_bytes": raw_keys, "bytes_on_wire": wire_keys,
        "compression_ratio": raw_keys / max(wire_keys, 1),
    })
    return rows, records


def _serving_benchmark(data):
    with Coordinator("inprocess", num_workers=4) as coord:
        dist = build_sharded(
            "obliv", data, SAMPLE_SIZE, np.random.default_rng(5),
            coordinator=coord,
        )
    frontend = QueryFrontend(_StaticSupplier(dist.summary))
    rng = np.random.default_rng(9)
    battery = uniform_area_queries(
        data.domain, N_QUERIES, 3, max_fraction=0.1, rng=rng
    )
    start = time.perf_counter()
    first = frontend.query_many("obliv", battery)
    first_secs = time.perf_counter() - start
    start = time.perf_counter()
    repeat = frontend.query_many("obliv", battery)
    repeat_secs = time.perf_counter() - start
    assert first == repeat
    assert frontend.stats.hits == 1
    return {
        "n_queries": len(battery),
        "first_secs": first_secs,
        "repeat_secs": repeat_secs,
        "first_qps": len(battery) / max(first_secs, 1e-12),
        "repeat_qps": len(battery) / max(repeat_secs, 1e-12),
    }


def test_distributed_build(results_dir):
    data = generate_network_flows(BUILD_CONFIG, seed=42)
    rows, records = _build_benchmark(data)
    serving = _serving_benchmark(data)
    records.append({
        "method": "obliv", "mode": "frontend-serving",
        "size": SAMPLE_SIZE, "n_queries": serving["n_queries"],
        "wall_time_s": serving["first_secs"],
        "throughput_per_s": serving["first_qps"],
        "repeat_wall_time_s": serving["repeat_secs"],
        "repeat_throughput_per_s": serving["repeat_qps"],
    })
    lines = [
        f"Distributed: shard builds over {data.n:,} flow keys "
        f"(s={SAMPLE_SIZE}, methods={'+'.join(METHODS)})",
    ]
    for method, mode, workers, secs, retries, wire in rows:
        note = f", retries={retries}" if retries else ""
        wire_note = f", {wire:,} B wire" if wire is not None else ""
        lines.append(
            f"  {method:8s} {mode:32s} w={workers}: {secs:8.2f} s"
            f" ({data.n / max(secs, 1e-12):,.0f} rows/s"
            f"{wire_note}{note})"
        )
    for record in records:
        if record["mode"] == "wire-codec":
            lines.append(
                f"  wire-codec {record['method']:18s}: "
                f"{record['raw_bytes']:,} B raw -> "
                f"{record['bytes_on_wire']:,} B "
                f"({record['compression_ratio']:.1f}x)"
            )
    lines += [
        "",
        f"Distributed: {serving['n_queries']}-query battery through "
        "the frontend (4-worker folded sample)",
        f"  first battery    : {serving['first_secs'] * 1e3:9.1f} ms "
        f"({serving['first_qps']:,.0f} q/s)",
        f"  repeat battery   : {serving['repeat_secs'] * 1e3:9.1f} ms "
        f"({serving['repeat_qps']:,.0f} q/s, cached snapshot + sorts)",
    ]
    emit(results_dir, "distributed_build", "\n".join(lines))
    emit_json(results_dir, "distributed", records)
    # Multi-worker beats the serial single-process build wall-time on
    # the large setting -- wherever there are cores to scale onto.
    speedups = [r["speedup"] for r in records if r.get("mode") == "speedup"]
    if (os.cpu_count() or 1) >= 2:
        perf_assert(
            all(s > 1.0 for s in speedups), f"speedups {speedups}"
        )
    # Serving from the cached snapshot must beat the cold battery.
    perf_assert(
        serving["repeat_secs"] < serving["first_secs"],
        f"{serving['repeat_secs']} vs {serving['first_secs']}",
    )
