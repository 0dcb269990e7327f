"""Durability benchmarks: checkpoint write overhead + recovery latency.

Three acceptance measurements for the durable tier:

* **checkpoint overhead**: the same ~1e6-update landmark ingest run
  without a store and with the write-ahead log backend attached, in
  one process: a warm-up pair, then ``OVERHEAD_PAIRS`` interleaved
  pairs whose median ratio is gated, exactly like the
  telemetry-overhead gate.  The acceptance budget is <= 10%
  (``check_regression.py --max-checkpoint-overhead``).
* **restore latency**: rebuilding the engine from the store after a
  simulated crash, for both backends, with and without a checkpoint
  (checkpointed restores skip the batch replay).
* **worker recovery**: an injected worker kill mid-stream under
  ``recovery="replay"``; the recovery time is the cost of the one
  ``process()`` call that rebuilds the lost slice on a survivor.
"""

import tempfile
import time

import numpy as np

from conftest import SMOKE, emit, emit_json, perf_assert
from repro.datagen.network import (
    NetworkConfig,
    network_domain,
    stream_network_flows,
)
from repro.distributed.coordinator import DistributedIngest
from repro.durable import (
    FaultyTransport,
    LogCheckpointStore,
    SQLiteCheckpointStore,
)
from repro.stream import MicroBatch, StreamEngine

#: ~1e6 streamed updates at full scale (acceptance criterion).  Smoke
#: mode streams the first 400k of the same shape (batch, sample size,
#: address universe), so its no-store pass clears 0.15 s -- well above
#: check_regression.py's 0.05 s floor -- and CI gates the same ratio.
STREAM_CONFIG = NetworkConfig(
    n_pairs=400_000 if SMOKE else 1_000_000,
    n_sources=20_000,
    n_dests=16_000,
)
BATCH_SIZE = 10_000
SAMPLE_SIZE = 2_000
METHODS = ["obliv", "exact"]
#: Timed no-store/store pairs after the warm-up pair.
OVERHEAD_PAIRS = 5

N_FLEET_BATCHES = 30 if SMOKE else 120
FLEET_BATCH = 500 if SMOKE else 4_000


def _source():
    return stream_network_flows(
        STREAM_CONFIG, seed=7, batch_size=BATCH_SIZE
    )


def _timed_ingest(store, stem):
    domain = network_domain(STREAM_CONFIG)
    engine = StreamEngine(
        domain, METHODS, SAMPLE_SIZE, seed=7,
        store=store, stream_id=stem,
    )
    start = time.perf_counter()
    ingested = engine.ingest(_source())
    secs = time.perf_counter() - start
    return engine, ingested, secs


def _overhead_benchmark(tmp):
    """Ingest with no store vs ingest with the log WAL attached.

    The passes alternate so drift and background load hit both modes
    alike; the ratio is the *median of the paired ratios* (one noisy
    pass cannot move it), the wall times the fastest pass of each.
    """
    ratios, base, logged = [], [], []
    for rep in range(OVERHEAD_PAIRS + 1):  # pair 0 warms up
        _, ingested, base_secs = _timed_ingest(None, "base")
        store = LogCheckpointStore(f"{tmp}/overhead{rep}")
        engine, _, store_secs = _timed_ingest(store, "s")
        if rep:
            ratios.append(store_secs / max(base_secs, 1e-12))
            base.append(base_secs)
            logged.append(store_secs)
        start = time.perf_counter()
        engine.checkpoint()
        checkpoint_secs = time.perf_counter() - start
        store.sync()
        store.close()
    return {
        "n": ingested,
        "base_secs": min(base),
        "store_secs": min(logged),
        "ratio": float(np.median(ratios)),
        "pairs": OVERHEAD_PAIRS,
        "checkpoint_secs": checkpoint_secs,
    }


def _restore_benchmark(tmp, backend, *, checkpointed):
    """Crash after a full ingest; time the rebuild from the store."""
    label = f"{backend}-{'ckpt' if checkpointed else 'log'}"
    if backend == "log":
        store = LogCheckpointStore(f"{tmp}/restore-{label}")
    else:
        store = SQLiteCheckpointStore(f"{tmp}/restore-{label}.sqlite")
    engine, ingested, _ = _timed_ingest(store, "s")
    if checkpointed:
        engine.checkpoint()
    del engine  # the crash
    start = time.perf_counter()
    restored = StreamEngine.restore(store, "s")
    secs = time.perf_counter() - start
    items = restored.items_seen
    store.close()
    assert items == ingested
    return {"n": ingested, "secs": secs}


def _fleet_recovery_benchmark(transport_name, num_workers=4):
    """Kill one worker mid-stream; time the slice rebuild."""
    rng = np.random.default_rng(3)
    domain = network_domain(STREAM_CONFIG)
    batches = []
    for _ in range(N_FLEET_BATCHES):
        coords = np.column_stack([
            rng.integers(0, size, size=FLEET_BATCH)
            for size in domain.sizes
        ])
        weights = 1.0 + rng.pareto(1.3, size=FLEET_BATCH)
        batches.append(MicroBatch(coords, weights))
    kill_at = N_FLEET_BATCHES // (2 * num_workers) + 2
    faulty = FaultyTransport(
        transport_name, kill_after={0: kill_at}
    )
    ingest = DistributedIngest(
        domain, ["obliv"], SAMPLE_SIZE, transport=faulty,
        num_workers=num_workers, seed=3, recovery="replay",
        replay_log=N_FLEET_BATCHES,
    )
    slowest = 0.0
    try:
        start_all = time.perf_counter()
        for batch in batches:
            start = time.perf_counter()
            ingest.process(batch)
            slowest = max(slowest, time.perf_counter() - start)
        ingest.snapshot("obliv")
        total = time.perf_counter() - start_all
    finally:
        ingest.close()
    return {
        "n": N_FLEET_BATCHES * FLEET_BATCH,
        "recovery_secs": slowest,  # the call that rebuilt the slice
        "total_secs": total,
        "replayed": kill_at - 1,
    }


def test_recovery(results_dir):
    with tempfile.TemporaryDirectory() as tmp:
        overhead = _overhead_benchmark(tmp)
        restores = {
            (backend, ckpt): _restore_benchmark(
                tmp, backend, checkpointed=ckpt
            )
            for backend in ("log", "sqlite")
            for ckpt in (False, True)
        }
    fleet = {
        name: _fleet_recovery_benchmark(name)
        for name in ("inprocess", "mp")
    }

    lines = [
        f"Durability: checkpoint overhead on landmark ingest "
        f"({overhead['n']:,} updates, batch={BATCH_SIZE}, "
        f"methods={'+'.join(METHODS)})",
        f"  no store         : {overhead['base_secs']:9.2f} s",
        f"  log WAL attached : {overhead['store_secs']:9.2f} s",
        f"  overhead         : {overhead['ratio']:9.3f}x "
        f"(median of {overhead['pairs']} pairs; budget 1.10x)",
        f"  checkpoint()     : {overhead['checkpoint_secs'] * 1e3:9.1f} ms",
        "",
        "Durability: restore-from-store latency after a crash",
    ]
    for (backend, ckpt), r in sorted(restores.items()):
        how = "checkpointed" if ckpt else "batch replay"
        lines.append(
            f"  {backend:7s} {how:13s}: {r['secs'] * 1e3:9.1f} ms "
            f"({r['n']:,} updates recovered)"
        )
    lines.append("")
    lines.append(
        "Distributed: worker kill mid-stream, recovery='replay' "
        f"(4 workers, {N_FLEET_BATCHES} batches x {FLEET_BATCH:,})"
    )
    for name, r in sorted(fleet.items()):
        lines.append(
            f"  {name:9s}: slice rebuilt in "
            f"{r['recovery_secs'] * 1e3:8.1f} ms "
            f"({r['replayed']} batches replayed)"
        )
    emit(results_dir, "recovery", "\n".join(lines))

    records = [
        {
            "method": "+".join(METHODS), "mode": "checkpoint-overhead",
            "backend": "log", "size": SAMPLE_SIZE, "n": overhead["n"],
            "wall_time_nostore_s": overhead["base_secs"],
            "wall_time_store_s": overhead["store_secs"],
            "checkpoint_overhead_ratio": overhead["ratio"],
            "overhead_pairs": overhead["pairs"],
            "checkpoint_call_s": overhead["checkpoint_secs"],
        },
    ]
    for (backend, ckpt), r in sorted(restores.items()):
        records.append({
            "method": "+".join(METHODS), "mode": "restore",
            "backend": backend,
            "checkpointed": ckpt,
            "size": SAMPLE_SIZE, "n": r["n"],
            "wall_time_s": r["secs"],
        })
    for name, r in sorted(fleet.items()):
        records.append({
            "method": "obliv", "mode": "worker-recovery",
            "transport": name, "size": SAMPLE_SIZE, "n": r["n"],
            "wall_time_s": r["recovery_secs"],
            "total_wall_time_s": r["total_secs"],
            "batches_replayed": r["replayed"],
        })
    emit_json(results_dir, "recovery", records)

    # The write-ahead log stays within the ingest hot-path budget
    # (the acceptance criterion, also CI-gated by check_regression).
    perf_assert(overhead["ratio"] <= 1.10,
                f"checkpoint overhead {overhead['ratio']:.3f}x")
    # A checkpointed restore skips the batch replay, so it must not be
    # slower than replaying the whole log.
    perf_assert(
        restores[("log", True)]["secs"]
        <= restores[("log", False)]["secs"] * 1.5,
        "checkpointed restore slower than full replay",
    )
