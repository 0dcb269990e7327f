"""``live-mixed``: writes beside reads on a 2-worker fleet.

The network-flow stream (1250-flow micro-batches stamped with their
scheduled arrival) feeds a 2-worker :class:`~repro.distributed.
coordinator.DistributedIngest` over the multiprocessing transport -- a
sliding window of four 1 s panes, methods ``obliv`` and ``aware`` -- at
a fixed 4 batches/s (5k flows/s), while a
:class:`~repro.distributed.frontend.ServingFrontend` answers 2-D
queries, each the union of three prefix rectangles (the paper's
multi-range shape), on a Poisson schedule at a fixed 1k q/s.  Both
rates sit below the fleet's knee.  Every batch invalidates the
frontend's snapshot cache, so queries wait on a collect: worker ingest
and fold -> encode -> pipe -> decode -> coordinator fold.  A change that
speeds one side by starving the other shows up here and nowhere else.

The micro-batches are cut on a clock (every 250 ms), so each worker's
pane holds two batches, below the summary size: a collect is the
window fold, not an ``aware`` rebuild, whose fixed cost of a few hundred
ms would otherwise land on whichever collects a burst of batches hit.
Small batches at 4/s, not 5k-flow batches at 1/s, give a run some 120
collects: ``query_p99_ms`` is set by the queries waiting on collects,
and over a dozen collects it moved by half its median from seed to seed.

``query_p50_ms``, ``query_p99_ms`` and ``fresh_p50_ms`` are scaled by a
:class:`common.SpeedProbe` that the batch thread ticks while it waits
for each batch's arrival -- over 200 ms after the last collect, with
only light query traffic running -- and ``setup_s`` by one ticked
around each setup; this cancels the host's load, and the wall-clock
figures are kept in the raw record.  Ticks taken before the phase did
not track it: scaling by them made the latencies spread more.

``DistributedIngest`` changes its version and its snapshot and fold
caches without a lock: a snapshot racing a ``process()`` can be cached
under a newer version than the data it holds.  The supplier adapter
below serializes the two calls behind one lock and records who waited
on whom.
"""

from __future__ import annotations

import multiprocessing
import statistics
import threading
import time

import numpy as np

import common
import layers

METHODS = ("obliv", "aware")
WORKERS = 2
BATCH = 1250
#: Fixed offered rates, both below the fleet's knee.
BATCH_RATE = 4.0
QUERY_RATE = 1000.0
PANE_S = 1.0
WINDOW_PANES = 4
SIZE = 3000
SERVE_BATCH = 256
MAX_DELAY_MS = 2.0
MAX_PENDING = 4096
TENANT_SHARE = 0.5
SETUPS = 9
N_CHECK = 400
N_VERIFY = 300
ERR_WINDOWS = 6
#: An ``err_*`` above its ceiling fails the run: about three times the
#: largest seed-to-seed value measured, and far below the error of a
#: kernel that answers 0 or twice the truth (``err_if_zero``).
ERR_CEILING = {"obliv": 0.002, "aware": 0.002}
TIMEOUT_S = 60.0
#: Share of ``--seconds`` the mixed phase runs.
PHASE_SHARE = 1.5
#: ``query_p99_ms`` is the median of the p99s of windows this long (by
#: scheduled arrival; 16 collects each), so a dip in the machine's speed
#: moves one window, not the figure.
P99_WINDOW_S = 4.0


class LockedSupplier:
    """A :class:`DistributedIngest` behind one lock, with its waits.

    ``process()`` (the batch generator thread) and ``snapshot()`` (the
    serving flusher, on a cache miss) never overlap, so a snapshot is
    always cached under the version it holds.  Every snapshot handed
    out is kept with its version and hand-out time: the freshness and
    error checks read them afterwards.
    """

    def __init__(self, ingest, labels):
        self._ingest = ingest
        self._lock = threading.Lock()
        self._labels = labels
        self.methods = ingest.methods
        self.ingest_wait_s = []
        self.query_wait_s = []
        self.process_s = []
        self.processed_at = []
        #: ``(version, method, monotonic hand-out time, summary)``.
        self.served = []

    @property
    def version(self):
        return self._ingest.version

    def process(self, batch):
        start = time.perf_counter()
        with self._lock:
            locked = time.perf_counter()
            self._ingest.process(batch)
            done = time.perf_counter()
        self.ingest_wait_s.append(locked - start)
        self.process_s.append(done - locked)
        self.processed_at.append(time.monotonic())

    def snapshot(self, method):
        start = time.perf_counter()
        with self._lock:
            locked = time.perf_counter()
            version = self._ingest.version
            summary = self._ingest.snapshot(method)
        self.query_wait_s.append(locked - start)
        self._labels[id(summary)] = method
        self.served.append((version, method, time.monotonic(), summary))
        return summary


def _feed(supplier, batches, due, lag, errors, speed):
    """The batch generator thread: ``process()`` each batch on schedule.

    Ticks ``speed`` first when the batch is due late enough that the
    tick cannot delay it.
    """
    try:
        for batch, when in zip(batches, due):
            if when - time.monotonic() > 0.02:
                speed.tick()
            ahead = when - time.monotonic()
            if ahead > 0:
                time.sleep(ahead)
            lag.append(time.monotonic() - when)
            supplier.process(batch)
    except Exception as exc:  # the batches left unprocessed count as failed
        errors.append(exc)


def _start(domain, seed, labels):
    """Start and warm the fleet, then the frontend: one ``setup_s``."""
    from repro.distributed.coordinator import DistributedIngest
    from repro.distributed.frontend import ServingFrontend
    from repro.stream import sliding

    start = time.perf_counter()
    ingest = DistributedIngest(
        domain,
        list(METHODS),
        SIZE,
        num_workers=WORKERS,
        transport="multiprocessing",
        seed=seed,
        window=sliding(PANE_S * WINDOW_PANES, PANE_S),
    )
    for method in METHODS:
        ingest.snapshot(method)  # warm: one collect and fold end to end
    supplier = LockedSupplier(ingest, labels)
    service = ServingFrontend(
        supplier,
        batch_size=SERVE_BATCH,
        max_delay_ms=MAX_DELAY_MS,
        max_pending=MAX_PENDING,
        tenant_share=TENANT_SHARE,
    )
    return time.perf_counter() - start, ingest, supplier, service


def _window_exact(batches, stamps, version, boxes):
    """Exact sums over what the fleet's windows hold at ``version``.

    Batches go round-robin to the worker slices, and each slice's
    engine keeps its own pane-granular window at its own stream clock.
    """
    keep = []
    for sid in range(WORKERS):
        mine = np.arange(sid, version, WORKERS)
        if mine.size:
            inside = common.in_window(
                stamps[mine], stamps[mine[-1]], PANE_S, PANE_S * WINDOW_PANES
            )
            keep.extend(mine[inside].tolist())
    coords = np.concatenate([batches[k].coords for k in keep])
    weights = np.concatenate([batches[k].weights for k in keep])
    return common.exact_union_sums(coords, weights, boxes), float(weights.sum())


def _errors(served, batches, stamps, check, boxes):
    """Each method's error, averaged over windows spread across the run."""
    by_version = {}
    for version, method, _at, summary in served:
        by_version.setdefault(version, {}).setdefault(method, summary)
    both = sorted(
        v for v, got in by_version.items()
        if v >= 1 and len(got) == len(METHODS)
    )
    full = [v for v in both if stamps[v - 1] >= PANE_S * WINDOW_PANES]
    chosen = full or both
    spread = np.linspace(0, len(chosen) - 1, min(ERR_WINDOWS, len(chosen)))
    picks = sorted({chosen[int(k)] for k in spread.round()})
    errors = {method: [] for method in METHODS + ("zero",)}
    for version in picks:
        exact, total = _window_exact(batches, stamps, version, boxes)
        errors["zero"].append(
            common.mean_error(np.zeros_like(exact), exact, total)
        )
        for method in METHODS:
            errors[method].append(common.mean_error(
                by_version[version][method].query_many(check), exact, total
            ))
    return {m: float(np.mean(v)) for m, v in errors.items()}, picks


def _freshness(served, due):
    """Per batch: scheduled arrival -> first hand-out of a snapshot with it."""
    if not served:
        return []
    reach = np.maximum.accumulate([entry[0] for entry in served])
    times = [entry[2] for entry in served]
    out = []
    for version, arrival in enumerate(due, start=1):
        k = int(np.searchsorted(reach, version, side="left"))
        if k < len(times):
            out.append(times[k] - arrival)
    return out


def run(seed, seconds, scale, tracer, workdir):
    from repro.datagen.network import (
        NetworkConfig,
        network_domain,
        stream_network_flows,
    )
    from repro.distributed.frontend import OverloadError
    from repro.stream import MicroBatch

    phase_s = PHASE_SHARE * seconds
    rng = np.random.default_rng([seed, 51])
    batch_offsets = (
        np.arange(1, max(1, int(BATCH_RATE * phase_s)) + 1) / BATCH_RATE
    )
    config = NetworkConfig(
        n_pairs=BATCH * batch_offsets.size, n_sources=63_000, n_dests=50_000
    )
    batches = [
        MicroBatch(b.coords, b.weights, timestamp=float(t))
        for b, t in zip(
            stream_network_flows(config, seed=seed, batch_size=BATCH),
            batch_offsets,
        )
    ]
    stamps = np.asarray(batch_offsets, dtype=float)
    domain = network_domain(config)
    every = np.concatenate([b.coords for b in batches])
    total = float(sum(b.weights.sum() for b in batches))
    query_offsets = common.poisson_offsets(rng, QUERY_RATE, phase_s)
    n = query_offsets.size
    queries = common.multirange_queries(common.prefix_boxes(rng, every, n))
    methods = [METHODS[i % len(METHODS)] for i in range(n)]
    tenants = common.zipf_tenants(rng, n)
    check_boxes = common.prefix_boxes(rng, every, N_CHECK)
    check = common.multirange_queries(check_boxes)
    verify = common.multirange_queries(
        common.prefix_boxes(rng, every, N_VERIFY)
    )

    layers.install(tracer)
    setup_s, ingest, service = [], None, None
    setup_speed = common.SpeedProbe()
    for _rep in range(SETUPS):
        if service is not None:
            service.close()
            ingest.close()
        common.settle_heap()
        tracer.phase = "setup"
        setup_speed.tick()
        elapsed, ingest, supplier, service = _start(domain, seed, tracer.labels)
        setup_s.append(elapsed)
        setup_speed.tick()
    try:
        probe = layers.ServingProbe(tracer, service)
        layers.trace_fleet(tracer, ingest)

        common.settle_heap()
        tracer.phase = "mixed"
        stats0, reg0 = service.stats(), layers.registry_snapshot(tracer)
        t0 = time.monotonic() + 0.05
        due_b = (t0 + batch_offsets).tolist()
        due_q = (t0 + query_offsets).tolist()
        batch_lag, feed_errors = [], []
        speed = common.SpeedProbe()
        feeder = threading.Thread(
            target=_feed,
            args=(supplier, batches, due_b, batch_lag, feed_errors, speed),
            name="perfbench-batches",
            daemon=True,
        )
        feeder.start()
        handles, sent = common.replay(
            service.submit, methods, queries, tenants, due_q, (OverloadError,)
        )
        feeder.join()
        latency, _answers, failed = common.resolve(handles, due_q, TIMEOUT_S)
        wall = time.monotonic() - t0
        speed.tick()  # with the program idle; the feeder's ticks may be few
        counts = layers.frontend_counts(stats0, service.stats())
        delta = layers.registry_delta(reg0, tracer)
        in_phase = len(supplier.served)
        waits_ingest = list(supplier.ingest_wait_s)
        waits_query = list(supplier.query_wait_s)
        rss = common.peak_rss_mb(
            [child.pid for child in multiprocessing.active_children()]
        )

        tracer.phase = "check"
        pending = [
            service.submit(METHODS[i % len(METHODS)], query, "verify")
            for i, query in enumerate(verify)
        ]
        got = np.array([handle.result(TIMEOUT_S) for handle in pending])
        direct = np.empty(len(verify))
        for k, method in enumerate(METHODS):
            direct[k::len(METHODS)] = supplier.snapshot(method).query_many(
                verify[k::len(METHODS)]
            )
        mismatched = int(np.count_nonzero(
            ~np.isclose(got, direct, rtol=1e-9, atol=1e-9 * total)
        ))
        errors, picks = _errors(
            supplier.served, batches, stamps, check, check_boxes
        )
    finally:
        service.close()
        ingest.close()

    processed = len(supplier.processed_at)
    items = sum(b.n for b in batches[:processed])
    fresh = _freshness(supplier.served[:in_phase], due_b)
    shed = sum(handle is None for handle in handles)
    lost = len(batches) - processed
    latency_ms = latency * 1e3
    wall_p50 = common.quantile(latency_ms, 0.5)
    wall_p99 = common.window_median(
        latency_ms, query_offsets, P99_WINDOW_S, 0.99
    )
    wall_fresh = 1e3 * common.quantile(fresh, 0.5)
    window = np.floor_divide(query_offsets, P99_WINDOW_S)
    speed_scale = speed.scale()
    named = {
        "setup_s": statistics.median(setup_s) * setup_speed.scale(),
        "query_p50_ms": wall_p50 * speed_scale,
        "query_p99_ms": wall_p99 * speed_scale,
        "ingest_items_per_s": (
            items / (supplier.processed_at[-1] - t0) if processed else 0.0
        ),
        "fresh_p50_ms": wall_fresh * speed_scale,
        "speed_scale": speed_scale,
        "failed_frac": (shed + failed + lost) / (n + len(batches)),
        "err_aware": errors["aware"],
        "err_obliv": errors["obliv"],
        "peak_rss_mb": rss,
    }
    layer = {}
    if tracer.enabled:
        spans = tracer.by_name(["mixed"])
        layer = layers.serving_metrics(tracer, probe, "mixed", wall, counts)
        layer["frontend.flush_size"] = layers.histogram_mean(
            [delta], "serving.batch_size"
        )
        layer["datagen.lag_p99_ms"] = common.quantile(
            (sent - np.asarray(due_q)) * 1e3, 0.99
        )
        if supplier.process_s:
            layer["fleet.process_ms"] = 1e3 * statistics.mean(
                supplier.process_s
            )
        collects = spans.get("fleet.collect")
        if collects:
            layer["fleet.collect_p50_ms"] = 1e3 * common.quantile(
                collects["durations"], 0.5
            )
            layer["fleet.collect_p99_ms"] = 1e3 * common.quantile(
                collects["durations"], 0.99
            )
            layer["fleet.collects_per_batch"] = (
                collects["calls"] / max(processed, 1)
            )
            layer["wire.bytes_received_per_collect"] = layers.counter_total(
                delta, "wire.bytes_received"
            ) / collects["calls"]
        layer["engine.fold_ms"] = layers.mean_ms(spans.get("engine.fold"))
        layer.update(layers.codec_metrics(spans, "encode"))
        layer.update(layers.codec_metrics(spans, "decode"))
        layer["wire.bytes_sent_per_item"] = layers.counter_total(
            delta, "wire.bytes_sent"
        ) / max(items, 1)
        layer["dispatch.reply_p50_ms"] = 1e3 * layers.histogram_p50(
            delta, "dispatch.reply_latency_seconds"
        )
        calls, send_s, _bytes = tracer.tally_of("transport.send", ["mixed"])
        if calls:
            layer["transport.send_us"] = 1e6 * send_s / calls
        if waits_ingest or waits_query:
            layer["supplier.lock_wait_ms"] = 1e3 * statistics.mean(
                waits_ingest + waits_query
            )
        if waits_ingest:
            layer["supplier.ingest_wait_ms"] = 1e3 * statistics.mean(
                waits_ingest
            )
        if waits_query:
            layer["supplier.query_wait_ms"] = 1e3 * statistics.mean(
                waits_query
            )
    return {
        "named": named,
        "layers": layer,
        "checks": {
            "frontend_equals_direct": mismatched == 0,
            "errors_within_ceiling": all(
                errors[m] <= ERR_CEILING[m] for m in METHODS
            ),
            "every_batch_ingested": lost == 0,
        },
        "attempted": n + len(batches),
        "failed": shed + failed + lost,
        "info": {
            "setup_s": setup_s,
            "setup_probe_ms": (1e3 * np.asarray(setup_speed.samples)).tolist(),
            "probe_ms": (1e3 * np.asarray(speed.samples)).tolist(),
            "batches": len(batches),
            "queries": n,
            "shed": shed,
            "failed_queries": failed,
            "feed_errors": [repr(error) for error in feed_errors],
            "batch_lag_p99_ms": 1e3 * common.quantile(batch_lag, 0.99),
            "query_lag_p99_ms": common.quantile(
                (sent - np.asarray(due_q)) * 1e3, 0.99
            ),
            "error_versions": picks,
            "query_p99_whole_phase_ms": common.quantile(latency_ms, 0.99),
            "wall_query_p50_ms": wall_p50,
            "wall_query_p99_ms": wall_p99,
            "wall_window_p99_ms": [
                common.quantile(latency_ms[window == w], 0.99)
                for w in np.unique(window)
            ],
            "wall_fresh_p50_ms": wall_fresh,
            "err_if_zero": errors["zero"],
            "ingest_wait_ms_mean": (
                1e3 * statistics.mean(waits_ingest) if waits_ingest else 0.0
            ),
            "query_wait_ms_mean": (
                1e3 * statistics.mean(waits_query) if waits_query else 0.0
            ),
            "process_ms_mean": (
                1e3 * statistics.mean(supplier.process_s)
                if supplier.process_s else 0.0
            ),
        },
    }
