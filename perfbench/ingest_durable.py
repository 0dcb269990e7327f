"""``ingest-durable``: the write path alone.

The network-flow stream -- 2-D keys in two 32-bit IP hierarchies, 116
batches of 5k flows, batch ``i`` stamped with event time ``i + 0.5`` --
goes into one :class:`~repro.stream.StreamEngine` (sliding window of
four 16-batch panes; methods ``obliv``, ``aware``, ``qdigest``) with a
:class:`~repro.durable.LogCheckpointStore` on local disk as its
write-ahead log.  ``checkpoint()`` runs synchronously after every 8th
batch.  The run ends with a simulated crash -- the log's last record
torn mid-write -- and ``StreamEngine.restore``; the restored engine must
answer bit for bit like the engine that never crashed.  Serving does
nothing.

The buffered ``aware``/``qdigest`` rebuilds are geometric (batches 1, 2,
4, 8 and 16 of a pane) and cost about the same whatever their size, so
every full pane is one cycle of the same work: 11 light batches (a log
append plus reservoir and buffer updates) and 5 rebuild batches, two of
them with a checkpoint.  ``batch_p50_ms`` is a light batch,
``batch_p90_ms`` (116 batches: 11 beyond it) a rebuild batch, and
``ingest_items_per_s`` counts the whole run's items over its ingest
time, seals and checkpoints included.  These and ``setup_s`` are scaled
by a :class:`common.SpeedProbe` ticked before every batch (and every
store open), which cancels the host's load; the wall-clock figures are
kept in the raw record.  ``restore_s`` is wall time.
"""

from __future__ import annotations

import os
import statistics
import struct
import time

import numpy as np

import common
import layers

METHODS = ("obliv", "aware", "qdigest")
#: At least the buffered rebuild's first-build threshold (1024 items),
#: so rebuilds land on batches 1, 2, 4, 8 and 16 of a pane.
BATCH = 5000
#: Seven full panes, then four batches the last checkpoint does not
#: cover, which the restore must replay.
N_BATCHES = 116
PANE = 16
WINDOW_PANES = 4
SIZE = 3000
CHECKPOINT_EVERY = 8
#: Store opens per run (``setup_s`` is their median: each is a few
#: hundred microseconds, most of it creating the log file).
SETUPS = 31
RESTORES = 3
N_CHECK = 400
#: Batches of a pane (1-based) after which the window's error is
#: measured: no rebuild is pending there, so taking a snapshot leaves
#: the engine's state untouched.
EVAL_AT = (8, 16)
#: An ``err_*`` above its ceiling fails the run: about three times the
#: largest seed-to-seed value measured, and far below the error of a
#: kernel that answers 0 or twice the truth (``err_if_zero``).
ERR_CEILING = {"obliv": 0.003, "aware": 0.003, "qdigest": 0.003}
STREAM_ID = "flows"
UNIVERSE_SEED = 42
STORE_OPS = ("append", "prune", "truncate", "sync")


def _flows(seed, n_batches):
    """The flow batches: a fixed address universe, seeded traffic on it.

    The subnet clusters (which set the rebuilds' partition work) stay
    the same for every seed; the seed draws which flows cross them and
    their sizes.
    """
    from repro.datagen.distributions import pareto_weights
    from repro.datagen.network import (
        NetworkConfig,
        _address_universe,
        network_domain,
    )
    from repro.stream import MicroBatch

    config = NetworkConfig(
        n_pairs=BATCH * n_batches, n_sources=63_000, n_dests=50_000
    )
    sources, dests, src_pop, dst_pop = _address_universe(
        config, np.random.default_rng(UNIVERSE_SEED)
    )
    rng = np.random.default_rng([seed, 43])
    batches = []
    for i in range(n_batches):
        src = sources[rng.choice(config.n_sources, size=BATCH, p=src_pop)]
        dst = dests[rng.choice(config.n_dests, size=BATCH, p=dst_pop)]
        weights = pareto_weights(BATCH, config.weight_alpha, rng=rng)
        batches.append(MicroBatch(
            np.column_stack((src, dst)), weights, timestamp=i + 0.5
        ))
    return network_domain(config), batches


def _open(domain, seed, directory):
    """Open the store and the engine on it: one ``setup_s``."""
    from repro.durable import LogCheckpointStore
    from repro.stream import StreamEngine, sliding

    start = time.perf_counter()
    store = LogCheckpointStore(directory)
    engine = StreamEngine(
        domain,
        list(METHODS),
        SIZE,
        window=sliding(PANE * WINDOW_PANES, PANE),
        seed=seed,
        store=store,
        stream_id=STREAM_ID,
    )
    return time.perf_counter() - start, store, engine


def _window_errors(engine, batches, last, queries, boxes, labels):
    """Each method's error over the window the engine holds right now."""
    stamps = np.array([b.timestamp for b in batches[:last + 1]])
    keep = np.flatnonzero(
        common.in_window(stamps, stamps[-1], PANE, PANE * WINDOW_PANES)
    )
    coords = np.concatenate([batches[k].coords for k in keep])
    weights = np.concatenate([batches[k].weights for k in keep])
    exact = common.exact_union_sums(coords, weights, boxes)
    total = float(weights.sum())
    errors = {"zero": common.mean_error(np.zeros_like(exact), exact, total)}
    for method in METHODS:
        summary = engine.snapshot(method)
        labels[id(summary)] = method
        errors[method] = common.mean_error(
            summary.query_many(queries), exact, total
        )
    return errors


def _tear_tail(directory):
    """Die mid-append: leave half a record frame at the end of the log."""
    (name,) = [f for f in os.listdir(directory) if f.endswith(".rdur")]
    with open(os.path.join(directory, name), "ab") as fh:
        fh.write(struct.pack("<IIqI", 4096, 0, 0, 0) + bytes(100))


def _dir_bytes(directory):
    return sum(
        os.path.getsize(os.path.join(directory, f))
        for f in os.listdir(directory)
    )


def run(seed, seconds, scale, tracer, workdir):
    from repro.durable import LogCheckpointStore
    from repro.stream import StreamEngine

    n_batches = max(2 * PANE, int(N_BATCHES * scale))
    domain, batches = _flows(seed, n_batches)
    # Measure errors once the window is full, or over the last pane of
    # a run too short to fill it.
    first_eval = min(PANE * WINDOW_PANES, n_batches - PANE)
    items = sum(b.n for b in batches)
    batch_bytes = sum(b.coords.nbytes + b.weights.nbytes for b in batches)
    boxes = common.prefix_boxes(
        np.random.default_rng([seed, 41]),
        np.concatenate([b.coords for b in batches]),
        N_CHECK,
    )
    queries = common.multirange_queries(boxes)

    layers.install(tracer)
    setup_s = []
    setup_speed = common.SpeedProbe()
    common.settle_heap()
    for rep in range(SETUPS):
        directory = os.path.join(workdir, f"store{rep}")
        tracer.phase = "setup"
        setup_speed.tick()
        elapsed, store, engine = _open(domain, seed, directory)
        setup_s.append(elapsed)
        if rep < SETUPS - 1:
            store.close()
    setup_speed.tick()
    if tracer.enabled:
        tracer.patch(engine, "process", "stream.process",
                     work=lambda a, r: a[0].n)
        tracer.patch(engine, "_seal_current", "stream.seal")
        tracer.patch(engine, "checkpoint", "durable.checkpoint")
        for op in STORE_OPS:
            tracer.patch(store, op, "durable." + op)

    common.settle_heap()
    reg0 = layers.registry_snapshot(tracer)
    written0 = common.bytes_written()
    batch_s, windows = [], []
    speed = common.SpeedProbe()
    for i, micro in enumerate(batches):
        tracer.phase = "ingest"
        speed.tick()
        start = time.perf_counter()
        engine.process(micro)
        if (i + 1) % CHECKPOINT_EVERY == 0:
            engine.checkpoint()
        batch_s.append(time.perf_counter() - start)
        if i + 1 >= first_eval and (i % PANE) + 1 in EVAL_AT:
            tracer.phase = "check"
            windows.append(_window_errors(
                engine, batches, i, queries, boxes, tracer.labels
            ))
    speed.tick()
    written = common.bytes_written() - written0
    delta = layers.registry_delta(reg0, tracer)
    ingest_s = sum(batch_s)
    log_bytes = _dir_bytes(directory)

    _tear_tail(directory)
    tracer.phase = "restore"
    read_s, restore_s, restored = [], [], None
    for _ in range(RESTORES):
        # Free the previous restore first: were it left to the cyclic
        # collector, peak memory would depend on when that happens to run.
        restored = None
        common.settle_heap()
        start = time.perf_counter()
        reopened = LogCheckpointStore(directory)
        opened = time.perf_counter()
        restored = StreamEngine.restore(reopened, STREAM_ID)
        restore_s.append(time.perf_counter() - opened)
        read_s.append(opened - start)
        reopened.close()
    tracer.phase = "check"
    identical = restored.items_seen == engine.items_seen and all(
        np.array_equal(
            np.asarray(engine.snapshot(method).query_many(queries)),
            np.asarray(restored.snapshot(method).query_many(queries)),
        )
        for method in METHODS
    )
    store.close()

    errors = {
        method: float(np.mean([w[method] for w in windows]))
        for method in METHODS + ("zero",)
    }
    batch_ms = np.asarray(batch_s) * 1e3
    speed_scale = speed.scale()
    named = {
        "setup_s": statistics.median(setup_s) * setup_speed.scale(),
        "batch_p50_ms": float(np.percentile(batch_ms, 50)) * speed_scale,
        "batch_p90_ms": float(np.percentile(batch_ms, 90)) * speed_scale,
        "ingest_items_per_s": items / ingest_s / speed_scale,
        "speed_scale": speed_scale,
        "restore_s": statistics.median(restore_s),
        "failed_frac": 0.0,
        "err_aware": errors["aware"],
        "err_obliv": errors["obliv"],
        "err_qdigest": errors["qdigest"],
        "peak_rss_mb": common.peak_rss_mb(),
    }
    layer, shares = {}, {}
    if tracer.enabled:
        spans = tracer.by_name(["ingest"])
        layer.update(layers.build_metrics(spans))
        rebuilt = sum(
            entry["work"] for name, entry in spans.items()
            if name.startswith("build.")
        )
        layer["build.rebuilt_per_ingested"] = rebuilt / items
        process = spans.get("stream.process")
        if process:
            layer["stream.process_us_per_item"] = (
                1e6 * process["self_s"] / items
            )
        layer["stream.seal_ms"] = 1e3 * layers.histogram_mean(
            [delta], "stream.pane_seal_seconds"
        )
        layer["stream.fold_ms"] = layers.mean_ms(
            tracer.by_name(["check"]).get("stream.fold")
        )
        update = spans.get("core.varopt_update")
        if update and update["work"]:
            layer["core.varopt_update_us_per_item"] = (
                1e6 * update["self_s"] / update["work"]
            )
        for op in STORE_OPS:
            entry = spans.get("durable." + op)
            layer[f"durable.{op}_ms"] = layers.mean_ms(entry)
            layer[f"durable.{op}_calls"] = entry["calls"] if entry else 0
        layer["durable.checkpoint_ms"] = layers.mean_ms(
            spans.get("durable.checkpoint")
        )
        layer["durable.write_amp"] = written / batch_bytes
        layer["durable.log_bytes_per_item"] = log_bytes / items
        layer["durable.restore_read_ms"] = 1e3 * statistics.median(read_s)
        layer.update(layers.codec_metrics(spans, "encode"))
        layer.update(
            layers.codec_metrics(tracer.by_name(["restore"]), "decode")
        )
        covered = tracer.top_level_seconds("ingest")
        layer["ingest.uncovered_frac"] = (
            max(0.0, ingest_s - covered) / ingest_s
        )
        shares = {
            name: entry["self_s"] / ingest_s for name, entry in spans.items()
        }
    return {
        "named": named,
        "layers": layer,
        "shares": shares,
        "checks": {
            "restored_bit_identical": identical,
            "errors_within_ceiling": all(
                errors[m] <= ERR_CEILING[m] for m in METHODS
            ),
        },
        "attempted": len(batches),
        "failed": 0,
        "context": {
            "store_fs": common.filesystem_of(workdir),
            "flush_policy": common.FLUSH_POLICY,
        },
        "info": {
            "setup_s": setup_s,
            "setup_probe_ms": (1e3 * np.asarray(setup_speed.samples)).tolist(),
            "restore_s": restore_s,
            "restore_read_s": read_s,
            "batch_ms": batch_ms.tolist(),
            "probe_ms": (1e3 * np.asarray(speed.samples)).tolist(),
            "wall_items_per_s": items / ingest_s,
            "window_errors": windows,
            "err_if_zero": errors["zero"],
            "bytes_written": written,
            "batch_bytes": batch_bytes,
            "log_bytes_at_crash": log_bytes,
        },
    }
