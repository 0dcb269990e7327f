"""Traced-run instrumentation shared by the workloads, and its readout.

Each wrapper goes where the caller looks the name up: module globals
for functions called through their module (``codec.to_bytes``) or
imported by name (``fold_snapshots``, ``compile_query_plan``), class
attributes for methods (``SampleSummary.query_many``,
``StreamVarOpt.update``), the method registry for the build functions
the stream engine resolves by name, and instance attributes for one
object's methods (a frontend's ``_answer``, a fleet's ``_collect``).
An untraced run installs nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict

import common

#: Registered methods whose builds and rebuilds get spans.
BUILT_METHODS = ("aware", "qdigest", "qdigest-stream", "sketch")


def _n_queries(args, _result):
    return len(args[1])


def install(tracer):
    """Wrap the calls into every shared layer (no-op when untraced)."""
    if not tracer.enabled:
        return
    from repro.core.estimator import SampleSummary
    from repro.core.varopt import StreamVarOpt
    from repro.distributed import codec, coordinator, frontend
    from repro.engine import registry
    from repro.stream import engine as stream_engine
    from repro.structures import ranges
    from repro.summaries.qdigest import QDigestSummary
    from repro.summaries.qdigest_stream import StreamingQDigest
    from repro.summaries.sketch import DyadicSketchSummary

    labels = tracer.labels

    def kernel(args):
        return "kernel." + labels.get(id(args[0]), "other")

    for cls in (SampleSummary, StreamingQDigest, DyadicSketchSummary,
                QDigestSummary):
        tracer.patch(cls, "query_many", kernel, work=_n_queries)
    plan = ranges.QueryPlan
    tracer.patch(ranges.SortOrderCache, "fetch_plan", "ranges.compile",
                 work=_n_queries, skip=lambda a: isinstance(a[1], plan))
    for module in (ranges, frontend, stream_engine, coordinator):
        tracer.patch(module, "compile_query_plan", "ranges.compile",
                     work=lambda a, r: len(r),
                     skip=lambda a: isinstance(a[0], plan))
    tracer.patch(codec, "to_bytes", "codec.encode", work=lambda a, r: len(r))
    tracer.patch(codec, "from_bytes", "codec.decode",
                 work=lambda a, r: len(a[0]))
    tracer.patch(codec, "encode_message", "codec.message_encode",
                 work=lambda a, r: len(r))
    tracer.patch(codec, "decode_message", "codec.message_decode",
                 work=lambda a, r: len(a[0]))
    tracer.patch(stream_engine, "fold_snapshots", "stream.fold")
    tracer.patch(coordinator, "fold_snapshots", "engine.fold")
    tracer.patch(StreamVarOpt, "update", "core.varopt_update",
                 work=lambda a, r: len(a[2]))
    for name in BUILT_METHODS:
        registry.register(
            name,
            tracer.wrap("build." + name, registry.get(name),
                        work=lambda a, r: a[0].n),
            overwrite=True,
            mergeable=registry.is_mergeable(name),
        )


class ServingProbe:
    """Traced wrappers on one live :class:`ServingFrontend`.

    ``submit`` is tallied and stamps each query; the per-supplier
    ``query_many`` the flusher calls reads those stamps as the kernel
    call that answers them starts -- the queue wait -- and ``_answer``
    (one flush) becomes a span.
    """

    def __init__(self, tracer, service):
        self.waits = defaultdict(list)
        if not tracer.enabled:
            return
        stamps = {}
        submit = service.submit

        def stamped_submit(method, query, tenant="default"):
            stamps[id(query)] = time.perf_counter()
            return submit(method, query, tenant)

        service.submit = tracer.tally("frontend.submit", stamped_submit)
        tracer.patch(service, "_answer", "frontend.flush",
                     work=lambda a, r: len(a[0]))
        waits = self.waits
        for backend in service._backends:
            def stamped_answer(method, queries, _answer=backend.query_many):
                start = time.perf_counter()
                bucket = waits[tracer.phase]
                for query in queries:
                    at = stamps.pop(id(query), None)
                    if at is not None:
                        bucket.append(start - at)
                return _answer(method, queries)

            backend.query_many = stamped_answer


def trace_fleet(tracer, ingest):
    """A span on each real collect of a fleet; a tally on its transport."""
    if not tracer.enabled:
        return

    def cached(_args):
        cache = ingest._snap_cache
        return cache is not None and cache[0] == ingest.version

    tracer.patch(ingest, "_collect", "fleet.collect", skip=cached)
    transport = ingest._coordinator.transport
    transport.send = tracer.tally("transport.send", transport.send,
                                  work=lambda a, r: len(a[1]))


# ----------------------------------------------------------------------
# Readout
# ----------------------------------------------------------------------

def mean_ms(entry):
    """Mean span duration in ms (0 for a layer that never ran)."""
    if not entry or not entry["calls"]:
        return 0.0
    return 1e3 * entry["total_s"] / entry["calls"]


#: Counters of ``ServingFrontend.stats()`` the per-layer metrics read.
FRONTEND_COUNTS = ("flushes_size", "flushes_deadline", "hits", "misses")


def frontend_counts(before, after, into=None):
    """What a frontend's ``stats()`` counted between two readings.

    ``into`` (a previous result) accumulates over several intervals.
    """
    into = dict.fromkeys(FRONTEND_COUNTS, 0) if into is None else into
    for key in FRONTEND_COUNTS:
        into[key] += after[key] - before[key]
    return into


def serving_metrics(tracer, probe, phase, wall_s, counts):
    """Frontend, plan-compile and kernel metrics of one serving phase.

    ``counts`` is :func:`frontend_counts` over the phase.
    """
    spans = tracer.by_name([phase])
    out = {}
    calls, seconds, _work = tracer.tally_of("frontend.submit", [phase])
    if calls:
        out["frontend.submit_us"] = 1e6 * seconds / calls
    if probe.waits.get(phase):
        out["frontend.queue_wait_ms"] = 1e3 * common.quantile(
            probe.waits[phase], 0.5
        )
    kernels = {
        name[len("kernel."):]: entry
        for name, entry in spans.items() if name.startswith("kernel.")
    }
    calls = sum(entry["calls"] for entry in kernels.values())
    answered = sum(entry["work"] for entry in kernels.values())
    if calls:
        out["frontend.queries_per_call"] = answered / calls
    for method, entry in kernels.items():
        out[f"kernel.{method}.us_per_call"] = (
            1e6 * entry["self_s"] / entry["calls"]
        )
        if entry["work"]:
            out[f"kernel.{method}.us_per_query"] = (
                1e6 * entry["self_s"] / entry["work"]
            )
    flush = spans.get("frontend.flush")
    if flush:
        out["frontend.self_us"] = 1e6 * flush["self_s"] / max(flush["work"], 1)
        out["frontend.busy_frac"] = flush["total_s"] / wall_s
    compiled = spans.get("ranges.compile")
    if compiled and answered:
        out["ranges.compile_us"] = 1e6 * compiled["total_s"] / answered
    flushes = counts["flushes_size"] + counts["flushes_deadline"]
    if flushes:
        out["frontend.deadline_flush_frac"] = (
            counts["flushes_deadline"] / flushes
        )
    lookups = counts["hits"] + counts["misses"]
    if lookups:
        out["frontend.cache_hit_ratio"] = counts["hits"] / lookups
    return out


def build_metrics(spans):
    """Mean duration and count of the ``aware``/``qdigest`` builds."""
    out = {}
    for name in ("aware", "qdigest"):
        entry = spans.get("build." + name)
        if entry:
            out[f"build.{name}_ms"] = mean_ms(entry)
            out[f"build.{name}_calls"] = entry["calls"]
    return out


def codec_metrics(spans, direction):
    """Mean ms and bytes per ``to_bytes`` (encode) or ``from_bytes`` call."""
    out = {}
    entry = spans.get("codec." + direction)
    if entry:
        out[f"codec.{direction}_ms"] = mean_ms(entry)
        out[f"codec.{direction}_bytes"] = entry["work"] / entry["calls"]
    message = spans.get("codec.message_" + direction)
    if message:
        out[f"codec.message_{direction}_ms"] = mean_ms(message)
    return out


def registry_snapshot(tracer):
    """The program's own metrics registry now (``None`` when untraced)."""
    if not tracer.enabled:
        return None
    from repro import obs

    return obs.get_registry().snapshot()


def registry_delta(before, tracer):
    """What the program's registry recorded since ``before`` was taken."""
    if not tracer.enabled:
        return {}
    from repro import obs

    return obs.MetricsRegistry.delta(obs.get_registry().snapshot(), before)


def counter_total(delta, name):
    """Sum of a counter over all its label sets (e.g. ``wire.*``)."""
    return sum(
        value for key, value in delta.items()
        if (key == name or key.startswith(name + "{"))
        and isinstance(value, (int, float))
    )


def histogram_mean(deltas, name):
    """Mean observation of one registry histogram over registry deltas."""
    hists = [d[name] for d in deltas if isinstance(d.get(name), dict)]
    count = sum(hist.get("count", 0) for hist in hists)
    if not count:
        return 0.0
    return sum(hist["total"] for hist in hists) / count


def histogram_p50(delta, name):
    """The registry's own p50 (a power-of-two bucket edge) of a histogram."""
    hist = delta.get(name)
    if isinstance(hist, dict):
        return float(hist.get("p50", 0.0))
    return 0.0
