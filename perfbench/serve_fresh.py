"""``serve-fresh``: the read path alone.

Frozen 1-D summaries of ``aware``, ``qdigest-stream`` and ``sketch``
(2^20-key ordered domain, 300k Pareto-weighted items, s=3000) sit
behind one :class:`~repro.distributed.frontend.ServingFrontend` (batch
256, 2 ms deadline, flusher thread on).  Sixteen Zipf(1.2) tenants send
intervals of at most 10% of the domain; no interval repeats and methods
round-robin, so every battery a kernel sees is fresh and the one-slot
scan memo never hits.  Ingest, the log and the fleet do nothing.

Phases: set up ``SETUPS`` times (summaries built, frontend started);
then ``ROUNDS`` rounds, each serving the fixed reference rate for a
while (open loop: latency) and then answering a fixed number of queries
with ``OUTSTANDING`` always in flight (closed loop: the saturated answer
rate, which carries the gated throughput); then climb a fixed absolute
rate ladder for the highest rate that meets the SLO (``sustained_qps``).
``query_p50_ms``, ``query_p99_ms`` and ``saturated_qps`` are the median
round's and ``setup_s`` the median setup's, all scaled by one
:class:`common.SpeedProbe` ticked around every setup and between the
rounds' phases, which cancels the host's load; the wall-clock figures
are kept in the raw record.  ``sustained_qps`` is a wall-clock rate.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import common
import layers

METHODS = ("aware", "qdigest-stream", "sketch")
DOMAIN = 1 << 20
N_ITEMS = 300_000
SIZE = 3000
BATCH = 256
MAX_DELAY_MS = 2.0
MAX_PENDING = 4096
TENANT_SHARE = 0.5
MAX_FRACTION = 0.1
#: Offered rate (q/s) of the latency phase: fixed, below the knee.
REF_RATE = 8000.0
#: Many short rounds, so the speed probe ticked between their phases
#: samples the host's load often enough to cancel it.
ROUNDS = 21
#: Queries in flight in the saturation phase, and how many the rounds
#: answer in all (at ``scale`` 1).  Each round's rate is taken over its
#: middle 80% of answers, leaving out the ramp-up and the drain.
OUTSTANDING = 1024
SAT_QUERIES = 112_000
#: The sustained-rate ladder: fixed absolute rungs 2^(1/16) apart,
#: 4k .. 128k q/s, far above today's knee so a 2x gain stays visible.
#: The climb starts at rung ``START_RUNG`` (16k q/s) and moves ``STEP``
#: rungs at a time before bisecting the last bracket.
LADDER = tuple(4000.0 * 2.0 ** (k / 16) for k in range(81))
START_RUNG = 32
STEP = 4
#: A rung holds when nothing is shed or fails and both the p99 latency
#: and the drain of the backlog after the last arrival stay within this.
SLO_MS = 50.0
SETUPS = 3
CHECK_QUERIES = 2000
#: An ``err_*`` above its ceiling fails the run: about three times the
#: largest seed-to-seed value measured, and far below the error of a
#: kernel that answers 0 or twice the truth (``err_if_zero``, ~0.05).
ERR_CEILING = {"aware": 0.0005, "qdigest-stream": 0.008, "sketch": 0.03}
TIMEOUT_S = 30.0
#: Shares of ``--seconds``: the reference phase (all rounds), and one
#: ladder probe.
REF_SHARE = 0.49
PROBE_SHARE = 0.04


class FrozenSupplier:
    """Frozen summaries behind the snapshot-supplier protocol."""

    def __init__(self, summaries):
        self._summaries = summaries
        self.version = 0

    def snapshot(self, method):
        return self._summaries[method]

    @property
    def methods(self):
        return list(self._summaries)


class IntervalPool:
    """Random intervals of at most 10% of the domain; none drawn twice."""

    def __init__(self, rng):
        self._rng = rng
        self._seen = np.zeros(0, dtype=np.int64)

    def take(self, n):
        lows, highs = [], []
        while n > 0:
            m = n + n // 8 + 16
            lo = self._rng.integers(0, DOMAIN, m)
            span = self._rng.integers(0, int(DOMAIN * MAX_FRACTION), m)
            hi = np.minimum(lo + span, DOMAIN - 1)
            key = lo * DOMAIN + hi
            _, first = np.unique(key, return_index=True)
            first.sort()
            first = first[~np.isin(key[first], self._seen, assume_unique=True)]
            first = first[:n]
            self._seen = np.union1d(self._seen, key[first])
            lows.append(lo[first])
            highs.append(hi[first])
            n -= first.size
        return np.concatenate(lows), np.concatenate(highs)


def _boxes(lows, highs):
    from repro.structures.ranges import Box

    return [Box((lo,), (hi,)) for lo, hi in zip(lows.tolist(), highs.tolist())]


def _setup(data, seed, rep):
    """Build the three summaries and start the frontend: one ``setup_s``."""
    from repro.distributed.frontend import ServingFrontend
    from repro.engine import registry

    start = time.perf_counter()
    summaries = {
        method: registry.build(
            method, data, SIZE, np.random.default_rng([seed, 23, rep, i])
        )
        for i, method in enumerate(METHODS)
    }
    service = ServingFrontend(
        FrozenSupplier(summaries),
        batch_size=BATCH,
        max_delay_ms=MAX_DELAY_MS,
        max_pending=MAX_PENDING,
        tenant_share=TENANT_SHARE,
    )
    return time.perf_counter() - start, summaries, service


def _errors(summaries, check, exact, total):
    """Each method's error on the check battery."""
    return {
        method: common.mean_error(
            summaries[method].query_many(check), exact, total
        )
        for method in METHODS
    }


def _mismatched(summaries, methods, queries, answers, total):
    """Frontend answers that differ from the summary's own ``query_many``."""
    methods = np.asarray(methods)
    bad = 0
    for method in METHODS:
        idx = np.flatnonzero((methods == method) & ~np.isnan(answers))
        if idx.size:
            direct = np.asarray(summaries[method].query_many(
                [queries[i] for i in idx.tolist()]
            ))
            bad += int(np.count_nonzero(~np.isclose(
                answers[idx], direct, rtol=1e-9, atol=1e-9 * total
            )))
    return bad


def _traffic(pool, rng, n):
    """``n`` fresh queries, round-robin methods, Zipf tenants."""
    queries = _boxes(*pool.take(n))
    methods = [METHODS[i % len(METHODS)] for i in range(n)]
    return queries, methods, common.zipf_tenants(rng, n)


def _serve(service, summaries, pool, rng, rate, seconds, total, tracer, phase):
    """Offer ``rate`` q/s for ``seconds``, then check every answer."""
    from repro.distributed.frontend import OverloadError

    offsets = common.poisson_offsets(rng, rate, seconds)
    n = offsets.size
    queries, methods, tenants = _traffic(pool, rng, n)
    common.settle_heap()
    tracer.phase = phase
    start = time.monotonic() + 0.002
    due = (start + offsets).tolist()
    handles, sent = common.replay(
        service.submit, methods, queries, tenants, due, (OverloadError,)
    )
    latency, answers, failed = common.resolve(handles, due, TIMEOUT_S)
    wall = time.monotonic() - start
    tracer.phase = "check"
    done = [h.done_at for h in handles if h is not None and h.done_at]
    last = max(done) if done else float("inf")
    return {
        "rate": rate,
        "offered": n,
        "shed": sum(h is None for h in handles),
        "failed": failed,
        "latency_ms": latency * 1e3,
        "lag_ms": (sent - np.asarray(due)) * 1e3,
        "drain_ms": (last - due[-1]) * 1e3,
        "span_s": last - start,
        "wall_s": wall,
        "mismatched": _mismatched(summaries, methods, queries, answers, total),
    }


def _saturate(service, summaries, pool, rng, n, total, tracer):
    """Answer ``n`` queries with ``OUTSTANDING`` always in flight.

    Closed loop: the generator submits query ``i`` once query
    ``i - OUTSTANDING`` is answered, so the frontend never idles and
    nothing is shed.  The rate counts answers between the 10th and the
    90th percentile answer, not per time bin, so it stays continuous
    although a flush answers up to ``BATCH`` queries at one instant.
    """
    from repro.distributed.frontend import OverloadError

    queries, methods, tenants = _traffic(pool, rng, n)
    common.settle_heap()
    tracer.phase = "saturate"
    handles = [None] * n
    answers = np.full(n, np.nan)
    failed = 0

    def settle(i):
        nonlocal failed
        if handles[i] is None:
            return
        try:
            answers[i] = handles[i].result(TIMEOUT_S)
        except Exception:  # a kernel error or a timeout: counted
            failed += 1

    for i in range(n):
        if i >= OUTSTANDING:
            settle(i - OUTSTANDING)
        try:
            handles[i] = service.submit(methods[i], queries[i], tenants[i])
        except OverloadError:
            failed += 1
    for i in range(max(0, n - OUTSTANDING), n):
        settle(i)
    tracer.phase = "check"
    done = np.sort([h.done_at for h in handles if h is not None and h.done_at])
    lo, hi = int(0.1 * done.size), int(0.9 * done.size) - 1
    return {
        "qps": (hi - lo) / (done[hi] - done[lo]),
        "offered": n,
        "failed": failed,
        "mismatched": _mismatched(summaries, methods, queries, answers, total),
    }


def _holds(result):
    return (
        result["shed"] == 0
        and result["failed"] == 0
        and common.quantile(result["latency_ms"], 0.99) <= SLO_MS
        and result["drain_ms"] <= SLO_MS
    )


def _climb(serve):
    """Climb the fixed ladder to the highest rung that holds.

    From ``START_RUNG`` it moves ``STEP`` rungs up while rungs hold (down
    while they fail), then bisects the last bracket rung by rung.  A
    rung fails only when two tries both fail, so one stall cannot throw
    away the rungs above it.  Returns the holding run at the top rung
    (``None`` when none held) and every probe made.
    """
    probes = []

    def holds(k):
        for _attempt in range(2):
            probes.append(serve(LADDER[k]))
            if _holds(probes[-1]):
                return probes[-1]
        return None

    best, lo, hi, k = None, -1, len(LADDER), START_RUNG
    while lo < k < hi and hi - lo > STEP:
        held = holds(k)
        if held:
            best, lo, k = held, k, k + STEP
        else:
            hi, k = k, k - STEP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        held = holds(mid)
        if held:
            best, lo = held, mid
        else:
            hi = mid
    return best, probes


def run(seed, seconds, scale, tracer, workdir):
    from repro.core.types import Dataset
    from repro.datagen.distributions import pareto_weights
    from repro.structures.product import line_domain

    rng = np.random.default_rng([seed, 1])
    n_items = max(3000, int(N_ITEMS * scale))
    data = Dataset(
        coords=rng.integers(0, DOMAIN, size=(n_items, 1)),
        weights=pareto_weights(n_items, 1.2, rng=rng),
        domain=line_domain(DOMAIN),
    )
    total = float(data.weights.sum())
    prefix = np.concatenate(([0.0], np.cumsum(np.bincount(
        data.coords[:, 0], weights=data.weights, minlength=DOMAIN
    ))))
    pool = IntervalPool(np.random.default_rng([seed, 2]))
    traffic = np.random.default_rng([seed, 3])
    check_lo, check_hi = pool.take(CHECK_QUERIES)
    check = _boxes(check_lo, check_hi)
    exact = prefix[check_hi + 1] - prefix[check_lo]

    layers.install(tracer)
    # Each set of summaries is checked and dropped before the next is
    # built, so every build reuses freed memory instead of faulting in
    # fresh pages.
    setup_s, set_errors, service = [], [], None
    speed = common.SpeedProbe()
    for rep in range(SETUPS):
        if service is not None:
            service.close()
            tracer.phase = "check"
            set_errors.append(_errors(summaries, check, exact, total))
            del summaries, service
        common.settle_heap()
        tracer.phase = "setup"
        speed.tick()
        elapsed, summaries, service = _setup(data, seed, rep)
        setup_s.append(elapsed)
        speed.tick()
    for method, summary in summaries.items():
        tracer.labels[id(summary)] = method
    probe = layers.ServingProbe(tracer, service)

    refs, sats, counts, deltas = [], [], None, []
    for _round in range(ROUNDS):
        stats0, reg0 = service.stats(), layers.registry_snapshot(tracer)
        speed.tick()
        refs.append(_serve(service, summaries, pool, traffic, REF_RATE,
                           REF_SHARE * seconds / ROUNDS, total, tracer, "ref"))
        speed.tick()
        counts = layers.frontend_counts(stats0, service.stats(), counts)
        deltas.append(layers.registry_delta(reg0, tracer))
        sats.append(_saturate(
            service, summaries, pool, traffic,
            max(4 * OUTSTANDING, int(SAT_QUERIES * scale / ROUNDS)),
            total, tracer,
        ))
    speed.tick()
    # Read before the ladder, whose probes hold more queries the higher
    # the machine lets it climb.
    rss_mb = common.peak_rss_mb()
    best, probes = _climb(
        lambda rate: _serve(service, summaries, pool, traffic, rate,
                            PROBE_SHARE * seconds, total, tracer, "ladder")
    )
    service.close()

    tracer.phase = "check"
    set_errors.append(_errors(summaries, check, exact, total))
    errors = {
        method: float(np.mean([e[method] for e in set_errors]))
        for method in METHODS
    }
    served = refs + sats + probes
    mismatched = sum(r["mismatched"] for r in served)
    offered = sum(r["offered"] for r in refs + sats)
    failed = sum(r.get("shed", 0) + r["failed"] for r in refs + sats)
    p50s = [common.quantile(r["latency_ms"], 0.5) for r in refs]
    p99s = [common.quantile(r["latency_ms"], 0.99) for r in refs]
    speed_scale = speed.scale()
    named = {
        "setup_s": statistics.median(setup_s) * speed_scale,
        "query_p50_ms": statistics.median(p50s) * speed_scale,
        "query_p99_ms": statistics.median(p99s) * speed_scale,
        "saturated_qps": (
            statistics.median(s["qps"] for s in sats) / speed_scale
        ),
        "speed_scale": speed_scale,
        # Measured, not the rung's label: answers per second of the
        # holding run at the highest rung, first arrival to last answer.
        "sustained_qps": best["offered"] / best["span_s"] if best else 0.0,
        "failed_frac": failed / offered,
        "err_aware": errors["aware"],
        "err_qdigest": errors["qdigest-stream"],
        "err_sketch": errors["sketch"],
        "peak_rss_mb": rss_mb,
    }
    lag_ms = np.concatenate([r["lag_ms"] for r in refs])
    layer = {}
    if tracer.enabled:
        layer = layers.serving_metrics(
            tracer, probe, "ref", sum(r["wall_s"] for r in refs), counts
        )
        layer["frontend.flush_size"] = layers.histogram_mean(
            deltas, "serving.batch_size"
        )
        layer["datagen.lag_p99_ms"] = common.quantile(lag_ms, 0.99)
        layer.update(layers.build_metrics(tracer.by_name(["setup"])))
    return {
        "named": named,
        "layers": layer,
        "checks": {
            "frontend_equals_direct": mismatched == 0,
            "errors_within_ceiling": all(
                errors[m] <= ERR_CEILING[m] for m in METHODS
            ),
        },
        "attempted": offered,
        "failed": failed,
        "info": {
            "setup_s": setup_s,
            "answers_mismatched": mismatched,
            "err_if_zero": common.mean_error(np.zeros_like(exact), exact, total),
            "round_p50_ms": p50s,
            "round_p99_ms": p99s,
            "round_saturated_qps": [s["qps"] for s in sats],
            "probe_ms": (1e3 * np.asarray(speed.samples)).tolist(),
            "sustained_rung_qps": best["rate"] if best else 0.0,
            "ref_lag_p99_ms": common.quantile(lag_ms, 0.99),
            "ladder": [
                {
                    "rate": p["rate"],
                    "held": _holds(p),
                    "p99_ms": common.quantile(p["latency_ms"], 0.99),
                    "shed": p["shed"],
                    "drain_ms": p["drain_ms"],
                    "lag_p99_ms": common.quantile(p["lag_ms"], 0.99),
                }
                for p in probes
            ],
        },
    }
