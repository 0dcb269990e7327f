"""Scalar vs batched query serving: the PR-5 vectorized answer paths.

A 10k-query battery of random boxes over a one-million-key 1-D domain
is answered by every summary family twice: through the historical
per-query loop (``query_multi`` per query) and through the vectorized
``query_many`` kernels (query-plan compilation, batched dyadic
decomposition, stacked basis sums, prefix-sum leaf folds, sort-based
sweeps).  Both the cold first battery (plan + sort orders paid) and the
steady-state repeat battery (everything cached) are recorded in
``BENCH_query.json``; sketch/wavelet/qdigest must clear 5x even cold.

The interval-store section times the ``qdigest-stream`` production
path -- the level-fused interval table scan -- on *fresh* batteries
(B=256 and B=10k, new Box objects every call, so no memo replays a
compiled plan) and checks its answers against the scalar loop.

The last section times serving the same battery one query at a time
(:meth:`~repro.distributed.frontend.QueryFrontend.query`) versus
micro-batched: submitted to a
:class:`~repro.distributed.frontend.ServingFrontend` built with
``start=False`` and flushed every ``batch_size=256`` queries, one
kernel call per flush per method.

Smoke mode shrinks the domain and battery and repeats the timed loops
so the records clear the regression gate's noise floor.
"""

import time

import numpy as np

from conftest import SMOKE, emit, emit_json, perf_assert
from repro.core.types import Dataset
from repro.distributed.frontend import QueryFrontend, ServingFrontend
from repro.engine.registry import build
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box

DOMAIN_BITS = 20  # one-million-key domain
N_ITEMS = 300_000
N_QUERIES = 10_000
SIZE = 3000
BATCH = 256
#: Timed-loop repetitions and best-of trials (see bench_build_kernels).
REPEATS = 1
TRIALS = 2
if SMOKE:
    DOMAIN_BITS = 12
    N_ITEMS = 3000
    N_QUERIES = 400
    SIZE = 200
    BATCH = 64
    REPEATS = 10
    TRIALS = 3

#: Fresh-battery interval-store timings: (battery size, batteries) --
#: a serving batch and a bulk battery (what ``query_many_now`` and large
#: frontend batches send).
FRESH = ((256, 40), (10_000, 2))
if SMOKE:
    FRESH = ((64, 20), (400, 2))

#: Families with a dedicated batched kernel; the 5x gate on the cold
#: battery applies to the first three.
GATED = ("sketch", "wavelet", "qdigest")
METHODS = GATED + ("qdigest-stream", "obliv", "exact")


def _battery(rng, size, n_queries):
    """Random single-box interval queries, up to ~10% of the domain."""
    lows = rng.integers(0, size, n_queries)
    spans = rng.integers(0, max(1, size // 10), n_queries)
    highs = np.minimum(lows + spans, size - 1)
    return [Box((int(lo),), (int(hi),)) for lo, hi in zip(lows, highs)]


def _timed_fresh(fn, batteries, trials=TRIALS):
    """Best-of-``trials`` wall time of ``fn`` over every battery.

    Each trial answers copies of the batteries made of new Box
    objects, so no per-summary plan memo can replay a compiled plan.
    """
    best = float("inf")
    for _trial in range(trials):
        fresh = [[Box(box.lows, box.highs) for box in battery]
                 for battery in batteries]
        start = time.perf_counter()
        out = [fn(battery) for battery in fresh]
        best = min(best, time.perf_counter() - start)
    return out, best


def _timed(fn):
    """Best-of-``TRIALS`` wall time of ``REPEATS`` calls; returns last."""
    best = float("inf")
    for _trial in range(TRIALS):
        start = time.perf_counter()
        for _repeat in range(REPEATS):
            out = fn()
        best = min(best, time.perf_counter() - start)
    return out, best


class _StaticSupplier:
    """Frozen summaries behind the snapshot-supplier protocol."""

    def __init__(self, summaries):
        self._summaries = summaries
        self.version = 0

    def snapshot(self, method):
        return self._summaries[method]

    @property
    def methods(self):
        return list(self._summaries)


def test_query_serving(results_dir):
    rng = np.random.default_rng(7)
    size = 1 << DOMAIN_BITS
    domain = ProductDomain([OrderedDomain(size)])
    coords = rng.integers(0, size, size=(N_ITEMS, 1))
    weights = 1.0 + rng.pareto(1.2, N_ITEMS)
    data = Dataset(coords=coords, weights=weights, domain=domain)
    queries = _battery(rng, size, N_QUERIES)
    tol = 1e-9 * float(weights.sum())

    summaries = {
        method: build(method, data, SIZE, np.random.default_rng(17))
        for method in METHODS
    }
    records = []
    lines = ["== Query serving: scalar loop vs batched kernels =="]
    for method in METHODS:
        summary = summaries[method]
        ref, scalar_time = _timed(
            lambda: [summary.query_multi(query) for query in queries]
        )
        # Cold battery: pays the query-plan compile and (where the
        # family uses one) the sort orders / stacked structures.
        start = time.perf_counter()
        batched = summary.query_many(queries)
        cold = time.perf_counter() - start
        # Steady state: plan, sort orders and stacked leaves cached.
        batched_repeat, repeat_time = _timed(
            lambda: summary.query_many(queries)
        )
        np.testing.assert_allclose(batched, ref, rtol=1e-9, atol=tol)
        np.testing.assert_allclose(batched_repeat, ref, rtol=1e-9, atol=tol)
        speedup = scalar_time / max(cold * REPEATS, 1e-12)
        records.append({
            "kernel": f"serve:{method}",
            "n": N_QUERIES,
            "summary_size": SIZE,
            "domain_bits": DOMAIN_BITS,
            "repeats": REPEATS,
            "wall_time_s": repeat_time,
            "uncached_wall_time_s": cold,
            "wall_time_scalar_s": scalar_time,
            "speedup": speedup,
            "throughput_per_s": REPEATS * N_QUERIES / max(repeat_time, 1e-12),
        })
        lines.append(
            f"serve:{method:<15} scalar {scalar_time:8.3f}s -> "
            f"cold {cold:7.4f}s, repeat {repeat_time:7.4f}s  "
            f"({speedup:.1f}x cold)"
        )
        if method in GATED:
            perf_assert(
                speedup >= 5.0,
                f"{method} batched speedup {speedup:.1f}x < 5x",
            )

    # ------------------------------------------------------------------
    # Interval-table scan on fresh batteries, at a serving batch and a
    # bulk battery.  Every timed call gets Box objects no plan memo has
    # seen.
    # ------------------------------------------------------------------
    lines.append("== Interval store, fresh batteries ==")
    digest = summaries["qdigest-stream"]
    for batch, calls in FRESH:
        batteries = [_battery(rng, size, batch) for _ in range(calls)]
        answers, seconds = _timed_fresh(digest.query_many, batteries)
        for battery, got in zip(batteries, answers):
            ref = [digest.query(box) for box in battery[:20]]
            np.testing.assert_allclose(got[:20], ref, rtol=1e-9, atol=tol)
        records.append({
            "kernel": "fresh:qdigest-stream:flat",
            "n": batch * calls,
            "batch_size": batch,
            "summary_size": SIZE,
            "domain_bits": DOMAIN_BITS,
            "wall_time_s": seconds,
            "throughput_per_s": batch * calls / max(seconds, 1e-12),
        })
        lines.append(
            f"fresh B={batch:<6} scan {seconds:7.4f}s "
            f"({batch * calls / max(seconds, 1e-12):,.0f} q/s)  "
            f"[{calls} batteries]"
        )

    lines.append("== Frontend: one-at-a-time vs micro-batched ==")
    for method in GATED:
        supplier = _StaticSupplier(summaries)
        one_at_a_time = QueryFrontend(supplier)
        ref, off_time = _timed(
            lambda: [one_at_a_time.query(method, query) for query in queries]
        )
        micro = ServingFrontend(supplier, batch_size=BATCH,
                                max_pending=BATCH, tenant_share=1.0,
                                start=False)

        def _serve_batched():
            handles = []
            for start in range(0, len(queries), BATCH):
                handles += [micro.submit(method, query)
                            for query in queries[start:start + BATCH]]
                micro.flush()
            return [handle.result(0) for handle in handles]

        batched, on_time = _timed(_serve_batched)
        micro.close()
        np.testing.assert_allclose(batched, ref, rtol=1e-9, atol=tol)
        speedup = off_time / max(on_time, 1e-12)
        records.append({
            "kernel": f"frontend:{method}",
            "n": N_QUERIES,
            "batch_size": BATCH,
            "domain_bits": DOMAIN_BITS,
            "repeats": REPEATS,
            "wall_time_s": on_time,
            "wall_time_scalar_s": off_time,
            "speedup": speedup,
            "throughput_per_s": REPEATS * N_QUERIES / max(on_time, 1e-12),
        })
        lines.append(
            f"frontend:{method:<12} off {off_time:8.3f}s -> "
            f"on(B={BATCH}) {on_time:7.4f}s  ({speedup:.1f}x)"
        )

    emit(results_dir, "query_serving", "\n".join(lines))
    emit_json(results_dir, "query", records)
