"""Query-serving frontend over a (possibly live) summary supplier.

:class:`QueryFrontend` sits between query clients and any *snapshot
supplier* -- a :class:`~repro.distributed.coordinator.DistributedIngest`
fleet, a local :class:`~repro.stream.engine.StreamEngine`, or anything
else exposing ``snapshot(method)`` plus a version counter.  It answers
large range-query batteries against the latest folded state while
ingest continues, with two layers of reuse:

* an **LRU snapshot cache** keyed by ``(method, supplier version)``:
  while the supplier's state is unchanged, repeated batteries skip the
  fold/collect entirely (for a distributed supplier that is the whole
  worker round trip);
* **sort-order reuse** through the cached summary objects themselves:
  a retained :class:`~repro.core.estimator.SampleSummary` /
  :class:`~repro.summaries.exact.ExactSummary` carries its own
  :class:`~repro.structures.ranges.SortOrderCache`, so consecutive
  batteries at one version pay the per-axis sorts once and then only
  the sweep (the PR-2 caching machinery, now serving distributed
  state).

Keeping a handful of slots (not one) matters under interleaved
multi-method serving: method A's battery must not evict method B's
freshly sorted snapshot.

Snapshots arriving from a distributed supplier are decoded zero-copy
(``codec.from_bytes(..., copy=False)`` in
:meth:`~repro.distributed.coordinator.DistributedIngest._collect`):
the cached summary's raw arrays are read-only views into the received
frame, which is safe here precisely because the cache never mutates a
snapshot -- it only queries it.

**Micro-batching.**  Query traffic usually arrives one query at a
time; answering each alone forfeits the batched kernels.
:class:`ServingFrontend` is the one micro-batcher: callers
:meth:`~ServingFrontend.submit` single queries (from many threads, or
one caller with ``start=False`` and explicit
:meth:`~ServingFrontend.flush` calls), and each flush answers every
method's accumulated battery with *one* ``query_many`` kernel call per
supplier -- amortizing the query-plan compilation, the snapshot lookup
and the cached sort orders across the batch.  It answers through one
:class:`QueryFrontend` per supplier.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.structures.ranges import Box, QueryPlan, compile_query_plan


def _batch_bucket(size: int) -> int:
    """Power-of-two ceiling bucket for the batch-size histogram."""
    return 1 << max(0, size - 1).bit_length() if size > 1 else size


#: A :class:`QueryFrontend`'s snapshot-cache and battery counters.
_CACHE_FIELDS = ("hits", "misses", "evictions", "batteries", "queries")

#: A :class:`ServingFrontend`'s submission, shed and flush counters.
_SERVING_FIELDS = (
    "submitted", "flushes", "shed", "flushes_size", "flushes_deadline",
    "flushes_forced", "shed_tenant",
)


def _supplier_version(supplier) -> int:
    """The supplier's state version (stream engines count batches)."""
    version = getattr(supplier, "version", None)
    if version is None:
        version = getattr(supplier, "batches_seen", None)
    if version is None:
        raise TypeError(
            f"{type(supplier).__name__} exposes neither .version nor "
            ".batches_seen; cannot key the snapshot cache"
        )
    return int(version)


class QueryFrontend:
    """LRU-cached range-query serving over a snapshot supplier.

    Parameters
    ----------
    supplier:
        Object with ``snapshot(method) -> summary`` and a ``version``
        (or ``batches_seen``) counter that changes whenever ingested
        state changes.
    slots:
        Maximum ``(method, version)`` snapshot entries retained.
    """

    def __init__(self, supplier, *, slots: int = 8):
        if slots < 1:
            raise ValueError("need at least one cache slot")
        self._supplier = supplier
        self._slots = int(slots)
        self._cache: "OrderedDict[tuple, object]" = OrderedDict()
        #: Cache effectiveness, ``serving.<field>{scope=frontend}``.
        self.stats = _obs.CounterSet(
            "serving", _CACHE_FIELDS, {"scope": "frontend"}
        )
        _obs.get_registry().attach(self.stats)

    # ------------------------------------------------------------------
    # Snapshot cache
    # ------------------------------------------------------------------
    def snapshot(self, method: str):
        """The latest folded summary for ``method`` (cached per version)."""
        key = (method, _supplier_version(self._supplier))
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.inc("hits")
            return cached
        self.stats.inc("misses")
        summary = self._supplier.snapshot(method)
        self._cache[key] = summary
        while len(self._cache) > self._slots:
            self._cache.popitem(last=False)
            self.stats.inc("evictions")
        return summary

    def invalidate(self) -> None:
        """Drop every cached snapshot (e.g. after supplier reset)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, method: str, query) -> float:
        """One range-sum estimate against the latest state."""
        snap = self.snapshot(method)
        self.stats.inc("queries")
        if isinstance(query, Box):
            return float(snap.query(query))
        return float(snap.query_multi(query))

    def query_many(self, method: str, queries: Sequence) -> List[float]:
        """A whole battery against the latest state (vectorized path).

        Accepts a raw battery or a pre-compiled
        :class:`~repro.structures.ranges.QueryPlan` (the plan passes
        straight through to the summary's kernel).
        """
        queries = (
            queries if isinstance(queries, QueryPlan) else list(queries)
        )
        snap = self.snapshot(method)
        self.stats.inc("batteries")
        self.stats.inc("queries", len(queries))
        return list(snap.query_many(queries))

    def serve(
        self,
        queries: Sequence,
        methods: Optional[Sequence[str]] = None,
    ) -> Dict[str, List[float]]:
        """One battery across several methods (dashboard shape).

        The battery is compiled into one shared query plan, so the
        bounds stacking is paid once rather than once per method.
        """
        plan = compile_query_plan(queries)
        if methods is None:
            methods = getattr(self._supplier, "methods", None)
            if methods is None:
                raise ValueError(
                    "supplier does not list methods; pass methods="
                )
        return {
            method: self.query_many(method, plan) for method in methods
        }


# ----------------------------------------------------------------------
# Long-lived serving: concurrent submit, deadline flush, admission control
# ----------------------------------------------------------------------

class OverloadError(RuntimeError):
    """Admission control refused a submission (queue full / tenant cap)."""


class ServiceClosedError(RuntimeError):
    """A :class:`ServingFrontend` refused a submission after :meth:`close`.

    Unlike :class:`OverloadError` this is not a signal to back off and
    retry: a closed service answers nothing new, ever.
    """


class ServedAnswer:
    """One query submitted to a :class:`ServingFrontend`, and its answer.

    The handle is also the queue entry: it carries the ``method``, the
    ``query`` and the ``enqueued_at`` stamp (``time.monotonic()``) the
    flusher reads.  The flusher resolves it; ``done_at`` is stamped the
    moment the answer becomes visible to :meth:`result`, so open-loop
    harnesses can measure service completion without depending on when
    the waiting thread gets scheduled again.

    A resolved answer is read without a lock.  The flusher stores the
    value (or the error) *before* ``done_at``, and under the GIL
    attribute stores become visible to other threads in program order
    (the same guarantee ``Gauge.set`` and ``Counter.value`` rely on), so
    a reader that sees ``done_at`` set also sees the outcome.  Only an
    unresolved answer waits, on the frontend's completion condition.
    """

    __slots__ = (
        "_cond", "_value", "_error", "method", "query", "tenant",
        "enqueued_at", "done_at",
    )

    def __init__(self, cond: threading.Condition, method: str, query,
                 tenant: str, enqueued_at: float):
        self._cond = cond
        self._value: Optional[float] = None
        self._error: Optional[BaseException] = None
        self.method = method
        self.query = query
        self.tenant = tenant
        self.enqueued_at = enqueued_at
        self.done_at: Optional[float] = None

    def done(self) -> bool:
        return self.done_at is not None

    def result(self, timeout: Optional[float] = None) -> float:
        """Wait for the flushed answer (re-raises its kernel error)."""
        if self.done_at is None:
            with self._cond:
                if not self._cond.wait_for(self.done, timeout):
                    raise TimeoutError(
                        f"no answer within {timeout}s "
                        f"(tenant {self.tenant!r})"
                    )
        if self._error is not None:
            raise self._error
        return self._value


class ServingFrontend:
    """Long-lived multi-tenant serving over one or more snapshot suppliers.

    The *service* shape: many tenants call :meth:`submit` concurrently
    from their own threads, and one background flusher thread answers
    the accumulated cross-tenant batch with the batched kernels -- so
    the amortization of a whole battery becomes reachable under live
    one-query-at-a-time traffic.  With ``start=False`` there is no
    flusher thread and the caller drains the queue with :meth:`flush`.

    * **Cross-supplier fan-out**: with several suppliers the battery
      is compiled once, answered by every supplier's cached snapshot,
      and the per-query estimates are summed -- valid because the
      range-sum estimators are additive over disjoint data slices
      (each supplier covering its own shard of the stream).
    * **Deadline + size flush**: a batch is flushed when it reaches
      ``batch_size`` queries or when its oldest entry has waited
      ``max_delay_ms`` -- bounding tail latency under light load while
      still amortizing under heavy load.
    * **Admission control**: at most ``max_pending`` queries may be
      queued; beyond that :meth:`submit` sheds with
      :class:`OverloadError` (open-loop overload must shed, not build
      an unbounded queue).  Per-tenant fairness caps any one tenant at
      ``max(1, int(max_pending * tenant_share))`` pending queries, so
      a flooding tenant sheds while the others keep being admitted.
    * **Close is final**: after :meth:`close` a :meth:`submit` raises
      :class:`ServiceClosedError`; queries queued before it are still
      answered by its final flush.

    One plain lock guards the queue, the admission counts, the
    batch-size histogram and the serving counters (``submitted``,
    ``shed``, the flush reasons: a :class:`repro.obs.CounterSet` built
    on that lock); the flusher's condition is built on it too, so a
    submission takes exactly one lock.  The queue holds the
    :class:`ServedAnswer` handles themselves.

    Each supplier gets its own inner :class:`QueryFrontend` (snapshot
    LRU + sort-order reuse); only the flusher thread touches them, so
    they need no locking of their own.

    **Per-tenant accounting** is always on: every tenant gets a
    served/shed counter pair and a power-of-two log-bucket latency
    histogram (enqueue -> answer-resolved, measured from the stamps
    the open-loop harness already relies on), surfaced through
    ``stats()["tenants"]`` and -- labelled ``tenant=...`` -- through
    any attached metrics registry.  Latencies are recorded once per
    flush via the histogram's vectorized ``observe_many``, so the
    accounting costs per-batch, not per-query, work.

    ``registry`` (default: the process-global one) additionally gates
    the pay-for-what-you-use extras: flush spans, the
    ``serving.batch_size`` histogram and the per-method kernel time
    ``serving.kernel_seconds{method=...}`` (each method group's backend
    calls in one flush).  The ``serving.queue_depth`` gauge is read from
    the queue when a snapshot is taken, so ``submit`` pays nothing for
    it.
    """

    def __init__(
        self,
        suppliers,
        *,
        slots: int = 8,
        batch_size: int = 64,
        max_delay_ms: float = 2.0,
        max_pending: int = 1024,
        tenant_share: float = 0.25,
        start: bool = True,
        registry=None,
    ):
        if not isinstance(suppliers, (list, tuple)):
            suppliers = [suppliers]
        if not suppliers:
            raise ValueError("need at least one supplier")
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if not (0.0 < tenant_share <= 1.0):
            raise ValueError("tenant_share must be in (0, 1]")
        self._backends = [
            QueryFrontend(supplier, slots=slots) for supplier in suppliers
        ]
        self._batch_size = int(batch_size)
        self._max_delay = float(max_delay_ms) / 1000.0
        self._max_pending = int(max_pending)
        self._tenant_cap = max(1, int(max_pending * tenant_share))
        #: The queue lock, and the flusher's condition on it.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Shared completion condition every unresolved ServedAnswer
        #: waits on.
        self._completion = threading.Condition(threading.Lock())
        self._queue: List[ServedAnswer] = []
        self._tenant_pending: Dict[str, int] = {}
        self._flush_lock = threading.Lock()
        # The serving counters share the queue lock: a bump made while
        # holding it must be inc_held (inc would deadlock).
        self._stats = _obs.CounterSet(
            "serving", _SERVING_FIELDS, {"scope": "serving"},
            lock=self._lock,
        )
        self._submitted = self._stats.counter("submitted")
        #: Flushes per power-of-two size bucket (bucket 8 counts
        #: flushes of 5..8 queries); guarded by self._lock.
        self._batch_hist: Dict[int, int] = {}
        self._max_queue_depth = 0  # guarded by self._lock
        # Always-on per-tenant accounting (keys appear on first use;
        # mutation under self._lock for the counters created in
        # submit(), the histograms are internally locked).
        self._tenant_served: Dict[str, _obs.Counter] = {}
        self._tenant_shed: Dict[str, _obs.Counter] = {}
        self._tenant_lat: Dict[str, _obs.Histogram] = {}
        self._obs = registry if registry is not None else _obs.get_registry()
        self._obs.attach(self._stats)
        self._obs.attach(self)
        self._obs_enabled = self._obs.enabled
        self._batch_size_hist = self._obs.histogram("serving.batch_size")
        self._running = False
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    def _tenant(self, store: Dict, tenant: str, factory):
        """The tenant's metric, created under ``self._lock`` on first use."""
        metric = store.get(tenant)
        if metric is None:
            metric = store[tenant] = factory()
        return metric

    def obs_metrics(self):
        """Registry collector hook: queue depth and per-tenant metrics."""
        depth = _obs.Gauge()
        with self._lock:
            served = list(self._tenant_served.items())
            shed = list(self._tenant_shed.items())
            lat = list(self._tenant_lat.items())
            depth.set(len(self._queue))
        yield "serving.queue_depth", {}, depth
        for tenant, counter in served:
            yield "serving.tenant_served", {"tenant": tenant}, counter
        for tenant, counter in shed:
            yield "serving.tenant_shed", {"tenant": tenant}, counter
        for tenant, hist in lat:
            yield "serving.tenant_latency_seconds", {"tenant": tenant}, hist

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the flusher thread (idempotent; not after :meth:`close`)."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("serving frontend is closed")
            if self._running:
                return
            self._running = True
        self._thread = threading.Thread(
            target=self._run, name="repro-serving-flusher", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Refuse new queries, then stop the flusher once every query
        queued so far is answered (idempotent)."""
        with self._lock:
            self._closed = True
            stopping = self._running
            self._running = False
            self._cond.notify_all()
        if stopping and self._thread is not None:
            self._thread.join(timeout=10.0)
        self.flush()  # resolve anything still queued (start=False path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, method: str, query, tenant: str = "default") -> ServedAnswer:
        """Enqueue one query; returns a :class:`ServedAnswer` immediately.

        Raises :class:`OverloadError` when the pending queue is full or
        the tenant is over its fair share -- callers are expected to
        back off (shed-on-overload keeps the served tail bounded) --
        and :class:`ServiceClosedError` once the service is closed.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "serving frontend is closed; no query is accepted"
                )
            queue = self._queue
            depth = len(queue)
            if depth >= self._max_pending:
                self._stats.inc_held("shed")
                self._tenant(self._tenant_shed, tenant, _obs.Counter).inc()
                raise OverloadError(
                    f"pending queue full ({self._max_pending} queries)"
                )
            pending = self._tenant_pending.get(tenant, 0)
            if pending >= self._tenant_cap:
                self._stats.inc_held("shed")
                self._stats.inc_held("shed_tenant")
                self._tenant(self._tenant_shed, tenant, _obs.Counter).inc()
                raise OverloadError(
                    f"tenant {tenant!r} over its fair share "
                    f"({self._tenant_cap} pending queries)"
                )
            answer = ServedAnswer(
                self._completion, method, query, tenant, time.monotonic()
            )
            queue.append(answer)
            self._tenant_pending[tenant] = pending + 1
            self._submitted.inc_held()
            depth += 1
            if depth > self._max_queue_depth:
                self._max_queue_depth = depth
            # Wake the flusher when the batch fills -- and on the first
            # entry, so an idle flusher starts this batch's max_delay
            # deadline clock instead of sleeping through it.  Only the
            # flusher waits on this condition, and it re-reads the
            # queue before every wait, so deeper queues need no wake.
            if depth == 1 or depth == self._batch_size:
                self._cond.notify()
        return answer

    def pending(self) -> int:
        """Queries queued but not yet flushed."""
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Flushing (flusher thread, or the caller when not started)
    # ------------------------------------------------------------------
    def _take_locked(self, limit: Optional[int]) -> List[ServedAnswer]:
        """Cut up to ``limit`` queued answers and free their tenants'
        admission slots."""
        queue = self._queue
        if limit is None or limit >= len(queue):
            batch, self._queue = queue, []
        else:
            batch = queue[:limit]
            del queue[:limit]
        pending = self._tenant_pending
        for entry in batch:
            left = pending[entry.tenant] - 1
            if left:
                pending[entry.tenant] = left
            else:
                del pending[entry.tenant]
        return batch

    def flush(self) -> int:
        """Drain and answer everything queued right now (synchronous).

        The manual path for ``start=False`` frontends (tests, offline
        replay); counted separately from size/deadline flushes.
        """
        with self._lock:
            batch = self._take_locked(None)
            if not batch:
                return 0
            self._stats.inc_held("flushes_forced")
        self._answer(batch)
        return len(batch)

    def _run(self) -> None:
        cond = self._cond
        while True:
            with cond:
                queue = self._queue
                if len(queue) >= self._batch_size:
                    reason = "flushes_size"
                    batch = self._take_locked(self._batch_size)
                elif queue:
                    wait = (
                        queue[0].enqueued_at + self._max_delay
                        - time.monotonic()
                    )
                    if wait > 0 and self._running:
                        cond.wait(wait)
                        continue
                    reason = "flushes_deadline"
                    batch = self._take_locked(None)
                elif self._running:
                    cond.wait(0.05)
                    continue
                else:
                    break
                self._stats.inc_held(reason)
            self._answer(batch)

    def _answer(self, batch: List[ServedAnswer]) -> None:
        """Answer one drained batch: one kernel call per method per backend."""
        with self._flush_lock:
            span = (
                self._obs.span("serving.flush", size=len(batch))
                if self._obs_enabled else _obs.NULL_SPAN
            )
            with span:
                bucket = _batch_bucket(len(batch))
                with self._lock:
                    self._stats.inc_held("flushes")
                    self._batch_hist[bucket] = (
                        self._batch_hist.get(bucket, 0) + 1
                    )
                if self._obs_enabled:
                    self._batch_size_hist.observe(len(batch))
                groups: Dict[str, List[ServedAnswer]] = {}
                for entry in batch:
                    group = groups.get(entry.method)
                    if group is None:
                        groups[entry.method] = [entry]
                    else:
                        group.append(entry)
                for method, entries in groups.items():
                    queries = [entry.query for entry in entries]
                    try:
                        # Compile the battery once; every backend's
                        # kernel consumes the same plan (the serve()
                        # trick, across suppliers instead of methods).
                        plan = (
                            compile_query_plan(queries)
                            if len(self._backends) > 1 else queries
                        )
                        if self._obs_enabled:
                            started = time.perf_counter()
                            per_backend = self._query_backends(method, plan)
                            self._obs.histogram(
                                "serving.kernel_seconds", method=method
                            ).observe(time.perf_counter() - started)
                        else:
                            per_backend = self._query_backends(method, plan)
                    except Exception:
                        self._answer_singly(method, entries)
                        continue
                    self._publish(entries, (
                        per_backend[0] if len(per_backend) == 1
                        else [sum(values) for values in zip(*per_backend)]
                    ))
            self._account_latency(batch)

    def _query_backends(self, method: str, queries) -> List[List[float]]:
        """Every backend's answers to one method's battery."""
        return [
            backend.query_many(method, queries) for backend in self._backends
        ]

    def _publish(self, entries: List[ServedAnswer], values) -> None:
        """Make a group's answers visible under one lock with one
        notify; ``done_at`` is that instant, stored after each value."""
        with self._completion:
            done_at = time.monotonic()
            for answer, value in zip(entries, map(float, values)):
                answer._value = value
                answer.done_at = done_at
            self._completion.notify_all()

    def _account_latency(self, batch: List[ServedAnswer]) -> None:
        """Record enqueue->resolve latency per tenant, one pass per flush.

        ``done_at`` is stamped by :meth:`_publish`, so every
        entry of a flushed batch carries its service time already;
        grouping by tenant and using ``observe_many`` keeps the cost
        per-batch.  Served counts track *answered* queries (failed
        ones still count: the tenant occupied a slot either way).
        """
        by_tenant: Dict[str, List[float]] = {}
        for entry in batch:
            latency = entry.done_at - entry.enqueued_at
            latencies = by_tenant.get(entry.tenant)
            if latencies is None:
                by_tenant[entry.tenant] = [latency]
            else:
                latencies.append(latency)
        with self._lock:
            metrics = [
                (self._tenant(self._tenant_served, tenant, _obs.Counter),
                 self._tenant(self._tenant_lat, tenant, _obs.Histogram),
                 latencies)
                for tenant, latencies in by_tenant.items()
            ]
        for served, hist, latencies in metrics:
            served.inc(len(latencies))
            hist.observe_many(latencies)

    def _answer_singly(self, method: str,
                       entries: List[ServedAnswer]) -> None:
        """Fault isolation: pin errors on the queries that actually fail."""
        outcomes: List[object] = []
        for entry in entries:
            try:
                outcomes.append(sum(
                    float(backend.query_many(method, [entry.query])[0])
                    for backend in self._backends
                ))
            except Exception as error:
                outcomes.append(error)
        with self._completion:
            done_at = time.monotonic()
            for answer, outcome in zip(entries, outcomes):
                if isinstance(outcome, BaseException):
                    answer._error = outcome
                else:
                    answer._value = outcome
                answer.done_at = done_at
            self._completion.notify_all()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Merged serving + per-backend cache telemetry, one flat dict.

        Cache counters (hits/misses/evictions) are summed across the
        per-supplier frontends; serving counters (submitted, sheds,
        flush reasons, batch histogram, queue depths) come from this
        service's own lifetime.  ``tenants`` maps every tenant seen so
        far to its served/shed counts, shed ratio and latency
        percentiles (power-of-two bucket upper bounds, milliseconds)
        -- the per-tenant accounting the admission-control counters
        only hinted at.
        """
        caches = [backend.stats.snapshot() for backend in self._backends]
        merged: Dict[str, object] = {
            key: sum(cache[key] for cache in caches) for key in _CACHE_FIELDS
        }
        with self._lock:
            merged.update(self._stats.snapshot())
            merged.update({
                "batch_hist": dict(sorted(self._batch_hist.items())),
                "suppliers": len(self._backends),
                "max_queue_depth": self._max_queue_depth,
                "pending": len(self._queue),
            })
            tenants = sorted(
                set(self._tenant_served) | set(self._tenant_shed)
            )
            served = {
                t: c.value for t, c in self._tenant_served.items()
            }
            shed = {t: c.value for t, c in self._tenant_shed.items()}
            hists = dict(self._tenant_lat)
        per_tenant: Dict[str, Dict[str, object]] = {}
        for tenant in tenants:
            n_served = served.get(tenant, 0)
            n_shed = shed.get(tenant, 0)
            entry: Dict[str, object] = {
                "served": n_served,
                "shed": n_shed,
                "shed_ratio": (
                    n_shed / (n_served + n_shed)
                    if (n_served + n_shed) else 0.0
                ),
            }
            hist = hists.get(tenant)
            if hist is not None and hist.count:
                entry.update({
                    "p50_ms": hist.percentile(0.50) * 1e3,
                    "p95_ms": hist.percentile(0.95) * 1e3,
                    "p99_ms": hist.percentile(0.99) * 1e3,
                    "mean_ms": hist.total / hist.count * 1e3,
                })
            per_tenant[tenant] = entry
        merged["tenants"] = per_tenant
        return merged
