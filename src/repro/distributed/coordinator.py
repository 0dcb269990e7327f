"""Coordinator: schedule shard builds / pane ingest across N workers.

The coordinator owns a transport, ships control messages to workers,
and folds whatever summaries come back with the engine's one fold
(:func:`repro.engine.builder.fold_snapshots`) -- the same statistical
machinery as the in-process engine.

Two uses sit on top of the generic :class:`Coordinator`:

* batch: :func:`repro.engine.builder.build_sharded` with
  ``coordinator=`` builds one summary per shard on the workers
  (:meth:`Coordinator.build_shards`) and folds them, bit-identical to
  the serial build given the same seed (tested per method).  Failed or
  crashed worker tasks are retried and reassigned to surviving
  workers.
* :class:`DistributedIngest` -- streaming: each worker runs one
  :class:`~repro.stream.engine.StreamEngine` per slice of the
  micro-batches the coordinator routes to it (slices are
  shard-equivalent), and ships serialized snapshots upstream on
  demand; the coordinator folds them into the latest queryable state.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import obs as _obs
from repro.distributed import codec
from repro.distributed.dispatch import (
    AsyncDispatcher,
    Backpressure,
    ReplyFuture,
)
from repro.distributed.transport import (
    BaseTransport,
    TransportError,
    make_transport,
)
from repro.engine.builder import default_workers, fold_snapshots
from repro.stream.incremental import derive_seed
from repro.stream.types import MicroBatch
from repro.structures.ranges import compile_query_plan


class DistributedError(RuntimeError):
    """A distributed operation could not be completed."""


#: Message types the coordinator fires and forgets.  Everything else
#: expects a reply, which is what shared-memory transports key segment
#: reclamation on.
_NO_REPLY_TYPES = frozenset({"ingest", "shutdown", "exit"})


class Coordinator:
    """Generic message scheduler over a transport's worker fleet.

    Since the async serving tier, every coordinator runs its transport
    behind an :class:`~repro.distributed.dispatch.AsyncDispatcher` --
    a selector thread with bounded per-worker request queues and
    explicit backpressure -- and the synchronous API below
    (:meth:`send` / :meth:`gather` / :meth:`run_tasks`) is a thin
    wrapper that enqueues requests and waits on their futures.  The
    observable behavior (retry semantics, error surfacing, and the
    bit-exact build results) is unchanged; what the dispatch layer
    adds is overlap: snapshot collection, ingest hand-off and query
    fan-out from different threads now interleave on the wire instead
    of serializing on one blocking ``send``.

    Parameters
    ----------
    transport:
        A transport name (``"inprocess"``, ``"multiprocessing"``/
        ``"mp"``, ``"shared-memory"``/``"shm"``) or a pre-built
        :class:`~repro.distributed.transport.BaseTransport` instance
        (not yet started).
    num_workers:
        Fleet size (at least 1); defaults to the available parallelism
        (capped like the in-process engine).
    max_retries:
        How many times one task may be re-dispatched after a worker
        error or death before the operation fails.
    retry_backoff / retry_backoff_cap:
        Re-dispatch delay policy: the ``k``-th retry of a task waits
        ``U(0, min(cap, backoff * 2**(k-1)))`` seconds -- exponential
        backoff with full jitter, so a burst of failures spreads out
        instead of hammering the surviving workers in lockstep.
        Retries and their drawn delays are counted in the
        ``coordinator.task_retries`` / ``coordinator.
        retry_backoff_seconds`` obs metrics.  ``retry_backoff=0``
        restores immediate re-dispatch.
    poll_interval:
        Transport poll granularity in seconds.
    timeout:
        Overall deadline for one :meth:`run_tasks` / :meth:`gather`
        call.
    max_inflight / max_pending:
        Per-worker dispatch windows (see
        :class:`~repro.distributed.dispatch.AsyncDispatcher`).
    """

    def __init__(
        self,
        transport: Union[str, BaseTransport] = "inprocess",
        num_workers: Optional[int] = None,
        *,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_cap: float = 2.0,
        poll_interval: float = 0.02,
        timeout: float = 600.0,
        max_inflight: int = 2,
        max_pending: int = 128,
        registry=None,
    ):
        self._transport = make_transport(transport)
        self._num_workers = (
            default_workers() if num_workers is None else int(num_workers)
        )
        self._max_retries = int(max_retries)
        self._retry_backoff = float(retry_backoff)
        self._retry_backoff_cap = float(retry_backoff_cap)
        self._poll_interval = float(poll_interval)
        self._timeout = float(timeout)
        self._obs = registry if registry is not None else _obs.get_registry()
        self._retry_ctr = self._obs.counter("coordinator.task_retries")
        self._backoff_hist = self._obs.histogram(
            "coordinator.retry_backoff_seconds"
        )
        self._transport.start(self._num_workers)
        self._dispatcher = AsyncDispatcher(
            self._transport,
            max_inflight=max_inflight,
            max_pending=max_pending,
            poll_interval=min(self._poll_interval, 0.005),
            registry=self._obs,
        )
        #: Futures of :meth:`send` calls awaiting :meth:`gather`.
        self._replies: List[ReplyFuture] = []
        self._replies_lock = threading.Lock()
        self._closed = False
        #: Total task re-dispatches observed (provenance/monitoring).
        self.retries = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def transport(self) -> BaseTransport:
        return self._transport

    @property
    def dispatcher(self) -> AsyncDispatcher:
        """The non-blocking dispatch layer (async submission surface)."""
        return self._dispatcher

    @property
    def num_workers(self) -> int:
        return self._num_workers

    def alive_workers(self) -> List[int]:
        """Ids of workers still reachable (the dispatcher's view)."""
        return self._dispatcher.alive_workers()

    def retry_delay(self, attempt: int) -> float:
        """Draw the backoff before retry ``attempt`` (1-based).

        Exponential backoff with full jitter; recorded in the
        ``coordinator.retry_backoff_seconds`` histogram.
        """
        if self._retry_backoff <= 0:
            return 0.0
        ceiling = min(
            self._retry_backoff_cap,
            self._retry_backoff * (2.0 ** (max(int(attempt), 1) - 1)),
        )
        delay = random.uniform(0.0, ceiling)
        if self._obs.enabled:
            self._backoff_hist.observe(delay)
        return delay

    def close(self) -> None:
        """Shut the fleet down (idempotent)."""
        if self._closed:
            return
        for worker_id in self.alive_workers():
            try:
                self.send(worker_id, {"type": "shutdown"})
            except TransportError:
                pass
        self._dispatcher.stop()
        self._transport.stop()
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def submit(
        self,
        worker_id: int,
        message: dict,
        *,
        block: bool = True,
        timeout: Optional[float] = 60.0,
    ) -> Optional[ReplyFuture]:
        """Non-blocking send: enqueue one message, get its future.

        The async-path primitive.  Reply-expecting messages on a
        zero-copy (shared-memory) transport skip array compression:
        their frames never cross the pipe, and the worker decodes raw
        arrays as views into the segment, so raw is strictly cheaper
        than compressed there.  Fire-and-forget messages return
        ``None``.  ``block=False`` sheds with
        :class:`~repro.distributed.dispatch.Backpressure` instead of
        waiting for queue space.
        """
        reply_expected = message.get("type") not in _NO_REPLY_TYPES
        compress = not (reply_expected and self._transport.zero_copy)
        return self._dispatcher.submit(
            worker_id,
            codec.encode_message(message, compress=compress),
            reply_expected=reply_expected,
            block=block,
            timeout=timeout,
        )

    def send(self, worker_id: int, message: dict) -> None:
        """Encode and ship one message to one worker (sync wrapper).

        Reply-expecting sends park their future in the coordinator's
        reply pool, where :meth:`gather` harvests it -- the historical
        send-then-gather call pattern, now non-blocking underneath.
        """
        future = self.submit(worker_id, message)
        if future is not None:
            with self._replies_lock:
                self._replies.append(future)

    def gather(
        self,
        expected: Union[int, Callable[[], int]],
        *,
        match: Optional[Callable[[dict], bool]] = None,
        timeout: Optional[float] = None,
    ) -> List[dict]:
        """Collect ``expected`` matching replies from the fleet.

        Non-matching replies are discarded.  ``expected`` may be a
        callable re-evaluated every poll round, so callers that can
        tolerate loss (snapshot collection) shrink the target as
        workers die instead of blocking until the deadline.  Replies
        of requests whose worker died are dropped (the shrinking
        target is what accounts for them).
        """
        target = expected if callable(expected) else (lambda: expected)
        deadline = time.monotonic() + (timeout or self._timeout)
        replies: List[dict] = []
        while len(replies) < target():
            if time.monotonic() > deadline:
                raise DistributedError(
                    f"timed out with {len(replies)}/{target()} replies"
                )
            with self._replies_lock:
                pool = list(self._replies)
            progressed = False
            for future in pool:
                if not future.done():
                    continue
                with self._replies_lock:
                    try:
                        self._replies.remove(future)
                    except ValueError:  # another gather raced it away
                        continue
                progressed = True
                if future.exception() is not None:
                    continue  # worker died; the target shrinks instead
                message = future.result()
                if message.get("type") == "error":
                    # Protocol-level worker errors (bad frame, version
                    # mismatch) fail the operation loudly, not by
                    # timeout.
                    raise DistributedError(
                        f"worker error: {message.get('error')}"
                    )
                if match is None or match(message):
                    replies.append(message)
            if progressed:
                continue
            if not self.alive_workers():
                raise DistributedError(
                    "all workers died while gathering replies"
                )
            self._dispatcher.wait_any(pool, timeout=self._poll_interval)
        return replies

    # ------------------------------------------------------------------
    # Task scheduling with retry/reassignment
    # ------------------------------------------------------------------
    def run_tasks(
        self,
        tasks: Sequence[dict],
        *,
        wire: Optional[Dict[str, int]] = None,
    ) -> List[dict]:
        """Run every task to completion; returns replies in task order.

        Each task dict is shipped with an injected ``task_id`` and must
        produce a ``result`` reply carrying it back.  A worker error
        (``ok=False``) or death re-queues the task -- preferring a
        *different* worker, since the idle pool is rotated -- until
        ``max_retries`` re-dispatches are spent.

        ``wire``, when given, accumulates this call's exact wire share
        (``frames_sent``/``bytes_sent``/``bytes_received``/
        ``shm_bytes``) summed from the per-request futures.  Unlike
        before/after snapshots of the transport's shared counters, the
        sums stay correct when other operations are on the wire
        concurrently.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        with self._obs.span("coordinator.run_tasks", tasks=len(tasks)):
            return self._run_tasks_inner(tasks, wire)

    def _run_tasks_inner(
        self,
        tasks: List[dict],
        wire: Optional[Dict[str, int]],
    ) -> List[dict]:
        pending = deque(range(len(tasks)))
        results: List[Optional[dict]] = [None] * len(tasks)
        attempts = [0] * len(tasks)
        #: task index -> (worker id, reply future)
        inflight: Dict[int, tuple] = {}
        idle = deque(self.alive_workers())
        remaining = len(tasks)
        deadline = time.monotonic() + self._timeout

        def account(future: ReplyFuture) -> None:
            if wire is None:
                return
            if future.bytes_sent or future.shm_bytes:
                wire["frames_sent"] = wire.get("frames_sent", 0) + 1
            wire["bytes_sent"] = (
                wire.get("bytes_sent", 0) + future.bytes_sent
            )
            wire["bytes_received"] = (
                wire.get("bytes_received", 0) + future.bytes_received
            )
            wire["shm_bytes"] = (
                wire.get("shm_bytes", 0) + future.shm_bytes
            )

        #: task index -> earliest re-dispatch time (backoff + jitter).
        eligible_at: Dict[int, float] = {}

        def requeue(index: int, why: str) -> None:
            if attempts[index] > self._max_retries:
                raise DistributedError(
                    f"task {index} failed after "
                    f"{attempts[index]} attempts: {why}"
                )
            self.retries += 1
            if self._obs.enabled:
                self._retry_ctr.inc()
            eligible_at[index] = (
                time.monotonic() + self.retry_delay(attempts[index])
            )
            pending.append(index)

        while remaining:
            if time.monotonic() > deadline:
                raise DistributedError(
                    f"timed out with {remaining} tasks outstanding"
                )
            alive = set(self.alive_workers())
            idle = deque(
                worker_id for worker_id in idle if worker_id in alive
            )
            if not inflight and not idle and pending:
                raise DistributedError(
                    f"no workers left with {remaining} tasks outstanding"
                )
            # Dispatch (retried tasks wait out their backoff first).
            now = time.monotonic()
            deferred: List[int] = []
            while pending and idle:
                index = pending.popleft()
                if eligible_at.get(index, 0.0) > now:
                    deferred.append(index)
                    continue
                worker_id = idle.popleft()
                attempts[index] += 1
                try:
                    future = self.submit(
                        worker_id, {**tasks[index], "task_id": index}
                    )
                except TransportError as exc:
                    requeue(index, str(exc))
                    continue
                inflight[index] = (worker_id, future)
            pending.extendleft(reversed(deferred))
            # Collect: each task's reply resolves its own future, so
            # worker death (the future fails with TransportError) and
            # stale duplicates need no task-id bookkeeping here.
            progressed = False
            for index, (worker_id, future) in list(inflight.items()):
                if not future.done():
                    continue
                progressed = True
                del inflight[index]
                account(future)
                error = future.exception()
                if error is not None:
                    # Worker died mid-task; it does not rejoin the
                    # idle pool, so the retry lands elsewhere.
                    requeue(index, str(error))
                    continue
                message = future.result()
                idle.append(worker_id)
                if message.get("type") == "error":
                    requeue(
                        index,
                        f"worker error: {message.get('error')}",
                    )
                elif message.get("type") != "result":
                    requeue(
                        index,
                        f"unexpected reply {message.get('type')!r}",
                    )
                elif message.get("ok"):
                    results[index] = message
                    remaining -= 1
                else:
                    requeue(index, message.get("error", "worker error"))
            if not progressed and remaining:
                if inflight:
                    self._dispatcher.wait_any(
                        [future for _w, future in inflight.values()],
                        timeout=self._poll_interval,
                    )
                else:
                    # Everything outstanding is waiting out a backoff:
                    # sleep until the earliest task becomes eligible.
                    now = time.monotonic()
                    soonest = min(
                        (eligible_at.get(i, now) for i in pending),
                        default=now,
                    )
                    time.sleep(
                        min(max(soonest - now, 0.0), self._poll_interval)
                    )
        return [reply for reply in results if reply is not None]

    def build_shards(
        self,
        method: str,
        shards: Sequence,
        size: int,
        seeds: Sequence[int],
        *,
        wire: Optional[Dict[str, int]] = None,
    ) -> List:
        """Build ``method`` on every shard on the fleet, in shard order.

        The fleet path of :func:`repro.engine.builder.build_sharded`:
        one ``build`` task per shard with its seed, run with
        :meth:`run_tasks`' retries and reassignment (``wire`` as
        there).  Workers run the same registry builders as the serial
        path and the codec round trip is bit-exact, so which transport
        carried the bytes cannot matter.
        """
        domain_spec = codec.encode_domain(shards[0].domain)
        tasks = [
            {
                "type": "build",
                "method": method,
                "size": int(size),
                "seed": int(seed),
                "coords": shard.coords,
                "weights": shard.weights,
                "domain": domain_spec,
            }
            for shard, seed in zip(shards, seeds)
        ]
        replies = self.run_tasks(tasks, wire=wire)
        # Reply frames are immutable bytes that live as long as any
        # view of them: decode the shipped summaries zero-copy.
        return [
            codec.from_bytes(reply["summary"], copy=False)
            for reply in replies
        ]


# ----------------------------------------------------------------------
# Streaming: distributed micro-batch ingest
# ----------------------------------------------------------------------

class _Slice:
    """One logical shard of the distributed stream.

    A slice owns its seed (``derive_seed(seed, "worker", sid)``), its
    host worker, and -- under ``recovery="replay"`` -- a bounded replay
    log of the batches routed to it plus the latest checkpointed
    worker state.  Losing the host then loses nothing the slice cannot
    rebuild.
    """

    __slots__ = (
        "sid", "host", "batches", "items", "replay",
        "ckpt_state", "ckpt_items", "ckpt_batches",
    )

    def __init__(self, sid: int, host: int, replay_log: int):
        self.sid = sid
        self.host = host
        self.batches = 0          # batches routed to this slice
        self.items = 0
        self.replay: deque = deque(maxlen=max(1, int(replay_log)))
        self.ckpt_state: Optional[dict] = None
        self.ckpt_items = 0
        self.ckpt_batches = 0     # batches covered by ckpt_state


def _serialized(method):
    """Run a :class:`DistributedIngest` method under the fleet's lock."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


class DistributedIngest:
    """Route a micro-batch stream across workers; fold snapshots on demand.

    The stream is cut into per-worker *slices*: every slice is one
    :class:`~repro.stream.engine.StreamEngine` on its worker, seeded
    ``derive_seed(seed, "worker", sid)`` -- landmark without a
    ``window`` spec (timestamps are then not forwarded), windowed with
    one, so tumbling/sliding panes seal at the same event-time
    boundaries they would in process.  Slices are shard-equivalent and
    fold exactly like panes do.  ``ingest`` messages are
    fire-and-forget for throughput; :meth:`snapshot` is the barrier
    that collects and folds, in slice order, so results are
    reproducible across transports and restarts.

    Crash recovery (``recovery=``):

    * ``"none"`` (default) -- a lost worker loses its slice; estimates
      stay unbiased over the survivors (the historical behavior).
    * ``"replay"`` -- each slice keeps a bounded replay log
      (``replay_log`` batches) on the coordinator; on worker death the
      slice is rebuilt on a surviving worker -- from the last
      checkpointed state plus the logged tail if :meth:`checkpoint`
      ran (``checkpoint_interval`` automates it), else from the full
      log -- with exponential-backoff-plus-jitter retries.  The
      rebuilt slice is bit-identical to one that never moved.

    With a :class:`~repro.durable.CheckpointStore` attached, every
    checkpoint is also persisted (per-slice stream keys under
    ``stream_id``), so slice state survives the coordinator too.

    :meth:`process`, :meth:`checkpoint`, :meth:`snapshot` and
    :meth:`query_many_now` run one at a time under one internal lock,
    so ingest and serving threads can share a fleet: a snapshot is
    always cached under the version whose data it holds.
    """

    def __init__(
        self,
        domain,
        methods: Union[str, Sequence[str]],
        size: int,
        *,
        num_workers: Optional[int] = None,
        transport: Union[str, BaseTransport] = "inprocess",
        seed: int = 0,
        stream_id: str = "live",
        coordinator: Optional[Coordinator] = None,
        window=None,
        recovery: str = "none",
        replay_log: int = 1024,
        checkpoint_interval: Optional[int] = None,
        store=None,
    ):
        if isinstance(methods, str):
            methods = [methods]
        self._methods = list(methods)
        if not self._methods:
            raise ValueError("need at least one method")
        if recovery not in ("none", "replay"):
            raise ValueError(
                f"unknown recovery mode {recovery!r}; have 'none', 'replay'"
            )
        self._domain = domain
        self._size = int(size)
        self._seed = int(seed)
        self._stream_id = stream_id
        self._window = window
        self._recovery = recovery
        self._checkpoint_interval = (
            int(checkpoint_interval) if checkpoint_interval else None
        )
        self._store = store
        self._own_coordinator = coordinator is None
        self._coordinator = coordinator or Coordinator(
            transport, num_workers
        )
        self._obs = self._coordinator._obs
        self._recovered_ctr = self._obs.counter(
            "coordinator.slices_recovered"
        )
        self._replayed_ctr = self._obs.counter(
            "coordinator.batches_replayed"
        )
        # Serializes ingest, checkpoints and snapshots (_serialized).
        self._lock = threading.RLock()
        self._version = 0
        self._items = 0
        self._next_request = 0
        self._round_robin = 0
        self._snap_cache: Optional[tuple] = None  # (version, {m: snaps})
        self._fold_cache: Dict[str, tuple] = {}  # method -> (ver, folded)
        self._domain_spec = codec.encode_domain(domain)
        self._slices = [
            _Slice(sid, worker_id, replay_log)
            for sid, worker_id in enumerate(
                self._coordinator.alive_workers()
            )
        ]
        asked = set()
        for sl in self._slices:
            self._coordinator.send(sl.host, self._open_message(sl))
            asked.add(sl.host)
        # Shrinking target: a worker dying mid-open must not stall the
        # constructor until the deadline (same pattern as _collect).
        opened = self._coordinator.gather(
            lambda: len(
                asked & set(self._coordinator.alive_workers())
            ),
            match=lambda m: (m.get("type") == "opened"
                             and m.get("stream", "").startswith(
                                 self._stream_id)),
        )
        failed = [m for m in opened if not m.get("ok")]
        if failed:
            self.close()
            raise DistributedError(
                f"open_stream failed: {failed[0].get('error')}"
            )

    # ------------------------------------------------------------------
    # Slice plumbing
    # ------------------------------------------------------------------
    def _slice_key(self, sl: _Slice) -> str:
        return f"{self._stream_id}/s{sl.sid}"

    def _window_spec(self) -> Optional[dict]:
        if self._window is None:
            return None
        return {
            "kind": self._window.kind,
            "width": self._window.width,
            "pane": self._window.pane,
        }

    def _open_message(self, sl: _Slice) -> dict:
        return {
            "type": "open_stream",
            "stream": self._slice_key(sl),
            "methods": self._methods,
            "size": self._size,
            "seed": derive_seed(self._seed, "worker", sl.sid),
            "domain": self._domain_spec,
            "window": self._window_spec(),
        }

    def _host_alive(self, sl: _Slice) -> bool:
        return sl.host in self._coordinator.alive_workers()

    def _ensure_host(self, sl: _Slice) -> Optional[int]:
        """A live host for the slice, recovering it under ``"replay"``.

        Returns ``None`` when the slice is unrecoverably lost under
        ``recovery="none"`` (the caller drops it, the historical
        behavior); raises :class:`DistributedError` when recovery runs
        out of options.
        """
        if self._host_alive(sl):
            return sl.host
        if self._recovery == "none":
            return None
        return self._recover_slice(sl)

    def _recover_slice(self, sl: _Slice) -> int:
        """Rebuild a dead slice on a surviving worker (replay mode)."""
        if sl.replay and sl.replay[0]["index"] > sl.ckpt_batches + 1:
            raise DistributedError(
                f"slice {sl.sid} cannot be replayed exactly: the "
                f"replay log starts at batch {sl.replay[0]['index']} "
                f"but the last checkpoint covers only "
                f"{sl.ckpt_batches}; raise replay_log or lower "
                "checkpoint_interval"
            )
        last_error = "no live workers"
        max_attempts = self._coordinator._max_retries + 1
        for attempt in range(1, max_attempts + 1):
            host = self._pick_host(sl)
            if host is None:
                raise DistributedError(
                    f"slice {sl.sid} cannot be recovered: "
                    "no live workers left"
                )
            if attempt > 1:
                time.sleep(self._coordinator.retry_delay(attempt - 1))
            try:
                if sl.ckpt_state is not None:
                    message = {
                        **self._open_message(sl),
                        "type": "restore_stream",
                        "state": sl.ckpt_state,
                        "items": sl.ckpt_items,
                    }
                    expect = "restored"
                else:
                    message = self._open_message(sl)
                    expect = "opened"
                future = self._coordinator.submit(host, message)
                reply = future.result(timeout=60.0)
                if reply.get("type") != expect or not reply.get("ok"):
                    last_error = reply.get("error", f"bad reply {reply!r}")
                    continue
                for entry in sl.replay:
                    if entry["index"] <= sl.ckpt_batches:
                        continue
                    self._coordinator.send(
                        host, self._ingest_message(sl, entry["batch"])
                    )
                    if self._obs.enabled:
                        self._replayed_ctr.inc()
                sl.host = host
                if self._obs.enabled:
                    self._recovered_ctr.inc()
                return host
            except (TransportError, TimeoutError) as exc:
                last_error = str(exc)
        raise DistributedError(
            f"slice {sl.sid} recovery failed after {max_attempts} "
            f"attempts: {last_error}"
        )

    def _pick_host(self, sl: _Slice) -> Optional[int]:
        """The least-loaded live worker (fewest slices hosted)."""
        alive = self._coordinator.alive_workers()
        if not alive:
            return None
        load = {worker_id: 0 for worker_id in alive}
        for other in self._slices:
            if other.host in load and other.sid != sl.sid:
                load[other.host] += 1
        return min(alive, key=lambda worker_id: (load[worker_id],
                                                 worker_id))

    def _ingest_message(self, sl: _Slice, batch: MicroBatch) -> dict:
        message = {
            "type": "ingest",
            "stream": self._slice_key(sl),
            "coords": batch.coords,
            "weights": batch.weights,
        }
        # Landmark slices keep one pane whatever the clock says, so
        # only windowed slices get the timestamps.
        if self._window is not None:
            if batch.timestamp is not None:
                message["timestamp"] = batch.timestamp
            if batch.timestamps is not None:
                message["timestamps"] = batch.timestamps
        return message

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    @_serialized
    def process(self, batch) -> None:
        """Route one micro-batch to the next slice (round-robin).

        Accepts every batch shape :class:`~repro.stream.MicroBatch`
        coerces; keys off the domain raise before routing.  With a
        ``window`` spec the worker-side engines use the timestamps for
        pane assignment, without one the workers keep landmark state.
        """
        batch = MicroBatch.coerce(batch)
        self._domain.validate_coords(batch.coords)
        slices = [
            sl for sl in self._slices
            if self._recovery != "none" or self._host_alive(sl)
        ]
        if not slices:
            raise DistributedError("no live workers to ingest into")
        sl = slices[self._round_robin % len(slices)]
        self._round_robin += 1
        host = self._ensure_host(sl)
        if host is None:  # pragma: no cover - raced death under "none"
            raise DistributedError("no live workers to ingest into")
        try:
            self._coordinator.send(host, self._ingest_message(sl, batch))
        except TransportError:
            if self._recovery == "none":
                raise
            # The host died mid-send: the replay log below keeps the
            # batch for the slice's recovery.
        sl.batches += 1
        sl.items += batch.n
        if self._recovery == "replay":
            sl.replay.append({"index": sl.batches, "batch": batch})
        self._items += batch.n
        self._version += 1
        if (
            self._checkpoint_interval
            and self._version % self._checkpoint_interval == 0
        ):
            self.checkpoint()

    def dispatch(self, source, limit: Optional[int] = None) -> int:
        """Consume micro-batches from any iterable source.

        Returns the number of items dispatched from this call;
        ``limit`` caps the number of batches drawn.
        """
        before = self._items
        for count, batch in enumerate(source, start=1):
            self.process(batch)
            if limit is not None and count >= limit:
                break
        return self._items - before

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    @_serialized
    def checkpoint(self) -> None:
        """Pull every slice's live state up to the coordinator.

        The checkpointed state anchors recovery (only the batches
        after it need replaying, so the bounded replay log suffices
        for arbitrarily long streams) and, when a durable store is
        attached, is persisted under the slice's stream key.
        """
        requests: Dict[int, tuple] = {}
        asked = set()
        for sl in self._slices:
            host = self._ensure_host(sl)
            if host is None:
                continue  # recovery="none": lost slices stay lost
            request_id = self._next_request
            self._next_request += 1
            self._coordinator.send(host, {
                "type": "checkpoint",
                "stream": self._slice_key(sl),
                "request_id": request_id,
            })
            # The state covers everything sent so far: dispatcher
            # queues are per-worker FIFO, so the checkpoint runs after
            # every prior ingest frame.
            requests[request_id] = (sl, sl.batches)
            asked.add(host)
        replies = self._coordinator.gather(
            lambda: len(
                asked & set(self._coordinator.alive_workers())
            ),
            match=lambda m: (m.get("type") == "checkpoint_state"
                             and m.get("request_id") in requests),
        )
        for reply in replies:
            if not reply.get("ok"):
                raise DistributedError(
                    f"checkpoint failed: {reply.get('error')}"
                )
            sl, batches = requests[reply["request_id"]]
            sl.ckpt_state = reply["state"]
            sl.ckpt_items = int(reply.get("items", 0))
            sl.ckpt_batches = batches
            while sl.replay and sl.replay[0]["index"] <= batches:
                sl.replay.popleft()
            if self._store is not None:
                key = self._slice_key(sl)
                seq = self._store.append(key, "state", {
                    "state": sl.ckpt_state,
                    "items": sl.ckpt_items,
                    "batches": sl.ckpt_batches,
                })
                self._store.truncate(key, below_seq=seq)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _collect(self) -> Dict[str, list]:
        """Per-method slice snapshots at the current version (cached).

        Snapshots are gathered per slice and folded in slice order, so
        the result does not depend on reply arrival order.  A host
        dying mid-collect is recovered (mode permitting) and re-asked;
        under ``recovery="none"`` its slice is dropped -- the
        historical lossy behavior.
        """
        if (
            self._snap_cache is not None
            and self._snap_cache[0] == self._version
        ):
            return self._snap_cache[1]
        if not self._coordinator.alive_workers():
            raise DistributedError("no live workers to snapshot")
        by_slice: Dict[int, dict] = {}
        todo = list(self._slices)
        rounds = self._coordinator._max_retries + 2
        for _round in range(rounds):
            requests: Dict[int, _Slice] = {}
            for sl in todo:
                host = self._ensure_host(sl)
                if host is None:
                    continue  # lost under recovery="none"
                request_id = self._next_request
                self._next_request += 1
                requests[request_id] = sl
                self._coordinator.send(host, {
                    "type": "snapshot",
                    "stream": self._slice_key(sl),
                    "request_id": request_id,
                })
            if not requests:
                break
            # Workers that die mid-collect shrink the reply target
            # every poll round instead of stalling until the deadline.
            hosts = {sl.host for sl in requests.values()}
            replies = self._coordinator.gather(
                lambda: len(
                    hosts & set(self._coordinator.alive_workers())
                ),
                match=lambda m: (m.get("type") == "snapshots"
                                 and m.get("request_id") in requests),
            )
            failed = [m for m in replies if not m.get("ok")]
            if failed:
                raise DistributedError(
                    f"snapshot failed: {failed[0].get('error')}"
                )
            for reply in replies:
                sl = requests[reply["request_id"]]
                by_slice[sl.sid] = reply["summaries"]
            todo = [
                sl for sl in self._slices if sl.sid not in by_slice
            ]
            if self._recovery == "none":
                break  # survivors answered; lost slices stay lost
            if not todo:
                break
        else:
            raise DistributedError(
                f"snapshot could not cover slices "
                f"{[sl.sid for sl in todo]}"
            )
        if not by_slice:
            raise DistributedError("no live workers to snapshot")
        per_method: Dict[str, list] = {name: [] for name in self._methods}
        for sid in sorted(by_slice):
            for name, frame in by_slice[sid].items():
                # Snapshot frames are immutable bytes kept alive by
                # their views: zero-copy decode feeds the frontend's
                # LRU snapshot cache without duplicating state arrays.
                per_method[name].append(codec.from_bytes(frame, copy=False))
        self._snap_cache = (self._version, per_method)
        return per_method

    @_serialized
    def snapshot(self, method: str):
        """The folded queryable summary for ``method`` right now."""
        if method not in self._methods:
            raise KeyError(
                f"method {method!r} not registered; have {self._methods}"
            )
        cached = self._fold_cache.get(method)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        snaps = self._collect()[method]
        folded = self._fold(method, snaps)
        self._fold_cache[method] = (self._version, folded)
        return folded

    def _fold(self, method: str, snaps: list):
        rng = np.random.default_rng(
            derive_seed(self._seed, "fold", method, self._version)
        )
        return fold_snapshots(snaps, size=self._size, rng=rng)

    # ------------------------------------------------------------------
    # Queries / introspection
    # ------------------------------------------------------------------
    @_serialized
    def query_many_now(self, queries: Sequence) -> Dict[str, List[float]]:
        """Live estimates for a query battery, per method.

        The battery is compiled into one shared
        :class:`~repro.structures.ranges.QueryPlan`, so the bounds
        stacking is paid once rather than once per method.
        """
        plan = compile_query_plan(queries)
        return {
            method: list(self.snapshot(method).query_many(plan))
            for method in self._methods
        }

    @property
    def methods(self) -> List[str]:
        return list(self._methods)

    @property
    def version(self) -> int:
        """Counter bumped per dispatched batch (snapshot cache key)."""
        return self._version

    @property
    def items_dispatched(self) -> int:
        return self._items

    def close(self) -> None:
        if self._own_coordinator:
            self._coordinator.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
