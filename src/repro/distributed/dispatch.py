"""Non-blocking coordinator dispatch: a selector thread owning one transport.

The synchronous coordinator of PR 3 serialized everything on one
blocking ``send``/``poll`` loop: a snapshot collection could not
overlap an ingest hand-off, and a query fan-out had to wait for
whichever frame happened to be in flight.  :class:`AsyncDispatcher`
inverts that: **one background thread owns the transport** (every
``send``/``poll``/``alive`` call happens there, so no transport needs
to be thread-safe) and callers on any thread enqueue requests through
:meth:`AsyncDispatcher.submit`, which returns a :class:`ReplyFuture`
immediately.

Flow control is explicit and per worker:

* at most ``max_inflight`` reply-expecting requests are *on the wire*
  per worker (a worker handles frames sequentially, so a deeper window
  only buys pipe buffering, not parallelism);
* at most ``max_pending`` requests may be queued per worker in total;
  beyond that :meth:`submit` blocks (backpressure) or raises
  :class:`Backpressure` when ``block=False`` (shed-on-overload).

Ordering: requests to one worker are sent strictly in submission
order (fire-and-forget frames ride the same FIFO, so an ``ingest``
enqueued before a ``snapshot`` is observed by it), and because the
worker runtime answers reply-expecting frames in order, replies are
matched to futures FIFO per worker.

Wire accounting stays **exact under concurrency**: the dispatcher
thread reads the transport's ``bytes_sent``/``shm_bytes`` counters
before and after every ``transport.send`` and stamps the difference
onto the request's future, so concurrent operations can each sum their
own futures instead of racing on before/after snapshots of the shared
counters.

The dispatcher's own counters (``stats``, ``dispatch.*`` in a metrics
registry) are written from two threads: ``submitted``/``rejected``/
``backpressure_waits``/``max_queue_depth`` by whichever caller runs
``submit()``, ``dispatched``/``completed``/``orphans`` by the
dispatcher thread, and ``failed`` by either.  Every bump is a locked
:meth:`repro.obs.CounterSet.inc`; ``max_queue_depth`` is a high-water
mark only ``submit()`` writes, under the dispatcher's condition.

Worker death fails that worker's queued and outstanding futures with
:class:`~repro.distributed.transport.TransportError`; retry policy
stays the caller's (the coordinator re-dispatches build tasks, snapshot
collection shrinks its reply target).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

from repro import obs as _obs
from repro.distributed import codec
from repro.distributed.transport import BaseTransport, TransportError

__all__ = [
    "AsyncDispatcher",
    "Backpressure",
    "ReplyFuture",
]

#: The dispatcher's counters (``dispatch.*`` in a registry).
_DISPATCH_FIELDS = (
    "submitted", "dispatched", "completed", "failed",
    "backpressure_waits", "rejected", "orphans", "max_queue_depth",
)


class Backpressure(RuntimeError):
    """A bounded dispatch queue is full and the caller chose not to wait."""


class ReplyFuture:
    """One request's eventual reply (resolved by the dispatcher thread).

    ``result()`` decodes the reply frame lazily on the *waiting*
    thread, keeping the dispatcher thread free of codec work.  The
    per-request wire share (``bytes_sent``, ``bytes_received``,
    ``shm_bytes``) is stamped by the dispatcher as the frames move.
    """

    __slots__ = (
        "_cond", "_frame", "_message", "_error",
        "worker_id", "bytes_sent", "bytes_received", "shm_bytes",
        "submitted_at",
    )

    def __init__(self, cond: threading.Condition, worker_id: int):
        self._cond = cond
        self._frame: Optional[bytes] = None
        self._message: Optional[dict] = None
        self._error: Optional[BaseException] = None
        self.worker_id = worker_id
        self.bytes_sent = 0
        self.bytes_received = 0
        self.shm_bytes = 0
        #: Monotonic submit stamp; set only when telemetry is enabled.
        self.submitted_at = 0.0

    def done(self) -> bool:
        """Whether a reply (or a failure) has landed."""
        return self._frame is not None or self._error is not None

    def exception(self) -> Optional[BaseException]:
        """The failure, if the request failed (``None`` while pending/ok)."""
        return self._error

    def result(self, timeout: Optional[float] = None) -> dict:
        """Wait for and decode the reply message.

        Raises the request's :class:`TransportError` when the worker
        died, or :class:`TimeoutError` when ``timeout`` elapses first.
        """
        with self._cond:
            if not self._cond.wait_for(self.done, timeout):
                raise TimeoutError(
                    f"no reply from worker {self.worker_id} "
                    f"within {timeout}s"
                )
        if self._error is not None:
            raise self._error
        if self._message is None:
            self._message = codec.decode_message(self._frame)
        return self._message

    # Dispatcher-thread side -------------------------------------------
    def _resolve(self, frame: bytes) -> None:
        with self._cond:
            self._frame = frame
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        with self._cond:
            self._error = error
            self._cond.notify_all()


class _Request:
    __slots__ = ("frame", "future", "reply_expected")

    def __init__(self, frame, future, reply_expected):
        self.frame = frame
        self.future = future
        self.reply_expected = reply_expected


#: How long the dispatcher sleeps when fully idle (no queued work, no
#: outstanding replies).  Submissions interrupt the sleep via the
#: condition, so this only bounds how lazily worker *deaths* are
#: discovered while idle.
_IDLE_WAIT_S = 0.05


class AsyncDispatcher:
    """Background send/receive loop over a started transport.

    Parameters
    ----------
    transport:
        A started :class:`~repro.distributed.transport.BaseTransport`.
        From this point on the dispatcher thread is the only caller of
        its ``send``/``poll``/``alive``; tear-down order is
        ``dispatcher.stop()`` then ``transport.stop()``.
    max_inflight:
        Reply-expecting requests on the wire per worker.
    max_pending:
        Total queued + outstanding requests per worker before
        :meth:`submit` exerts backpressure.
    poll_interval:
        Transport poll granularity while replies are outstanding.
    registry:
        Metrics registry (defaults to the process-global one).  When
        enabled, the dispatcher records submit->reply latency into
        ``dispatch.reply_latency_seconds`` and tracks a live
        ``dispatch.queue_depth`` gauge; disabled, the hot path pays
        one ``enabled`` branch per submit/reply.
    """

    def __init__(
        self,
        transport: BaseTransport,
        *,
        max_inflight: int = 2,
        max_pending: int = 128,
        poll_interval: float = 0.002,
        registry=None,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._transport = transport
        self._max_inflight = int(max_inflight)
        self._max_pending = int(max_pending)
        self._poll_interval = float(poll_interval)
        self._cond = threading.Condition()
        #: Shared completion condition every future waits on.
        self._completion = threading.Condition()
        self._pending: Dict[int, deque] = {}
        self._outstanding: Dict[int, deque] = {}
        self._alive = set(range(transport.num_workers))
        self._running = True
        self.stats = _obs.CounterSet("dispatch", _DISPATCH_FIELDS)
        self._max_depth = self.stats.counter("max_queue_depth")
        # Held, not looked up per send: _send_one reads both around
        # every transport.send.
        self._wire_sent = transport.stats.counter("bytes_sent")
        self._wire_shm = transport.stats.counter("shm_bytes")
        self._obs = registry if registry is not None else _obs.get_registry()
        self._obs.attach(self.stats)
        self._obs_enabled = self._obs.enabled
        self._reply_latency = self._obs.histogram(
            "dispatch.reply_latency_seconds"
        )
        self._depth_gauge = self._obs.gauge("dispatch.queue_depth")
        self._thread = threading.Thread(
            target=self._run, name="repro-dispatcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Caller-side API (any thread)
    # ------------------------------------------------------------------
    def _depth(self, worker_id: int) -> int:
        return (
            len(self._pending.get(worker_id, ()))
            + len(self._outstanding.get(worker_id, ()))
        )

    def queue_depth(self, worker_id: int) -> int:
        """Queued + outstanding requests for one worker right now."""
        with self._cond:
            return self._depth(worker_id)

    def alive_workers(self) -> List[int]:
        """The dispatcher's view of reachable workers.

        Refreshed by the dispatcher thread every loop; may lag a death
        by up to one idle wait, never by more.
        """
        with self._cond:
            return sorted(self._alive)

    def submit(
        self,
        worker_id: int,
        message,
        *,
        reply_expected: bool = True,
        compress: bool = True,
        block: bool = True,
        timeout: Optional[float] = 60.0,
    ) -> Optional[ReplyFuture]:
        """Enqueue one message for a worker; returns its future.

        ``message`` may be a dict (encoded here, on the caller's
        thread) or an already-encoded frame.  Fire-and-forget requests
        (``reply_expected=False``) return ``None``.

        Backpressure: when the worker's queue is at ``max_pending``,
        blocks until space frees (bounded by ``timeout``) -- or raises
        :class:`Backpressure` immediately when ``block=False``.
        """
        if isinstance(message, dict):
            frame = codec.encode_message(message, compress=compress)
        else:
            frame = message
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        with self._cond:
            if not self._running:
                raise TransportError("dispatcher is stopped")
            if worker_id not in self._alive:
                raise TransportError(f"worker {worker_id} is dead")
            while self._depth(worker_id) >= self._max_pending:
                if not block:
                    self.stats.inc("rejected")
                    raise Backpressure(
                        f"worker {worker_id} queue full "
                        f"({self._max_pending} requests)"
                    )
                self.stats.inc("backpressure_waits")
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise Backpressure(
                        f"worker {worker_id} queue still full "
                        f"after {timeout}s"
                    )
                self._cond.wait(
                    _IDLE_WAIT_S if remaining is None
                    else min(remaining, _IDLE_WAIT_S)
                )
                if not self._running:
                    raise TransportError("dispatcher is stopped")
                if worker_id not in self._alive:
                    raise TransportError(f"worker {worker_id} died")
            future = (
                ReplyFuture(self._completion, worker_id)
                if reply_expected else None
            )
            if future is not None and self._obs_enabled:
                future.submitted_at = time.monotonic()
            self._pending.setdefault(worker_id, deque()).append(
                _Request(frame, future, reply_expected)
            )
            self.stats.inc("submitted")
            depth = self._depth(worker_id)
            if depth > self._max_depth.value:
                self._max_depth.set(depth)
            if self._obs_enabled:
                self._depth_gauge.set(depth)
            self._cond.notify_all()
        return future

    def capacity(self, worker_id: int) -> int:
        """Free queue slots for a worker (0 means submit would block)."""
        with self._cond:
            if worker_id not in self._alive:
                return 0
            return max(0, self._max_pending - self._depth(worker_id))

    def load(self, worker_id: int) -> int:
        """Current queue depth (scheduling hint: lower is idler)."""
        return self.queue_depth(worker_id)

    def wait_any(
        self,
        futures: Sequence[ReplyFuture],
        timeout: Optional[float] = None,
    ) -> bool:
        """Block until any future is done (True) or timeout (False)."""
        futures = [f for f in futures if f is not None]
        if not futures:
            return False
        with self._completion:
            return self._completion.wait_for(
                lambda: any(f.done() for f in futures), timeout
            )

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Stop the dispatch thread, draining queued sends first.

        Futures still unanswered after the drain fail with
        :class:`TransportError`.  Idempotent; the transport itself is
        *not* stopped (the owner tears it down afterwards).
        """
        with self._cond:
            self._running = False
            self._cond.notify_all()
        self._thread.join(timeout=drain_timeout)
        leftovers: List[_Request] = []
        with self._cond:
            for queue in list(self._pending.values()):
                leftovers.extend(queue)
                queue.clear()
            for queue in list(self._outstanding.values()):
                leftovers.extend(queue)
                queue.clear()
        for request in leftovers:
            if request.future is not None:
                request.future._fail(
                    TransportError("dispatcher stopped before reply")
                )
            self.stats.inc("failed")

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------
    def _collect_sends(self) -> List[tuple]:
        """Pop sendable requests (per-worker FIFO, bounded windows)."""
        to_send = []
        with self._cond:
            for worker_id, queue in self._pending.items():
                if worker_id not in self._alive:
                    continue
                outstanding = self._outstanding.setdefault(
                    worker_id, deque()
                )
                while queue:
                    request = queue[0]
                    if (
                        request.reply_expected
                        and len(outstanding) >= self._max_inflight
                    ):
                        break
                    queue.popleft()
                    if request.reply_expected:
                        # Counted as outstanding from this moment, so
                        # the backpressure bound spans send + reply.
                        outstanding.append(request)
                    to_send.append((worker_id, request))
        return to_send

    def _send_one(self, worker_id: int, request: _Request) -> bool:
        sent, shm = self._wire_sent, self._wire_shm
        sent_before = sent.value
        shm_before = shm.value
        try:
            self._transport.send(
                worker_id,
                request.frame,
                reply_expected=request.reply_expected,
            )
        except TransportError as exc:
            with self._cond:
                outstanding = self._outstanding.get(worker_id)
                if outstanding and request in outstanding:
                    outstanding.remove(request)
                self._cond.notify_all()
            if request.future is not None:
                request.future._fail(exc)
            self.stats.inc("failed")
            return False
        self.stats.inc("dispatched")
        if request.future is not None:
            request.future.bytes_sent = sent.value - sent_before
            request.future.shm_bytes = shm.value - shm_before
        else:
            # Fire-and-forget frames free their queue slot on send.
            with self._cond:
                self._cond.notify_all()
        return True

    def _resolve_replies(self, frames: Iterable[tuple]) -> int:
        resolved = 0
        for worker_id, frame in frames:
            with self._cond:
                outstanding = self._outstanding.get(worker_id)
                request = (
                    outstanding.popleft() if outstanding else None
                )
                if request is not None:
                    self._cond.notify_all()
            if request is None:
                # A reply with no matching request: a worker answered
                # a fire-and-forget frame (protocol error surface) or
                # an already-failed request.  Nothing waits for it.
                self.stats.inc("orphans")
                continue
            request.future.bytes_received = len(frame)
            self.stats.inc("completed")
            if self._obs_enabled and request.future.submitted_at:
                self._reply_latency.observe(
                    time.monotonic() - request.future.submitted_at
                )
            request.future._resolve(
                frame if isinstance(frame, bytes) else bytes(frame)
            )
            resolved += 1
        return resolved

    def _sweep_deaths(self) -> None:
        for worker_id in list(self._alive):
            if self._transport.alive(worker_id):
                continue
            with self._cond:
                self._alive.discard(worker_id)
                casualties = list(self._pending.pop(worker_id, ()))
                casualties += list(self._outstanding.pop(worker_id, ()))
                self._cond.notify_all()
            for request in casualties:
                if request.future is not None:
                    request.future._fail(
                        TransportError(f"worker {worker_id} died")
                    )
                self.stats.inc("failed")

    def _run(self) -> None:
        while True:
            to_send = self._collect_sends()
            for worker_id, request in to_send:
                self._send_one(worker_id, request)
            with self._cond:
                has_outstanding = any(
                    queue for queue in self._outstanding.values()
                )
                has_pending = any(
                    queue for queue in self._pending.values()
                )
                if not self._running and not has_pending:
                    break
            if to_send or has_pending:
                frames = self._transport.poll(0)
            elif has_outstanding:
                # Some transports (in-process) poll without blocking;
                # pace the loop so a stalled worker cannot spin it.
                started = time.monotonic()
                frames = self._transport.poll(self._poll_interval)
                if not frames:
                    leftover = (
                        self._poll_interval
                        - (time.monotonic() - started)
                    )
                    if leftover > 0:
                        time.sleep(leftover)
            else:
                frames = self._transport.poll(0)
            resolved = self._resolve_replies(frames)
            self._sweep_deaths()
            if to_send or resolved or has_pending:
                continue
            if not has_outstanding:
                with self._cond:
                    if self._running and not any(
                        queue for queue in self._pending.values()
                    ):
                        self._cond.wait(_IDLE_WAIT_S)
