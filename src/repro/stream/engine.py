"""The streaming ingestion engine: micro-batches in, live answers out.

:class:`StreamEngine` consumes micro-batches from any iterable or
generator source, routes them to one or more registered summarization
methods (resolved through :mod:`repro.engine.registry` via
:func:`repro.stream.incremental.incremental_summary`), and answers
range-sum queries *live* -- over everything seen (landmark mode) or
over tumbling / sliding event-time windows.

Windows are built from the mergeable-summary protocol and nothing
else: a window is a list of per-pane summaries, each pane ingesting
its slice of the stream incrementally, folded with ``from_shards`` /
``merge`` at query time.  That is the same statistical machinery as
the sharded batch engine -- panes are time-shards -- so every fold
keeps the Horvitz-Thompson unbiasedness of sample summaries and the
exactness/error guarantees of the dedicated ones.

Reproducibility: the engine owns a root seed and derives an
independent child seed per (method, pane) and per fold (see
:func:`repro.stream.incremental.derive_seed`), so two engines built
from the same seed and fed the same stream report identical answers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro import obs as _obs
from repro.engine.builder import fold_snapshots
from repro.stream.incremental import derive_seed, incremental_summary
from repro.stream.types import MicroBatch
from repro.structures.ranges import Box, compile_query_plan


@dataclass(frozen=True)
class Window:
    """An event-time window policy.

    ``width`` is the window length; ``pane`` the pane length (the
    granularity at which per-pane summaries are kept and folded).
    Batches are assigned to panes whole, by their timestamp.
    """

    kind: str  # "tumbling" | "sliding"
    width: float
    pane: float

    def __post_init__(self):
        if self.kind not in ("tumbling", "sliding"):
            raise ValueError(f"unknown window kind: {self.kind!r}")
        if self.width <= 0 or self.pane <= 0:
            raise ValueError("window width and pane must be positive")
        if self.pane > self.width:
            raise ValueError("pane must not exceed the window width")

    @property
    def panes_per_window(self) -> int:
        """Number of panes a full window folds over."""
        return max(1, int(math.ceil(self.width / self.pane - 1e-9)))


def tumbling(width: float) -> Window:
    """A tumbling window: the stream is cut into [k*w, (k+1)*w) spans.

    ``query_now`` covers the *current* (in-progress) window;
    :meth:`StreamEngine.last_window` exposes the most recently
    completed one.
    """
    return Window("tumbling", float(width), float(width))


def sliding(width: float, slide: float) -> Window:
    """A sliding window of length ``width`` advancing by ``slide``.

    Implemented with the classic panes decomposition: per-``slide``
    pane summaries, folded over the last ``ceil(width / slide)`` panes
    at query time.  The window edge is pane-granular: the oldest pane
    contributes whole once any part of it is inside ``(now - width,
    now]``.
    """
    return Window("sliding", float(width), float(slide))


class _Pane:
    """One time-slice of the stream: live builders, then frozen snaps."""

    __slots__ = ("index", "start", "end", "incs", "sealed", "_snap_cache")

    def __init__(self, index: int, start: float, end: float, incs: Dict):
        self.index = index
        self.start = start
        self.end = end  # inf for the landmark pane
        self.incs = incs
        self.sealed: Optional[Dict[str, object]] = None
        self._snap_cache: Dict[str, tuple] = {}

    def snapshot(self, method: str):
        """The pane's summary for ``method`` (cached per inc version)."""
        if self.sealed is not None:
            return self.sealed[method]
        inc = self.incs[method]
        cached = self._snap_cache.get(method)
        if cached is not None and cached[0] == inc.version:
            return cached[1]
        snap = inc.snapshot()
        self._snap_cache[method] = (inc.version, snap)
        return snap

    def seal(self) -> None:
        """Freeze every method's snapshot and drop the live builders."""
        if self.sealed is not None:
            return
        self.sealed = {name: self.snapshot(name) for name in self.incs}
        self.incs = {}
        self._snap_cache = {}


class StreamEngine:
    """Live summarization of a micro-batch stream.

    Parameters
    ----------
    domain:
        The :class:`~repro.structures.product.ProductDomain` the
        stream's keys live in.
    methods:
        One registry method name or a sequence of names; every batch is
        routed to all of them.
    size:
        Per-method summary size (per pane; window folds re-aggregate
        sample summaries back down to it).
    window:
        ``None`` for landmark mode (one summary over everything seen),
        or a :func:`tumbling` / :func:`sliding` window.
    seed:
        Root seed for all randomness (pane samplers, fold merges);
        engines sharing a seed and a stream are identical.
    on_pane_sealed:
        Optional hand-off hook ``(pane_index, {method: summary})``
        invoked whenever a pane is sealed (the stream clock left it
        for good).  Sealed summaries are frozen and mergeable, so the
        hook is the natural shipping point for distributed pane
        aggregation: serialize them with
        :func:`repro.distributed.codec.to_bytes` and fold upstream.
        A pane that received no data seals with empty summaries.
    store / stream_id:
        Optional :class:`~repro.durable.CheckpointStore` making the
        stream durable under ``stream_id``: every batch is logged
        *before* it is processed (write-ahead), every sealed pane is
        persisted as compressed summary frames (compacting the batch
        log behind it), and :meth:`checkpoint` persists the full live
        state.  :meth:`restore` rebuilds an engine from the store that
        is bit-identical to one that never crashed -- see
        ``src/repro/durable/DURABILITY.md`` for the exactness
        contract.

    Timestamps
    ----------
    Batches may carry event-time stamps (non-decreasing; out-of-order
    batches are rejected).  Unstamped batches tick an arrival clock of
    one time unit per batch, so window widths are then measured in
    batches.  A windowed batch with *per-item* timestamps
    (:attr:`~repro.stream.types.MicroBatch.timestamps`) that straddles
    a pane boundary is split at the boundary, so window edges are
    item-granular; with only a batch-level stamp it is assigned to its
    pane whole.
    """

    def __init__(
        self,
        domain,
        methods: Union[str, Sequence[str]],
        size: int,
        *,
        window: Optional[Window] = None,
        seed: int = 0,
        on_pane_sealed=None,
        registry=None,
        store=None,
        stream_id: str = "stream",
    ):
        if isinstance(methods, str):
            methods = [methods]
        self._methods = list(methods)
        if not self._methods:
            raise ValueError("need at least one method")
        self._domain = domain
        self._size = int(size)
        self._window = window
        self._seed = int(seed)
        self._on_pane_sealed = on_pane_sealed
        self._panes: List[_Pane] = []
        self._last_completed: Optional[List[_Pane]] = None
        self._now: Optional[float] = None
        self._items = 0
        self._batches = 0
        self._fold_cache: Dict[str, tuple] = {}
        # Telemetry (repro.obs): the ingest hot path pays one enabled
        # branch per batch; everything else records only when the
        # registry is enabled.
        self._obs = registry if registry is not None else _obs.get_registry()
        self._obs_enabled = self._obs.enabled
        self._items_ctr = self._obs.counter("stream.items_ingested")
        self._batches_ctr = self._obs.counter("stream.batches_ingested")
        self._ingest_hist = self._obs.histogram("stream.ingest_seconds")
        self._seal_hist = self._obs.histogram("stream.pane_seal_seconds")
        self._seals_ctr = self._obs.counter("stream.panes_sealed")
        self._panes_gauge = self._obs.gauge("stream.panes_retained")
        self._late_ctr = self._obs.counter("stream.late_items")
        # Fail fast on unknown names (and 1-D-only methods on 2-D
        # domains) by building pane 0's summaries eagerly.
        self._panes.append(self._new_pane(0))
        # Durability: log the stream's configuration up front so a
        # restore can rebuild the engine from the store alone.
        self._store = store
        self._stream_id = str(stream_id)
        if store is not None:
            if store.resume_state(self._stream_id)["next_seq"] > 0:
                raise ValueError(
                    f"stream {self._stream_id!r} already exists in the "
                    "store; use StreamEngine.restore() to resume it or "
                    "pick a fresh stream_id"
                )
            self._log_open()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def process(self, batch) -> None:
        """Ingest one micro-batch.

        A windowed batch carrying per-item timestamps is split at pane
        boundaries (each slice lands in its own pane); otherwise the
        batch is assigned to one pane by its batch timestamp.

        With a checkpoint store attached the batch is logged *before*
        it is processed: once this method has been entered, the batch
        is recoverable even if the process dies mid-update.  Keys off
        the domain and late batches are rejected before the log, so
        the write-ahead log replays cleanly.
        """
        batch = MicroBatch.coerce(batch)
        self._domain.validate_coords(batch.coords)
        if self._store is not None:
            self._check_on_time(batch)
            self._log_batch(batch)
        if not self._obs_enabled:
            self._process(batch)
            return
        started = time.perf_counter()
        items_before = self._items
        self._process(batch)
        self._ingest_hist.observe(time.perf_counter() - started)
        self._items_ctr.inc(self._items - items_before)
        self._batches_ctr.inc()

    def _check_on_time(self, batch: MicroBatch) -> None:
        """Reject a late batch exactly as :meth:`_process` would."""
        if self._now is None:
            return
        if (
            batch.timestamps is not None
            and self._window is not None
            and batch.timestamps.size
        ):
            ts = float(batch.timestamps[0])
        elif batch.timestamp is not None:
            ts = float(batch.timestamp)
        else:
            ts = float(self._batches)
        if ts < self._now:
            self._reject_late(ts)

    def _reject_late(self, ts: float) -> None:
        """Raise the descriptive out-of-order error (and count it)."""
        if self._obs_enabled:
            self._late_ctr.inc()
        if self._window is None:
            where = "the landmark pane"
        else:
            width = self._window.pane
            pane = int(ts // width)
            where = (
                f"pane {pane} [{pane * width:g}, {(pane + 1) * width:g})"
            )
        raise ValueError(
            f"timestamps must be non-decreasing: batch timestamp {ts:g} "
            f"targets {where} but the stream clock already reached "
            f"{self._now:g}; the batch was rejected and counted in "
            f"stream.late_items"
        )

    def _process(self, batch) -> None:
        coords, weights, ts, item_ts = self._coerce(batch)
        if (
            item_ts is not None
            and self._window is not None
            and item_ts.size
        ):
            self._process_split(coords, weights, item_ts)
            return
        if ts is None:
            ts = float(self._batches)  # arrival clock: 1 unit per batch
        if self._now is not None and ts < self._now:
            self._reject_late(ts)
        self._now = ts
        pane = self._pane_for(ts)
        for inc in pane.incs.values():
            inc.update(coords, weights)
        self._items += weights.shape[0]
        self._batches += 1

    def _process_split(
        self,
        coords: np.ndarray,
        weights: np.ndarray,
        item_ts: np.ndarray,
    ) -> None:
        """Route one per-item-stamped batch, slicing at pane boundaries.

        Items are grouped into runs that share a pane (stamps are
        non-decreasing, so runs are contiguous) and each run updates
        its own pane -- the pane roll/seal machinery sees exactly the
        sequence of events it would have seen had the source emitted
        pane-aligned batches in the first place.
        """
        if self._now is not None and float(item_ts[0]) < self._now:
            self._reject_late(float(item_ts[0]))
        pane_index = np.floor_divide(
            item_ts, self._window.pane
        ).astype(np.int64)
        boundaries = np.flatnonzero(np.diff(pane_index)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [pane_index.shape[0]]))
        for start, end in zip(starts, ends):
            run_ts = float(item_ts[end - 1])
            self._now = run_ts
            pane = self._pane_for(run_ts)
            for inc in pane.incs.values():
                inc.update(coords[start:end], weights[start:end])
            self._items += end - start
        self._batches += 1

    def ingest(self, source: Iterable, limit: Optional[int] = None) -> int:
        """Consume micro-batches from any iterable/generator source.

        Returns the number of items ingested from this call.  ``limit``
        caps the number of batches drawn (for endless sources).
        """
        before = self._items
        for count, batch in enumerate(source, start=1):
            self.process(batch)
            if limit is not None and count >= limit:
                break
        return self._items - before

    def _coerce(self, batch):
        normalized = MicroBatch.coerce(batch)
        return (normalized.coords, normalized.weights,
                normalized.timestamp, normalized.timestamps)

    def _new_pane(self, index: int) -> _Pane:
        if self._window is None:
            start, end = 0.0, math.inf
        else:
            start = index * self._window.pane
            end = start + self._window.pane
        incs = {
            name: incremental_summary(
                name,
                self._domain,
                self._size,
                seed=derive_seed(self._seed, name, index),
            )
            for name in self._methods
        }
        return _Pane(index, start, end, incs)

    def _pane_for(self, ts: float) -> _Pane:
        if self._window is None:
            return self._panes[0]
        index = int(ts // self._window.pane)
        current = self._panes[-1]
        if index == current.index:
            return current
        # Time advanced past the current pane: seal and roll forward.
        # A pane restored from the store arrives already sealed (and
        # already persisted / shipped): only the roll bookkeeping runs
        # for it, never a second seal.
        if current.sealed is None:
            if self._obs_enabled:
                started = time.perf_counter()
                with self._obs.span("stream.pane_seal", pane=current.index):
                    self._seal_current(current)
                self._seal_hist.observe(time.perf_counter() - started)
                self._seals_ctr.inc()
            else:
                self._seal_current(current)
        if self._window.kind == "tumbling":
            # Pane == window for tumbling: the sealed pane IS the
            # completed window -- but only when no empty windows
            # elapsed in between (a stream gap must not leave a stale
            # pane posing as the latest window).
            self._last_completed = (
                [current] if index == current.index + 1 else None
            )
        pane = self._new_pane(index)
        self._panes.append(pane)
        self._prune(ts)
        if self._obs_enabled:
            self._panes_gauge.set(len(self._panes))
        return pane

    def _seal_current(self, current: _Pane) -> None:
        """Seal one pane: freeze, fire the hand-off hook, persist."""
        current.seal()
        if self._on_pane_sealed is not None:
            self._on_pane_sealed(current.index, dict(current.sealed))
        if self._store is not None:
            self._persist_seal(current)

    def _prune(self, now: float) -> None:
        """Drop panes no query over the current window can touch."""
        if self._window is None:
            return
        if self._window.kind == "tumbling":
            self._panes = self._panes[-1:]
            return
        horizon = now - self._window.width
        keep = [p for p in self._panes if p.end > horizon]
        # Cap retention at a full window of panes plus the live one.
        max_panes = self._window.panes_per_window + 1
        self._panes = keep[-max_panes:]

    # ------------------------------------------------------------------
    # Durability: write-ahead batch log, pane persistence, checkpoints
    # ------------------------------------------------------------------
    def _log_open(self) -> None:
        from repro.distributed import codec

        window = None
        if self._window is not None:
            window = {
                "kind": self._window.kind,
                "width": self._window.width,
                "pane": self._window.pane,
            }
        self._store.append(self._stream_id, "open", {
            "methods": list(self._methods),
            "size": self._size,
            "seed": self._seed,
            "window": window,
            "domain": codec.encode_domain(self._domain),
        })

    def _log_batch(self, batch: MicroBatch) -> None:
        """Write-ahead: the batch plus the pre-ingest counter state.

        The counters make replay exact even after seal-time compaction
        dropped earlier batch records: the first surviving batch's
        pre-state re-anchors the clocks (see ``DURABILITY.md``).  The
        record's ``pane`` is the batch's *last* destination pane, so a
        boundary-straddling batch outlives the seal of the pane it
        started in.  When every axis of the domain fits in 32 bits (the
        network domain's do), the keys are logged as ``uint32``: half
        the bytes to checksum and write, and replay casts them back to
        the same int64 keys.
        """
        if self._window is None:
            pane = 0
        elif batch.timestamps is not None and batch.timestamps.size:
            pane = int(float(batch.timestamps[-1]) // self._window.pane)
        elif batch.timestamp is not None:
            pane = int(float(batch.timestamp) // self._window.pane)
        else:
            pane = int(float(self._batches) // self._window.pane)
        coords = batch.coords
        if max(self._domain.sizes) <= 1 << 32:
            coords = coords.astype(np.uint32)
        self._store.append(self._stream_id, "batch", {
            "coords": coords,
            "weights": batch.weights,
            "timestamp": batch.timestamp,
            "timestamps": batch.timestamps,
            "items": self._items,
            "batches": self._batches,
            "now": self._now,
        }, pane=pane, compress=False)

    def _persist_seal(self, pane: _Pane) -> None:
        """Persist a sealed pane's frames; compact the log behind it.

        Batches destined to this pane (or earlier ones) are embedded
        in the frozen summaries, so their replay records die here --
        this is what keeps the write-ahead log bounded on windowed
        streams.  Seal records behind the query horizon (a full window
        of panes plus one) die with them.
        """
        from repro.distributed import codec

        self._store.append(self._stream_id, "seal", {
            "start": pane.start,
            "end": pane.end,
            "summaries": {
                name: codec.to_bytes(summary)
                for name, summary in pane.sealed.items()
            },
        }, pane=pane.index)
        self._store.prune(self._stream_id, "batch", max_pane=pane.index)
        keep = self._window.panes_per_window + 1
        self._store.prune(
            self._stream_id, "seal", max_pane=pane.index - keep
        )

    def checkpoint(self) -> int:
        """Persist the full live state; truncate the log behind it.

        Runs inline on the calling thread: it appends a ``state``
        record, truncates the log below it, syncs the store and returns
        the record's sequence number.  If the append raises, the error
        propagates, the log keeps its earlier records and the engine
        keeps ingesting.

        On landmark streams checkpoints are the *only* thing that
        bounds the write-ahead log (no pane ever seals), so long-lived
        landmark streams should call this periodically.
        """
        if self._store is None:
            raise ValueError("engine has no checkpoint store attached")
        seq = self._store.append(
            self._stream_id, "state", self._checkpoint_payload(),
            pane=self._panes[-1].index,
        )
        self._store.truncate(self._stream_id, below_seq=seq)
        self._store.sync()
        return seq

    def _checkpoint_payload(self) -> dict:
        from repro.distributed import codec
        from repro.durable import encode_incremental

        def sealed_entry(pane: _Pane) -> dict:
            return {
                "index": pane.index,
                "start": pane.start,
                "end": pane.end,
                "sealed": {
                    name: codec.to_bytes(summary)
                    for name, summary in pane.sealed.items()
                },
            }

        panes = []
        for pane in self._panes:
            if pane.sealed is not None:
                panes.append(sealed_entry(pane))
            else:
                panes.append({
                    "index": pane.index,
                    "start": pane.start,
                    "end": pane.end,
                    "incs": {
                        name: encode_incremental(inc)
                        for name, inc in pane.incs.items()
                    },
                })
        last = None
        if self._last_completed is not None:
            (pane,) = self._last_completed
            last = sealed_entry(pane)
        return {
            "panes": panes,
            "last_completed": last,
            "items": self._items,
            "batches": self._batches,
            "now": self._now,
        }

    @classmethod
    def restore(
        cls,
        store,
        stream_id: str = "stream",
        *,
        on_pane_sealed=None,
        registry=None,
    ) -> "StreamEngine":
        """Rebuild an engine from its checkpoint store.

        The restored engine is bit-identical to one that never
        crashed: base state comes from the latest checkpoint (if any),
        sealed panes from their persisted frames, and everything after
        the last seal is replayed from the write-ahead batch log --
        including the update that was in flight when the process died.
        """
        records = store.records(stream_id)
        config = next((r for r in records if r.kind == "open"), None)
        if config is None:
            raise ValueError(
                f"stream {stream_id!r} has no open record in the store"
            )
        from repro.distributed import codec

        cfg = config.payload
        window = None
        if cfg["window"] is not None:
            spec = cfg["window"]
            window = Window(
                spec["kind"], float(spec["width"]), float(spec["pane"])
            )
        engine = cls(
            codec.decode_domain(cfg["domain"]),
            list(cfg["methods"]),
            int(cfg["size"]),
            window=window,
            seed=int(cfg["seed"]),
            on_pane_sealed=on_pane_sealed,
            registry=registry,
        )
        # Attach the store *after* construction: the open record is
        # already on disk and must not be duplicated.
        engine._store = store
        engine._stream_id = stream_id
        state = None
        for record in records:
            if record.kind == "state":
                state = record
        base_seq = state.seq if state is not None else -1
        if state is not None:
            engine._restore_from_payload(state.payload)
        floor = -1
        for record in records:
            if record.kind == "seal" and record.seq > base_seq:
                engine._apply_seal_record(record)
                floor = max(floor, record.pane)
        live = [
            r for r in records
            if r.kind == "batch" and r.seq > base_seq and r.pane > floor
        ]
        if live:
            # Re-anchor the clocks at the first surviving batch's
            # pre-state, then replay: each replayed batch re-applies
            # its own counter effects exactly as the first run did.
            first = live[0].payload
            engine._items = int(first["items"])
            engine._batches = int(first["batches"])
            engine._now = (
                None if first["now"] is None else float(first["now"])
            )
            for record in live:
                engine._replay_batch(record.payload)
        return engine

    def _restore_from_payload(self, payload: dict) -> None:
        """Load a checkpoint's panes, clocks and last-window marker."""
        from repro.distributed import codec
        from repro.durable import decode_incremental

        def sealed_pane(entry: dict) -> _Pane:
            pane = _Pane(
                int(entry["index"]), float(entry["start"]),
                float(entry["end"]), {},
            )
            pane.sealed = {
                name: codec.from_bytes(frame)
                for name, frame in entry["sealed"].items()
            }
            return pane

        panes = []
        for entry in payload["panes"]:
            if "sealed" in entry:
                panes.append(sealed_pane(entry))
                continue
            index = int(entry["index"])
            pane = _Pane(
                index, float(entry["start"]), float(entry["end"]),
                {
                    name: decode_incremental(
                        spec,
                        name=name,
                        domain=self._domain,
                        size=self._size,
                        seed=derive_seed(self._seed, name, index),
                    )
                    for name, spec in entry["incs"].items()
                },
            )
            panes.append(pane)
        self._panes = sorted(panes, key=lambda p: p.index)
        last = payload["last_completed"]
        self._last_completed = None if last is None else [sealed_pane(last)]
        self._items = int(payload["items"])
        self._batches = int(payload["batches"])
        self._now = (
            None if payload["now"] is None else float(payload["now"])
        )
        self._fold_cache = {}

    def _apply_seal_record(self, record) -> None:
        """Merge one persisted sealed pane over the restored pane set."""
        from repro.distributed import codec

        pane = _Pane(
            int(record.pane), float(record.payload["start"]),
            float(record.payload["end"]), {},
        )
        pane.sealed = {
            name: codec.from_bytes(frame)
            for name, frame in record.payload["summaries"].items()
        }
        others = [p for p in self._panes if p.index != pane.index]
        self._panes = sorted(others + [pane], key=lambda p: p.index)

    def _replay_batch(self, payload: dict) -> None:
        """Re-process one logged batch (no re-logging, no obs timing)."""
        timestamps = payload["timestamps"]
        self._process(MicroBatch(
            np.asarray(payload["coords"]),
            np.asarray(payload["weights"]),
            None if payload["timestamp"] is None
            else float(payload["timestamp"]),
            None if timestamps is None else np.asarray(timestamps),
        ))

    @property
    def store(self):
        """The attached checkpoint store (``None`` if not durable)."""
        return self._store

    @property
    def stream_id(self) -> str:
        """The stream's identity inside the checkpoint store."""
        return self._stream_id

    # ------------------------------------------------------------------
    # Live queries
    # ------------------------------------------------------------------
    def _relevant_panes(self) -> List[_Pane]:
        if self._window is None or self._window.kind == "tumbling":
            return self._panes[-1:]
        if self._now is None:
            return self._panes[-1:]
        horizon = self._now - self._window.width
        return [p for p in self._panes if p.end > horizon]

    def snapshot(self, method: str):
        """The queryable summary for ``method`` over the current window.

        Folds the window's per-pane snapshots with the mergeable
        summary protocol; the fold is cached until a pane changes, so
        repeated query batteries between batches reuse both the folded
        summary and (through it) its sort orders.
        """
        if method not in self._methods:
            raise KeyError(f"method {method!r} not registered; "
                           f"have {self._methods}")
        panes = self._relevant_panes()
        state_key = tuple(
            (pane.index, -1 if pane.sealed is not None
             else pane.incs[method].version)
            for pane in panes
        )
        cached = self._fold_cache.get(method)
        if cached is not None and cached[0] == state_key:
            return cached[1]
        snaps = [pane.snapshot(method) for pane in panes]
        folded = self._fold(method, snaps, state_key)
        self._fold_cache[method] = (state_key, folded)
        return folded

    def _fold(self, method: str, snaps: List, state_key: tuple):
        rng = np.random.default_rng(
            derive_seed(self._seed, "fold", method, hash(state_key))
        )
        return fold_snapshots(snaps, size=self._size, rng=rng)

    def query_now(self, query) -> Dict[str, float]:
        """Live range-sum estimates for one query, per method."""
        out = {}
        for method in self._methods:
            snap = self.snapshot(method)
            if isinstance(query, Box):
                out[method] = float(snap.query(query))
            else:
                out[method] = float(snap.query_multi(query))
        return out

    def query_many_now(self, queries: Sequence) -> Dict[str, List[float]]:
        """Live estimates for a whole query battery, per method.

        The battery is compiled into one
        :class:`~repro.structures.ranges.QueryPlan` and every method's
        vectorized ``query_many`` consumes that same plan, so the
        bounds stacking is paid once per battery rather than once per
        method.  Between batches both the fold and each snapshot's
        sort orders are cached, so repeated batteries cost only the
        per-battery sweep.
        """
        plan = compile_query_plan(queries)
        return {
            method: list(self.snapshot(method).query_many(plan))
            for method in self._methods
        }

    def last_window(self) -> Optional[Dict[str, object]]:
        """Summaries of the most recently *completed* tumbling window.

        ``None`` when no window has completed yet -- or when the most
        recently completed window received no data (stream gap).
        """
        if self._window is None or self._window.kind != "tumbling":
            raise ValueError("last_window applies to tumbling windows only")
        if self._last_completed is None:
            return None
        (pane,) = self._last_completed
        return dict(pane.sealed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def methods(self) -> List[str]:
        """The registered method names."""
        return list(self._methods)

    @property
    def items_seen(self) -> int:
        """Total items ingested."""
        return self._items

    @property
    def batches_seen(self) -> int:
        """Total micro-batches ingested."""
        return self._batches

    @property
    def now(self) -> Optional[float]:
        """The stream clock (last timestamp seen)."""
        return self._now

    @property
    def num_panes(self) -> int:
        """Panes currently retained."""
        return len(self._panes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "landmark" if self._window is None else self._window.kind
        return (
            f"StreamEngine(methods={self._methods}, mode={mode}, "
            f"items={self._items}, panes={len(self._panes)})"
        )
