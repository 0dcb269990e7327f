"""The worker side of the distributed build/ingest protocol.

A worker is a stateful frame handler: the coordinator ships it control
messages (:func:`repro.distributed.codec.encode_message`) and it
answers with result frames.  The same runtime serves every transport
-- in-process, pipe, shared memory -- because transports only move
bytes.

Message protocol (all fields codec primitives):

* ``build``: one batch shard build.  Carries the method name, summary
  size, per-shard seed, the shard's rows, and the domain spec; replies
  ``result`` with the built summary as a codec frame.  Failures reply
  ``result`` with ``ok=False`` and the error text -- the coordinator
  decides whether to retry elsewhere.
* ``open_stream`` / ``ingest`` / ``snapshot``: the streaming path.  A
  landmark stream holds one incremental summary per method (exactly
  the stream engine's pane machinery); a stream opened with a
  ``window`` spec holds a full :class:`~repro.stream.engine.
  StreamEngine`, so tumbling/sliding panes seal at the same event-time
  boundaries they would in process.  ``ingest`` absorbs a micro-batch
  slice (fire-and-forget, no reply, timestamps ride along),
  ``snapshot`` freezes and ships every method's summary frame
  upstream.
* ``checkpoint`` -> ``checkpoint_state``: ship the stream's *live*
  state (serialized via :mod:`repro.durable`) so the coordinator can
  persist it; ``restore_stream`` rebuilds a stream from that state on
  a fresh worker -- the crash-recovery pair.
* ``ping`` -> ``pong``: health probe.
* ``shutdown``: clean exit.  ``exit``: abrupt exit without a reply
  (the crash-injection hook used by the retry tests).
"""

from __future__ import annotations

import traceback
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.types import Dataset
from repro.distributed import codec
from repro.engine import registry
from repro.stream.incremental import derive_seed, incremental_summary


def _writable(value):
    """A writable copy of a zero-copy decoded array (pass-through else)."""
    arr = np.asarray(value)
    return arr if arr.flags.writeable else arr.copy()


class WorkerRuntime:
    """Per-worker state machine: handles one decoded message at a time."""

    def __init__(self):
        #: stream id -> {"incs": {method: IncrementalSummary},
        #:               "domain": ProductDomain, "items": int}
        self._streams: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------
    def handle_frame(self, frame) -> Tuple[Optional[bytes], bool]:
        """Handle one message frame; returns ``(reply_frame, stop)``.

        ``frame`` may be ``bytes`` or a ``memoryview`` (shared-memory
        transports hand the mapped segment over directly).  Decoding is
        zero-copy: raw arrays are read-only views into the frame, which
        build tasks consume in place; handlers that retain state past
        this call (``ingest``) copy what they keep.

        Undecodable frames produce an ``error`` reply rather than
        killing the worker: a protocol mismatch should surface at the
        coordinator, not as a silent death.
        """
        try:
            message = codec.decode_message(frame, copy=False)
        except codec.CodecError as exc:
            reply = {"type": "error", "error": f"bad frame: {exc}"}
            return codec.encode_message(reply), False
        reply, stop = self.handle(message)
        encoded = codec.encode_message(reply) if reply is not None else None
        return encoded, stop

    def handle(self, message: dict) -> Tuple[Optional[dict], bool]:
        """Handle one decoded message; returns ``(reply, stop)``."""
        kind = message.get("type")
        if kind == "build":
            return self._handle_build(message), False
        if kind == "open_stream":
            return self._handle_open_stream(message), False
        if kind == "ingest":
            return self._handle_ingest(message), False
        if kind == "snapshot":
            return self._handle_snapshot(message), False
        if kind == "checkpoint":
            return self._handle_checkpoint(message), False
        if kind == "restore_stream":
            return self._handle_restore_stream(message), False
        if kind == "ping":
            return {"type": "pong"}, False
        if kind == "shutdown":
            return None, True
        if kind == "exit":  # crash simulation: vanish without a reply
            return None, True
        return {"type": "error", "error": f"unknown message {kind!r}"}, False

    # ------------------------------------------------------------------
    # Batch builds
    # ------------------------------------------------------------------
    def _handle_build(self, message: dict) -> dict:
        task_id = message.get("task_id", -1)
        try:
            domain = codec.decode_domain(message["domain"])
            shard = Dataset(
                coords=message["coords"],
                weights=message["weights"],
                domain=domain,
            )
            rng = np.random.default_rng(int(message["seed"]))
            summary = registry.build(
                message["method"], shard, int(message["size"]), rng
            )
            return {
                "type": "result",
                "task_id": task_id,
                "ok": True,
                "summary": codec.to_bytes(summary),
                "size": int(getattr(summary, "size", 0)),
            }
        except Exception:
            return {
                "type": "result",
                "task_id": task_id,
                "ok": False,
                "error": traceback.format_exc(limit=8),
            }

    # ------------------------------------------------------------------
    # Streaming ingest
    # ------------------------------------------------------------------
    def _open_state(self, message: dict) -> dict:
        """Build a stream's state dict from an open/restore message.

        A ``window`` spec upgrades the stream from the flat landmark
        incs to a full :class:`~repro.stream.engine.StreamEngine`, so
        pane boundaries on the worker match the in-process engine's.
        """
        domain = codec.decode_domain(message["domain"])
        seed = int(message["seed"])
        window_spec = message.get("window")
        if window_spec is not None:
            from repro.stream.engine import StreamEngine, Window

            engine = StreamEngine(
                domain,
                list(message["methods"]),
                int(message["size"]),
                window=Window(
                    window_spec["kind"],
                    float(window_spec["width"]),
                    float(window_spec["pane"]),
                ),
                seed=seed,
            )
            return {
                "engine": engine,
                "incs": None,
                "domain": domain,
                "items": 0,
                "error": None,
            }
        incs = {
            name: incremental_summary(
                name,
                domain,
                int(message["size"]),
                seed=derive_seed(seed, name),
            )
            for name in message["methods"]
        }
        return {
            "engine": None,
            "incs": incs,
            "domain": domain,
            "items": 0,
            "error": None,
        }

    def _handle_open_stream(self, message: dict) -> dict:
        try:
            stream_id = message["stream"]
            self._streams[stream_id] = self._open_state(message)
            return {"type": "opened", "stream": stream_id, "ok": True}
        except Exception:
            return {
                "type": "opened",
                "stream": message.get("stream"),
                "ok": False,
                "error": traceback.format_exc(limit=8),
            }

    def _handle_ingest(self, message: dict) -> Optional[dict]:
        # Fire-and-forget: ingest errors are recorded, not raised, and
        # surface as a failed reply at the next snapshot -- a bad
        # batch must not kill the worker and silently lose its slice.
        stream = self._streams.get(message.get("stream"))
        if stream is None:
            return None
        try:
            # Ingested batches outlive this frame (incremental
            # summaries may retain slices), so detach them from the
            # zero-copy decode before updating.
            coords = _writable(message["coords"])
            weights = _writable(message["weights"])
            engine = stream["engine"]
            if engine is not None:
                from repro.stream.types import MicroBatch

                timestamp = message.get("timestamp")
                stamps = message.get("timestamps")
                engine.process(MicroBatch(
                    coords,
                    weights,
                    None if timestamp is None else float(timestamp),
                    None if stamps is None else _writable(stamps),
                ))
                stream["items"] = engine.items_seen
            else:
                for inc in stream["incs"].values():
                    inc.update(coords, weights)
                stream["items"] += int(np.asarray(weights).shape[0])
        except Exception:
            stream["error"] = traceback.format_exc(limit=8)
        return None

    def _handle_snapshot(self, message: dict) -> dict:
        request_id = message.get("request_id", -1)
        stream_id = message.get("stream")
        stream = self._streams.get(stream_id)
        if stream is None:
            return {
                "type": "snapshots",
                "stream": stream_id,
                "request_id": request_id,
                "ok": False,
                "error": f"unknown stream {stream_id!r}",
            }
        if stream["error"] is not None:
            return {
                "type": "snapshots",
                "stream": stream_id,
                "request_id": request_id,
                "ok": False,
                "error": f"ingest failed earlier:\n{stream['error']}",
            }
        try:
            engine = stream["engine"]
            if engine is not None:
                summaries = {
                    name: codec.to_bytes(engine.snapshot(name))
                    for name in engine.methods
                }
            else:
                summaries = {
                    name: codec.to_bytes(inc.snapshot())
                    for name, inc in stream["incs"].items()
                }
            return {
                "type": "snapshots",
                "stream": stream_id,
                "request_id": request_id,
                "ok": True,
                "summaries": summaries,
                "items": stream["items"],
            }
        except Exception:
            return {
                "type": "snapshots",
                "stream": stream_id,
                "request_id": request_id,
                "ok": False,
                "error": traceback.format_exc(limit=8),
            }

    # ------------------------------------------------------------------
    # Crash recovery: checkpoint shipping + state restoration
    # ------------------------------------------------------------------
    def _handle_checkpoint(self, message: dict) -> dict:
        request_id = message.get("request_id", -1)
        stream_id = message.get("stream")
        stream = self._streams.get(stream_id)
        if stream is None or stream["error"] is not None:
            error = (
                f"unknown stream {stream_id!r}" if stream is None
                else f"ingest failed earlier:\n{stream['error']}"
            )
            return {
                "type": "checkpoint_state",
                "stream": stream_id,
                "request_id": request_id,
                "ok": False,
                "error": error,
            }
        try:
            from repro.durable import encode_incremental

            engine = stream["engine"]
            if engine is not None:
                state = {
                    "kind": "engine",
                    "payload": engine._checkpoint_payload(),
                }
            else:
                state = {
                    "kind": "landmark",
                    "incs": {
                        name: encode_incremental(inc)
                        for name, inc in stream["incs"].items()
                    },
                }
            return {
                "type": "checkpoint_state",
                "stream": stream_id,
                "request_id": request_id,
                "ok": True,
                "state": state,
                "items": stream["items"],
            }
        except Exception:
            return {
                "type": "checkpoint_state",
                "stream": stream_id,
                "request_id": request_id,
                "ok": False,
                "error": traceback.format_exc(limit=8),
            }

    def _handle_restore_stream(self, message: dict) -> dict:
        """Open a stream pre-loaded with checkpointed live state."""
        try:
            stream_id = message["stream"]
            entry = self._open_state(message)
            state = message["state"]
            if state["kind"] == "engine":
                entry["engine"]._restore_from_payload(state["payload"])
                entry["items"] = entry["engine"].items_seen
            else:
                from repro.durable import decode_incremental

                domain = entry["domain"]
                seed = int(message["seed"])
                entry["incs"] = {
                    name: decode_incremental(
                        spec,
                        name=name,
                        domain=domain,
                        size=int(message["size"]),
                        seed=derive_seed(seed, name),
                    )
                    for name, spec in state["incs"].items()
                }
                entry["items"] = int(message.get("items", 0))
            self._streams[stream_id] = entry
            return {"type": "restored", "stream": stream_id, "ok": True}
        except Exception:
            return {
                "type": "restored",
                "stream": message.get("stream"),
                "ok": False,
                "error": traceback.format_exc(limit=8),
            }
