"""Bit-exact (de)serialization of *live* incremental summaries.

Sealed panes persist as plain summary frames
(:func:`repro.distributed.codec.to_bytes`).  Live builders need a
little more care, because resuming one mid-stream must continue the
exact update/snapshot trajectory the uninterrupted builder would have
taken:

* Native streamers (``obliv``/``exact``/``sketch``/``qdigest-stream``)
  already round-trip through the wire codec -- the VarOpt reservoir
  even carries its generator state, so a restored reservoir makes the
  same eviction decisions.  The one wrinkle is ``ExactSummary``, whose
  ``from_state`` resets the update counter; the counter feeds the
  stream engine's fold-seed derivation, so it is carried alongside the
  frame and restored explicitly.
* :class:`~repro.stream.incremental.BufferedRebuildSummary` persists
  its components (buffer store, last built summary, build counters);
  the rebuild schedule and rebuild seeds are pure functions of those.
"""

from __future__ import annotations

from repro.distributed import codec
from repro.stream.incremental import (
    BufferedRebuildSummary,
    incremental_summary,
)

__all__ = ["encode_incremental", "decode_incremental"]


def _frame_with_version(summary) -> dict:
    return {
        "frame": codec.to_bytes(summary),
        "version": int(summary.version),
    }


def _decode_with_version(spec: dict):
    summary = codec.from_bytes(spec["frame"])
    want = int(spec["version"])
    if summary.version != want:
        # ExactSummary (and anything else whose counter is not part of
        # its value state): restore the counter the codec dropped.
        summary._version = want
        if summary.version != want:
            raise ValueError(
                f"cannot restore version {want} on "
                f"{type(summary).__name__}"
            )
    return summary


def encode_incremental(inc) -> dict:
    """Persistable spec of one live incremental summary."""
    if isinstance(inc, BufferedRebuildSummary):
        return {
            "kind": "buffered",
            "buffer": _frame_with_version(inc._buffer),
            "built": (
                codec.to_bytes(inc._built)
                if inc._built is not None else None
            ),
            "built_n": int(inc._built_n),
            "rebuilds": int(inc._rebuilds),
        }
    return {"kind": "native", **_frame_with_version(inc)}


def decode_incremental(
    spec: dict,
    *,
    name: str,
    domain,
    size: int,
    seed: int,
):
    """Rebuild a live incremental summary from its persisted spec.

    ``name``/``domain``/``size``/``seed`` are the constructor
    arguments the original summary was built with (the engine knows
    them; they are not duplicated per record).
    """
    if spec["kind"] == "native":
        return _decode_with_version(spec)
    inc = incremental_summary(name, domain, size, seed)
    if not isinstance(inc, BufferedRebuildSummary):
        raise ValueError(
            f"method {name!r} is native but was persisted as buffered"
        )
    inc._buffer = _decode_with_version(spec["buffer"])
    inc._built = (
        codec.from_bytes(spec["built"])
        if spec["built"] is not None else None
    )
    inc._built_n = int(spec["built_n"])
    inc._rebuilds = int(spec["rebuilds"])
    return inc
