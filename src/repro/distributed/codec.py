"""Versioned compact wire codecs for summaries and control messages.

The distributed subsystem ships summaries and task/result messages as
raw bytes over pluggable transports (inline calls, pipes, shared
memory), so it needs a serialization layer that is

* **compact** -- NumPy arrays travel as raw buffers plus a dtype/shape
  header, not as pickled objects, and large arrays are additionally
  compressed with per-array codec flags (delta + zigzag varint for
  int64 coordinate arrays, byte-shuffle + zlib for float64 weights)
  whenever that actually saves bytes;
* **versioned** -- every frame starts with a magic marker and a format
  version byte, so a reader can reject frames from an incompatible
  peer instead of mis-parsing them;
* **bit-exact** -- a summary decoded from its frame answers every
  query identically to the original and merges identically, which is
  what makes distributed builds statistically indistinguishable from
  local ones (see the round-trip test suite);
* **self-describing** -- frames carry the summary's wire tag (from
  :func:`repro.engine.registry.register_codec`), so a coordinator can
  decode whatever a worker ships without out-of-band type knowledge.

Two layers:

* :func:`encode_value` / :func:`decode_value` -- a small tagged binary
  format for the primitives summary state is made of (``None``, bools,
  ints of any size, floats, strings, bytes, lists, tuples, dicts, and
  ndarrays).  Deliberately *not* pickle: no code execution on decode,
  stable across Python versions.
* :func:`to_bytes` / :func:`from_bytes` -- summary frames: magic +
  version + wire tag + the encoded ``to_state()`` dict of the summary
  (the codec hooks registered next to each summary class).

Wire version 2 adds the coded-array tag (see ``WIRE_FORMAT.md``);
encoding with ``compress=False`` emits byte-identical version-1 frames,
and this reader decodes both versions.  Decoding with ``copy=False``
returns read-only ``np.frombuffer`` views into the frame for raw
arrays instead of copying -- callers opt in when the frame outlives
the arrays (immutable ``bytes`` frames do; reused shared-memory
segments do not).
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Tuple, Union

import numpy as np

from repro.engine import registry
from repro.structures.hierarchy import (
    BitHierarchy,
    ExplicitHierarchy,
    RadixHierarchy,
)
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain

#: Frame magic for summary frames ("RePro SUMmary").
MAGIC = b"RSUM"
#: Current wire format version.  Bump on any incompatible change.
WIRE_VERSION = 2
#: The last wire version whose frames carried only raw arrays; frames
#: encoded with ``compress=False`` are stamped (and stay byte-identical
#: to) this version, so version-1 readers can still be fed by this
#: writer.
RAW_WIRE_VERSION = 1
#: Versions this reader decodes.
SUPPORTED_WIRE_VERSIONS = frozenset({1, 2})

#: Per-array codec ids carried by the coded-array tag.
CODEC_RAW = 0
CODEC_DELTA_VARINT = 1
CODEC_SHUFFLE_ZLIB = 2

#: Arrays below this raw byte size always travel raw: the coded-array
#: header plus codec overhead cannot pay for itself.
_MIN_CODED_BYTES = 128

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class CodecError(ValueError):
    """Malformed, truncated, or incompatible wire data."""


class VersionMismatchError(CodecError):
    """The frame was produced by an incompatible wire format version."""


class TruncatedPayloadError(CodecError):
    """The data ends before the structure it announces is complete."""


# ----------------------------------------------------------------------
# Array codecs
# ----------------------------------------------------------------------

def _encode_varints(values: np.ndarray) -> np.ndarray:
    """LEB128-encode a uint64 vector into one uint8 payload.

    Vectorized: per-value byte counts come from nine threshold
    comparisons, byte offsets from one cumsum, and the payload is
    assembled in at most ten per-byte-position passes.
    """
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    lengths = np.ones(values.shape[0], dtype=np.int64)
    for group in range(1, 10):
        lengths += values >= (np.uint64(1) << np.uint64(7 * group))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    payload = np.zeros(int(ends[-1]), dtype=np.uint8)
    for byte_index in range(10):
        mask = lengths > byte_index
        if not mask.any():
            break
        chunk = (
            (values[mask] >> np.uint64(7 * byte_index)) & np.uint64(0x7F)
        ).astype(np.uint8)
        more = (lengths[mask] - 1 > byte_index).astype(np.uint8)
        payload[starts[mask] + byte_index] = chunk | (more << 7)
    return payload


def _decode_varints(payload: np.ndarray, expected: int) -> np.ndarray:
    """Decode ``expected`` LEB128 values from a uint8 payload (strict)."""
    if payload.size and payload[-1] & 0x80:
        raise TruncatedPayloadError("varint payload ends mid-value")
    ends = np.flatnonzero((payload & 0x80) == 0)
    if ends.size != expected:
        raise CodecError(
            f"varint payload holds {ends.size} values, expected {expected}"
        )
    if expected == 0:
        return np.empty(0, dtype=np.uint64)
    starts = np.empty(expected, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > 10:
        raise CodecError("varint value exceeds 10 bytes")
    values = np.zeros(expected, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for byte_index in range(10):
            mask = lengths > byte_index
            if not mask.any():
                break
            chunk = payload[starts[mask] + byte_index].astype(np.uint64)
            values[mask] |= (
                (chunk & np.uint64(0x7F)) << np.uint64(7 * byte_index)
            )
    return values


def _delta_varint_encode(arr: np.ndarray) -> bytes:
    """Delta + zigzag + varint payload for a 64-bit integer array.

    Multi-dimensional arrays delta over the column-major (``F``) flat
    order: coordinate arrays are ``(n, d)`` with each column
    near-sorted, so column-wise deltas are the small ones.  All
    arithmetic is modular uint64, hence wraparound-safe for any input.
    """
    flat = np.ravel(arr, order="F" if arr.ndim > 1 else "C")
    bits = np.ascontiguousarray(flat).view(np.uint64)
    with np.errstate(over="ignore"):
        deltas = np.empty_like(bits)
        deltas[:1] = bits[:1]
        np.subtract(bits[1:], bits[:-1], out=deltas[1:])
        signed = deltas.view(np.int64)
        zigzag = ((signed << np.int64(1)) ^ (signed >> np.int64(63))).view(
            np.uint64
        )
    return _encode_varints(zigzag).tobytes()


def _delta_varint_decode(
    payload: np.ndarray, dtype: np.dtype, shape: Tuple[int, ...]
) -> np.ndarray:
    count = 1
    for dim in shape:
        count *= dim
    zigzag = _decode_varints(payload, count)
    with np.errstate(over="ignore"):
        signed = (
            (zigzag >> np.uint64(1))
            ^ (np.uint64(0) - (zigzag & np.uint64(1)))
        )
        bits = np.cumsum(signed, dtype=np.uint64)
    arr = bits.view(dtype)
    if len(shape) > 1:
        return arr.reshape(shape, order="F")
    return arr.reshape(shape)


def _shuffle_zlib_encode(arr: np.ndarray) -> bytes:
    """Byte-shuffle + zlib payload (float arrays).

    Transposing the ``(n, itemsize)`` byte matrix groups same-position
    bytes -- exponents with exponents -- which is what makes deflate
    bite on floating-point data.
    """
    data = np.ascontiguousarray(arr)
    itemsize = data.dtype.itemsize
    planes = np.frombuffer(data.tobytes(), dtype=np.uint8)
    shuffled = planes.reshape(-1, itemsize).T.tobytes()
    return zlib.compress(shuffled, 1)


def _shuffle_zlib_decode(
    payload: np.ndarray, dtype: np.dtype, shape: Tuple[int, ...]
) -> np.ndarray:
    try:
        shuffled = zlib.decompress(payload.tobytes())
    except zlib.error as exc:
        raise CodecError(f"corrupt compressed array payload: {exc}") from exc
    count = 1
    for dim in shape:
        count *= dim
    itemsize = dtype.itemsize
    if len(shuffled) != count * itemsize:
        raise CodecError(
            f"compressed array decodes to {len(shuffled)} bytes, "
            f"expected {count * itemsize}"
        )
    arr = np.empty(count, dtype=dtype)
    arr.view(np.uint8).reshape(count, itemsize)[...] = (
        np.frombuffer(shuffled, dtype=np.uint8).reshape(itemsize, count).T
    )
    return arr.reshape(shape)


def encode_array(arr: np.ndarray, codec_id: int) -> bytes:
    """The coded payload of ``arr`` under one specific codec id."""
    if codec_id == CODEC_DELTA_VARINT:
        return _delta_varint_encode(arr)
    if codec_id == CODEC_SHUFFLE_ZLIB:
        return _shuffle_zlib_encode(arr)
    raise CodecError(f"unknown array codec id {codec_id}")


def decode_array(
    payload, dtype: np.dtype, shape: Tuple[int, ...], codec_id: int
) -> np.ndarray:
    """Decode one coded payload back into a (fresh, writable) array."""
    raw = np.frombuffer(payload, dtype=np.uint8)
    if codec_id == CODEC_DELTA_VARINT:
        return _delta_varint_decode(raw, dtype, shape)
    if codec_id == CODEC_SHUFFLE_ZLIB:
        return _shuffle_zlib_decode(raw, dtype, shape)
    raise CodecError(f"unknown array codec id {codec_id}")


def choose_codec(arr: np.ndarray) -> Tuple[int, bytes]:
    """Pick the smallest wire representation for one array.

    Returns ``(codec_id, payload)``; ``(CODEC_RAW, b"")`` means no
    codec beats the raw buffer (the payload is then ``arr.tobytes()``
    under the raw tag).  A codec is kept only when its payload is
    *strictly* smaller than raw, so coded frames are never larger.
    """
    if arr.nbytes < _MIN_CODED_BYTES:
        return CODEC_RAW, b""
    dtype_str = arr.dtype.str
    if dtype_str in ("<i8", "<u8"):
        payload = _delta_varint_encode(arr)
        codec_id = CODEC_DELTA_VARINT
    elif dtype_str in ("<f8", "<f4"):
        payload = _shuffle_zlib_encode(arr)
        codec_id = CODEC_SHUFFLE_ZLIB
    else:
        return CODEC_RAW, b""
    if len(payload) < arr.nbytes:
        return codec_id, payload
    return CODEC_RAW, b""


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------

def _encode_array_into(arr: np.ndarray, out: list, compress: bool) -> None:
    arr = np.ascontiguousarray(arr)
    dtype = arr.dtype.str.encode("ascii")
    codec_id, payload = (
        choose_codec(arr) if compress else (CODEC_RAW, b"")
    )
    if codec_id == CODEC_RAW:
        out.append(b"a")
    else:
        out.append(b"A")
    out.append(_U8.pack(len(dtype)))
    out.append(dtype)
    out.append(_U8.pack(arr.ndim))
    for dim in arr.shape:
        out.append(_U32.pack(dim))
    if codec_id == CODEC_RAW:
        out.append(arr.tobytes())
    else:
        out.append(_U8.pack(codec_id))
        out.append(_U32.pack(len(payload)))
        out.append(payload)


def _encode_into(value: Any, out: list, compress: bool) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            # Arbitrary-precision ints (e.g. 128-bit PCG64 state words).
            raw = value.to_bytes(
                (value.bit_length() + 8) // 8, "little", signed=True
            )
            out.append(b"I")
            out.append(_U32.pack(len(raw)))
            out.append(raw)
    elif isinstance(value, (float, np.floating)):
        out.append(b"f")
        out.append(_F64.pack(float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(b"b")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, np.ndarray):
        _encode_array_into(value, out, compress)
    elif isinstance(value, (list, tuple)):
        out.append(b"l" if isinstance(value, list) else b"t")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(item, out, compress)
    elif isinstance(value, dict):
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_into(key, out, compress)
            _encode_into(item, out, compress)
    else:
        raise CodecError(
            f"cannot encode {type(value).__name__} on the wire"
        )


def encode_value(value: Any, *, compress: bool = True) -> bytes:
    """Encode one value (summary state, message dict) to bytes.

    ``compress=False`` forces every array onto the raw tag -- the
    output is then byte-identical to what a wire-version-1 writer
    produced.
    """
    out: list = []
    _encode_into(value, out, compress)
    return b"".join(out)


def _as_buffer(data) -> Union[bytes, memoryview]:
    """Normalize frame input without copying immutable/shared buffers."""
    if isinstance(data, bytes):
        return data
    if isinstance(data, memoryview):
        return data.cast("B")
    # bytearray and friends are mutable: snapshot them.
    return bytes(data)


class _Reader:
    """Cursor over a byte buffer with strict bounds checking.

    Accepts ``bytes`` or a ``memoryview`` (shared-memory transports
    hand frames over as views).  With ``copy=False`` raw arrays come
    back as read-only views into the buffer; everything else is always
    detached.
    """

    __slots__ = ("data", "pos", "copy")

    def __init__(self, data, copy: bool = True):
        self.data = _as_buffer(data)
        self.pos = 0
        self.copy = copy

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise TruncatedPayloadError(
                f"need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk if isinstance(chunk, bytes) else bytes(chunk)

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def _array_header(self) -> Tuple[np.dtype, Tuple[int, ...], int]:
        dtype = np.dtype(self.take(self.u8()).decode("ascii"))
        shape = tuple(self.u32() for _ in range(self.u8()))
        count = 1
        for dim in shape:
            count *= dim
        return dtype, shape, count

    def value(self) -> Any:
        tag = self.take(1)
        if tag == b"N":
            return None
        if tag == b"T":
            return True
        if tag == b"F":
            return False
        if tag == b"i":
            return _I64.unpack(self.take(8))[0]
        if tag == b"I":
            return int.from_bytes(self.take(self.u32()), "little",
                                  signed=True)
        if tag == b"f":
            return _F64.unpack(self.take(8))[0]
        if tag == b"s":
            return self.take(self.u32()).decode("utf-8")
        if tag == b"b":
            return self.take(self.u32())
        if tag == b"a":
            dtype, shape, count = self._array_header()
            nbytes = count * dtype.itemsize
            if self.pos + nbytes > len(self.data):
                raise TruncatedPayloadError(
                    f"array of {nbytes} bytes at offset {self.pos} "
                    f"exceeds the frame"
                )
            arr = np.frombuffer(
                self.data, dtype=dtype, count=count, offset=self.pos
            ).reshape(shape)
            self.pos += nbytes
            if self.copy:
                # Detached, writable -- safe whatever the frame's fate.
                return arr.copy()
            arr.flags.writeable = False
            return arr
        if tag == b"A":
            dtype, shape, count = self._array_header()
            codec_id = self.u8()
            payload = self.take(self.u32())
            # Coded payloads always decode into fresh writable arrays;
            # the zero-copy opt-out only concerns the raw tag.
            return decode_array(payload, dtype, shape, codec_id)
        if tag in (b"l", b"t"):
            items = [self.value() for _ in range(self.u32())]
            return items if tag == b"l" else tuple(items)
        if tag == b"d":
            count = self.u32()
            out = {}
            for _ in range(count):
                key = self.value()
                out[key] = self.value()
            return out
        raise CodecError(f"unknown value tag {tag!r} at offset {self.pos - 1}")


def decode_value(data, *, copy: bool = True) -> Any:
    """Decode bytes produced by :func:`encode_value` (strict).

    ``copy=False`` returns raw arrays as read-only views into ``data``
    -- the caller guarantees the buffer outlives them.
    """
    reader = _Reader(data, copy=copy)
    value = reader.value()
    if reader.pos != len(reader.data):
        raise CodecError(
            f"{len(reader.data) - reader.pos} trailing bytes after value"
        )
    return value


def _check_version(version: int, what: str) -> None:
    if version not in SUPPORTED_WIRE_VERSIONS:
        supported = sorted(SUPPORTED_WIRE_VERSIONS)
        raise VersionMismatchError(
            f"{what} is wire version {version}, this reader speaks "
            f"{supported}"
        )


# ----------------------------------------------------------------------
# Summary frames
# ----------------------------------------------------------------------

def to_bytes(summary, *, compress: bool = True) -> bytes:
    """Serialize a summary into a versioned, self-describing frame.

    The summary's class must be registered with
    :func:`repro.engine.registry.register_codec`; its ``to_state()``
    hook provides the state, this layer provides the framing.
    ``compress=False`` emits a byte-identical version-1 (all-raw)
    frame -- used by zero-copy transports, where raw views beat any
    decompression.
    """
    tag = registry.codec_tag(summary).encode("utf-8")
    if len(tag) > 255:
        raise CodecError("codec tag too long")
    return b"".join([
        MAGIC,
        _U8.pack(WIRE_VERSION if compress else RAW_WIRE_VERSION),
        _U8.pack(len(tag)),
        tag,
        encode_value(summary.to_state(), compress=compress),
    ])


def from_bytes(data, *, copy: bool = True):
    """Reconstruct a summary from a frame produced by :func:`to_bytes`."""
    reader = _Reader(data, copy=copy)
    magic = reader.take(4)
    if magic != MAGIC:
        raise CodecError(f"bad frame magic {magic!r}")
    _check_version(reader.u8(), "frame")
    tag = reader.take(reader.u8()).decode("utf-8")
    cls = registry.codec_class(tag)
    state = reader.value()
    if reader.pos != len(reader.data):
        raise CodecError(
            f"{len(reader.data) - reader.pos} trailing bytes after frame"
        )
    return cls.from_state(state)


# ----------------------------------------------------------------------
# Domain specs (workers rebuild shard datasets from these)
# ----------------------------------------------------------------------

def encode_domain(domain: ProductDomain) -> list:
    """A :class:`ProductDomain` as a codec-friendly axis-spec list."""
    axes = []
    for axis in domain.axes:
        if isinstance(axis, BitHierarchy):
            axes.append(("bits", axis.bits))
        elif isinstance(axis, RadixHierarchy):
            axes.append(("radix", tuple(axis.branchings)))
        elif isinstance(axis, OrderedDomain):
            axes.append(("order", axis.size))
        else:
            raise CodecError(
                f"cannot encode domain axis {type(axis).__name__}"
            )
    return axes


def decode_domain(axes: list) -> ProductDomain:
    """Rebuild a :class:`ProductDomain` from :func:`encode_domain`."""
    decoded = []
    for kind, spec in axes:
        if kind == "bits":
            decoded.append(BitHierarchy(int(spec)))
        elif kind == "radix":
            decoded.append(ExplicitHierarchy([int(b) for b in spec]))
        elif kind == "order":
            decoded.append(OrderedDomain(int(spec)))
        else:
            raise CodecError(f"unknown domain axis kind {kind!r}")
    return ProductDomain(decoded)


# ----------------------------------------------------------------------
# Control messages (tasks, results, stream ops)
# ----------------------------------------------------------------------

#: Magic for control-message frames ("RePro MSG").
MSG_MAGIC = b"RMSG"


def encode_message(message: dict, *, compress: bool = True) -> bytes:
    """Frame one coordinator/worker control message."""
    if not isinstance(message, dict) or "type" not in message:
        raise CodecError("messages must be dicts with a 'type' field")
    return b"".join([
        MSG_MAGIC,
        _U8.pack(WIRE_VERSION if compress else RAW_WIRE_VERSION),
        encode_value(message, compress=compress),
    ])


def decode_message(data, *, copy: bool = True) -> dict:
    """Decode one control message frame.

    ``copy=False`` returns raw arrays as read-only views into ``data``
    (see :func:`decode_value`).
    """
    reader = _Reader(data, copy=copy)
    magic = reader.take(4)
    if magic != MSG_MAGIC:
        raise CodecError(f"bad message magic {magic!r}")
    _check_version(reader.u8(), "message")
    message = reader.value()
    if reader.pos != len(reader.data):
        raise CodecError(
            f"{len(reader.data) - reader.pos} trailing bytes after message"
        )
    if not isinstance(message, dict) or "type" not in message:
        raise CodecError("decoded message lacks a 'type' field")
    return message
