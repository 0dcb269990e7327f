"""Durable checkpoint store: append-only log and WAL-mode SQLite backends.

A :class:`CheckpointStore` persists the streaming tier's recovery
state as an ordered sequence of *records* per stream.  Each record is
``(seq, kind, pane, payload)`` where ``payload`` is any value the wire
codec (:mod:`repro.distributed.codec`) encodes -- so persisted pane
summaries are exactly the frames the distributed tier already ships,
bit-exact and compressed for free.

Record kinds (the engine's contract, see ``DURABILITY.md``):

* ``open`` -- stream configuration (methods, size, seed, window,
  domain spec).  Written once, survives every truncation.
* ``batch`` -- one ingested micro-batch *plus the pre-ingest counter
  state*, logged before processing (write-ahead).  ``pane`` is the
  batch's last destination pane.
* ``seal`` -- a sealed pane's frozen summary frames.  ``pane`` is the
  pane index.
* ``state`` -- a full engine checkpoint (all retained panes + clocks).

Two interchangeable backends:

* :class:`LogCheckpointStore` -- one append-only file per stream,
  length-prefixed CRC-framed records; a torn tail (partial write at
  crash) is detected and truncated on open.
* :class:`SQLiteCheckpointStore` -- a single WAL-mode database with
  resume-state tables (per-stream high-water mark, pane index,
  checkpoint version) maintained transactionally with every append.

Both expose the same API and the same semantics; every recovery test
runs against both.
"""

from __future__ import annotations

import os
import sqlite3
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.distributed import codec

__all__ = [
    "Record",
    "CheckpointStore",
    "LogCheckpointStore",
    "SQLiteCheckpointStore",
    "open_store",
]

#: Valid record kinds, in no particular order.
RECORD_KINDS = ("open", "batch", "seal", "state")


@dataclass(frozen=True)
class Record:
    """One persisted record of a stream's history."""

    stream: str
    seq: int
    kind: str
    pane: int
    payload: object


class CheckpointStore:
    """Common surface of both durable backends.

    ``append`` returns the record's per-stream sequence number
    (monotone from 0).  ``compress=False`` skips array compression --
    the hot ingest path logs raw for speed; seal and state records
    compress (their summary frames are already compressed by the
    summary codec regardless).
    """

    def append(
        self,
        stream: str,
        kind: str,
        payload,
        *,
        pane: int = -1,
        compress: bool = True,
    ) -> int:
        raise NotImplementedError

    def records(self, stream: str, *, min_seq: int = 0) -> List[Record]:
        """All retained records of ``stream``, in seq order."""
        raise NotImplementedError

    def streams(self) -> List[str]:
        """Names of every stream with at least one record."""
        raise NotImplementedError

    def truncate(self, stream: str, below_seq: int) -> int:
        """Drop every non-``open`` record with ``seq < below_seq``.

        Called after a ``state`` checkpoint: everything before it is
        embedded in the checkpoint.  Returns the number dropped.
        """
        raise NotImplementedError

    def prune(
        self,
        stream: str,
        kind: str,
        *,
        max_pane: Optional[int] = None,
        below_seq: Optional[int] = None,
    ) -> int:
        """Drop records of one ``kind`` matching the given bounds.

        ``max_pane`` drops records with ``pane <= max_pane`` (seal-time
        compaction of the batch replay log); ``below_seq`` drops
        records with ``seq < below_seq``.  Returns the number dropped.
        """
        raise NotImplementedError

    def resume_state(self, stream: str) -> Dict[str, int]:
        """The stream's high-water marks.

        ``next_seq`` (first unused sequence number),
        ``last_sealed_pane`` (-1 if none), ``checkpoint_seq`` (seq of
        the latest ``state`` record, -1 if none) and ``checkpoints``
        (how many checkpoints were ever taken -- the snapshot version).
        """
        raise NotImplementedError

    def sync(self) -> None:
        """Force durability of everything appended so far."""

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # Shared validation -------------------------------------------------
    @staticmethod
    def _check_kind(kind: str) -> None:
        if kind not in RECORD_KINDS:
            raise ValueError(
                f"unknown record kind {kind!r}; have {RECORD_KINDS}"
            )


# ----------------------------------------------------------------------
# Append-only log backend
# ----------------------------------------------------------------------

_LOG_MAGIC = b"RDUR"
_LOG_VERSION = 1
_HEADER = struct.Struct("<IIqI")  # body length, seq, pane, crc32(body)
_KIND_CODES = {kind: i for i, kind in enumerate(RECORD_KINDS)}
_KIND_NAMES = {i: kind for kind, i in _KIND_CODES.items()}


def _stream_filename(stream: str) -> str:
    """A filesystem-safe, collision-free file name for a stream id."""
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in stream
    )
    return f"{safe}-{zlib.crc32(stream.encode('utf-8')):08x}.rdur"


class LogCheckpointStore(CheckpointStore):
    """One append-only CRC-framed log file per stream.

    Layout: a 5-byte header (``RDUR`` + format version), then records
    ``<u32 body_len><u32 seq'...><record body><...crc>`` -- see
    ``_HEADER``; the body is ``<u8 kind>`` + the codec-encoded payload.
    A torn tail (header or body cut short, or CRC mismatch -- the
    signature of a crash mid-append) truncates the file back to the
    last whole record on open; everything before it is intact by CRC.

    Records are mirrored in memory (the compaction machinery keeps
    them bounded), so reads never touch the disk after open and
    ``prune``/``truncate`` rewrite the file atomically via a temp file
    + ``os.replace``.
    """

    def __init__(self, directory: str):
        self._dir = str(directory)
        os.makedirs(self._dir, exist_ok=True)
        self._lock = threading.Lock()
        #: stream -> list[Record]; mirrors the on-disk files.
        self._records: Dict[str, List[Record]] = {}
        #: stream -> open append handle.
        self._handles: Dict[str, object] = {}
        self._next_seq: Dict[str, int] = {}
        self._closed = False
        for name in sorted(os.listdir(self._dir)):
            if name.endswith(".rdur"):
                self._load(os.path.join(self._dir, name))

    # -- file plumbing --------------------------------------------------
    def _path(self, stream: str) -> str:
        return os.path.join(self._dir, _stream_filename(stream))

    def _load(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 5 or data[:4] != _LOG_MAGIC:
            raise ValueError(f"{path}: not a checkpoint log")
        if data[4] != _LOG_VERSION:
            raise ValueError(
                f"{path}: log version {data[4]} != {_LOG_VERSION}"
            )
        pos, good = 5, 5
        records: List[Record] = []
        stream = None
        while True:
            header = data[pos:pos + _HEADER.size]
            if len(header) < _HEADER.size:
                break  # torn or clean EOF
            body_len, seq, pane, crc = _HEADER.unpack(header)
            body = data[pos + _HEADER.size:pos + _HEADER.size + body_len]
            if len(body) < body_len or zlib.crc32(body) != crc:
                break  # torn tail: truncate back to `good`
            kind = _KIND_NAMES.get(body[0])
            if kind is None:
                break
            value = codec.decode_value(body[1:])
            stream = value["stream"]
            records.append(
                Record(stream, seq, kind, pane, value["payload"])
            )
            pos += _HEADER.size + body_len
            good = pos
        if good < len(data):
            with open(path, "r+b") as fh:
                fh.truncate(good)
        if stream is None and records == []:
            # Header-only (or fully torn) file: nothing to resume.
            os.remove(path)
            return
        self._records[stream] = records
        self._next_seq[stream] = (records[-1].seq + 1) if records else 0

    def _handle(self, stream: str):
        fh = self._handles.get(stream)
        if fh is None:
            path = self._path(stream)
            fresh = not os.path.exists(path)
            fh = open(path, "ab")
            if fresh:
                fh.write(_LOG_MAGIC + bytes([_LOG_VERSION]))
            self._handles[stream] = fh
        return fh

    @staticmethod
    def _frame(record: Record, *, compress: bool) -> bytes:
        # body = kind byte + encoded value; its CRC chains over the two
        # parts, so the (batch-sized) value is copied once, by the join.
        kind = bytes([_KIND_CODES[record.kind]])
        value = codec.encode_value(
            {"stream": record.stream, "payload": record.payload},
            compress=compress,
        )
        header = _HEADER.pack(
            len(value) + 1, record.seq, record.pane,
            zlib.crc32(value, zlib.crc32(kind)),
        )
        return b"".join((header, kind, value))

    def _rewrite(self, stream: str) -> None:
        """Atomically replace the stream's file with its live records."""
        fh = self._handles.pop(stream, None)
        if fh is not None:
            fh.close()
        path = self._path(stream)
        tmp = path + ".tmp"
        with open(tmp, "wb") as out:
            out.write(_LOG_MAGIC + bytes([_LOG_VERSION]))
            for record in self._records[stream]:
                out.write(self._frame(record, compress=True))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)

    # -- CheckpointStore API --------------------------------------------
    def append(self, stream, kind, payload, *, pane=-1, compress=True):
        self._check_kind(kind)
        with self._lock:
            seq = self._next_seq.get(stream, 0)
            record = Record(stream, seq, kind, int(pane), payload)
            fh = self._handle(stream)
            fh.write(self._frame(record, compress=compress))
            fh.flush()
            self._records.setdefault(stream, []).append(record)
            self._next_seq[stream] = seq + 1
            return seq

    def records(self, stream, *, min_seq=0):
        with self._lock:
            return [
                r for r in self._records.get(stream, ())
                if r.seq >= min_seq
            ]

    def streams(self):
        with self._lock:
            return sorted(self._records)

    def truncate(self, stream, below_seq):
        with self._lock:
            return self._filter(
                stream,
                lambda r: r.kind == "open" or r.seq >= below_seq,
            )

    def prune(self, stream, kind, *, max_pane=None, below_seq=None):
        self._check_kind(kind)

        def keep(r: Record) -> bool:
            if r.kind != kind:
                return True
            if max_pane is not None and r.pane > max_pane:
                return True
            if below_seq is not None and r.seq >= below_seq:
                return True
            return False

        with self._lock:
            return self._filter(stream, keep)

    def _filter(self, stream, keep) -> int:
        old = self._records.get(stream)
        if not old:
            return 0
        new = [r for r in old if keep(r)]
        dropped = len(old) - len(new)
        if dropped:
            self._records[stream] = new
            self._rewrite(stream)
        return dropped

    def resume_state(self, stream):
        with self._lock:
            records = self._records.get(stream, [])
            sealed = [r.pane for r in records if r.kind == "seal"]
            states = [r.seq for r in records if r.kind == "state"]
            return {
                "next_seq": self._next_seq.get(stream, 0),
                "last_sealed_pane": max(sealed, default=-1),
                "checkpoint_seq": max(states, default=-1),
                "checkpoints": len(states),
            }

    def sync(self):
        with self._lock:
            for fh in self._handles.values():
                fh.flush()
                os.fsync(fh.fileno())

    def close(self):
        with self._lock:
            if self._closed:
                return
            for fh in self._handles.values():
                fh.flush()
                os.fsync(fh.fileno())
                fh.close()
            self._handles.clear()
            self._closed = True


# ----------------------------------------------------------------------
# WAL-mode SQLite backend
# ----------------------------------------------------------------------

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    stream  TEXT    NOT NULL,
    seq     INTEGER NOT NULL,
    kind    TEXT    NOT NULL,
    pane    INTEGER NOT NULL,
    payload BLOB    NOT NULL,
    PRIMARY KEY (stream, seq)
);
CREATE TABLE IF NOT EXISTS stream_state (
    stream           TEXT PRIMARY KEY,
    next_seq         INTEGER NOT NULL,
    last_sealed_pane INTEGER NOT NULL DEFAULT -1,
    checkpoint_seq   INTEGER NOT NULL DEFAULT -1,
    checkpoints      INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS pane_index (
    stream TEXT    NOT NULL,
    pane   INTEGER NOT NULL,
    seq    INTEGER NOT NULL,
    PRIMARY KEY (stream, pane)
);
"""


class SQLiteCheckpointStore(CheckpointStore):
    """All streams in one WAL-mode SQLite database.

    ``records`` is the log; ``stream_state`` keeps the per-stream
    high-water mark (next seq, last sealed pane, latest checkpoint seq
    and count) and ``pane_index`` maps each sealed pane to its record
    -- the resume-state tables that make recovery a couple of indexed
    reads rather than a full log scan.  Appends update the log and the
    state tables in one transaction, so a crash between them is
    impossible by construction.
    """

    def __init__(self, path: str):
        self._path = str(path)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(self._path, check_same_thread=False)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute("PRAGMA foreign_keys=ON")
        self._db.execute("PRAGMA busy_timeout=30000")
        self._db.executescript(_SCHEMA)
        self._db.commit()
        self._closed = False

    def append(self, stream, kind, payload, *, pane=-1, compress=True):
        self._check_kind(kind)
        blob = codec.encode_value(payload, compress=compress)
        with self._lock:
            cur = self._db.cursor()
            row = cur.execute(
                "SELECT next_seq FROM stream_state WHERE stream=?",
                (stream,),
            ).fetchone()
            seq = row[0] if row else 0
            cur.execute(
                "INSERT INTO records (stream, seq, kind, pane, payload) "
                "VALUES (?, ?, ?, ?, ?)",
                (stream, seq, kind, int(pane), blob),
            )
            if row:
                cur.execute(
                    "UPDATE stream_state SET next_seq=? WHERE stream=?",
                    (seq + 1, stream),
                )
            else:
                cur.execute(
                    "INSERT INTO stream_state (stream, next_seq) "
                    "VALUES (?, ?)",
                    (stream, seq + 1),
                )
            if kind == "seal":
                cur.execute(
                    "UPDATE stream_state SET last_sealed_pane=? "
                    "WHERE stream=? AND last_sealed_pane<?",
                    (int(pane), stream, int(pane)),
                )
                cur.execute(
                    "INSERT OR REPLACE INTO pane_index (stream, pane, seq)"
                    " VALUES (?, ?, ?)",
                    (stream, int(pane), seq),
                )
            elif kind == "state":
                cur.execute(
                    "UPDATE stream_state SET checkpoint_seq=?, "
                    "checkpoints=checkpoints+1 WHERE stream=?",
                    (seq, stream),
                )
            self._db.commit()
            return seq

    def records(self, stream, *, min_seq=0):
        with self._lock:
            rows = self._db.execute(
                "SELECT seq, kind, pane, payload FROM records "
                "WHERE stream=? AND seq>=? ORDER BY seq",
                (stream, min_seq),
            ).fetchall()
        return [
            Record(stream, seq, kind, pane, codec.decode_value(blob))
            for seq, kind, pane, blob in rows
        ]

    def streams(self):
        with self._lock:
            rows = self._db.execute(
                "SELECT stream FROM stream_state ORDER BY stream"
            ).fetchall()
        return [row[0] for row in rows]

    def truncate(self, stream, below_seq):
        with self._lock:
            cur = self._db.execute(
                "DELETE FROM records WHERE stream=? AND seq<? "
                "AND kind!='open'",
                (stream, below_seq),
            )
            self._db.execute(
                "DELETE FROM pane_index WHERE stream=? AND seq<?",
                (stream, below_seq),
            )
            self._db.commit()
            return cur.rowcount

    def prune(self, stream, kind, *, max_pane=None, below_seq=None):
        self._check_kind(kind)
        clauses, params = ["stream=?", "kind=?"], [stream, kind]
        if max_pane is not None:
            clauses.append("pane<=?")
            params.append(int(max_pane))
        if below_seq is not None:
            clauses.append("seq<?")
            params.append(int(below_seq))
        with self._lock:
            cur = self._db.execute(
                f"DELETE FROM records WHERE {' AND '.join(clauses)}",
                params,
            )
            if kind == "seal" and max_pane is not None:
                self._db.execute(
                    "DELETE FROM pane_index WHERE stream=? AND pane<=?",
                    (stream, int(max_pane)),
                )
            self._db.commit()
            return cur.rowcount

    def resume_state(self, stream):
        with self._lock:
            row = self._db.execute(
                "SELECT next_seq, last_sealed_pane, checkpoint_seq, "
                "checkpoints FROM stream_state WHERE stream=?",
                (stream,),
            ).fetchone()
        if row is None:
            return {
                "next_seq": 0,
                "last_sealed_pane": -1,
                "checkpoint_seq": -1,
                "checkpoints": 0,
            }
        return {
            "next_seq": row[0],
            "last_sealed_pane": row[1],
            "checkpoint_seq": row[2],
            "checkpoints": row[3],
        }

    def sync(self):
        with self._lock:
            self._db.commit()
            self._db.execute("PRAGMA wal_checkpoint(PASSIVE)")

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._db.commit()
            self._db.close()
            self._closed = True


def open_store(spec: str) -> CheckpointStore:
    """Resolve a store spec to a backend.

    ``"log:<directory>"`` or a bare directory path opens the
    append-only log backend; ``"sqlite:<file>"`` or a ``.db``/
    ``.sqlite`` path opens the SQLite backend.  An already-open store
    passes through unchanged.
    """
    if isinstance(spec, CheckpointStore):
        return spec
    if spec.startswith("log:"):
        return LogCheckpointStore(spec[4:])
    if spec.startswith("sqlite:"):
        return SQLiteCheckpointStore(spec[7:])
    if spec.endswith((".db", ".sqlite", ".sqlite3")):
        return SQLiteCheckpointStore(spec)
    return LogCheckpointStore(spec)
