"""Pluggable trace sinks: JSONL file, SQLite database, in-memory ring buffer.

A sink accepts one :class:`~repro.telemetry.events.TraceHeader` followed by
any number of :class:`~repro.telemetry.events.TraceEvent` records.  All three
stock sinks are stdlib-only (the file sinks encode with orjson when it is
installed, byte-identically) and append-oriented:

* :class:`JsonlSink` -- one JSON object per line; the first line is the
  header (recognisable by its ``schema_version`` key).  The cheapest sink
  and the one the dashboard tails.
* :class:`SqliteSink` -- ``header``/``events`` tables, batched inserts.
  Queryable after the fact (``sqlite3 trace.db 'select kind, count(*) ...'``).
* :class:`RingBufferSink` -- bounded in-memory buffer for live consumers and
  tests; never touches the filesystem.

:func:`read_trace` loads either file format back (sniffing the SQLite magic
bytes, so extensions are free-form), and :class:`TraceFollower` incrementally
polls a growing trace file -- the mechanism behind
``python -m repro.dashboard``'s live view.

File sinks intentionally refuse pickling: a recorder crossing a process
boundary (e.g. into a supervised federation worker that will be checkpointed)
would otherwise re-emit duplicate records after restore.  Worker-side
tracing instead opens its sinks *inside* the worker (see
``UniformShardFactory.trace_dir``).
"""

from __future__ import annotations

import collections
import io
import json
import os
import sqlite3
from typing import Deque, Iterator, List, Optional, Tuple

from repro.telemetry.events import (
    TraceEvent,
    TraceFormatError,
    TraceHeader,
)

_SQLITE_MAGIC = b"SQLite format 3\x00"


class TraceSink:
    """Interface: ``write_header`` once, ``emit`` many, ``close`` once."""

    def write_header(self, header: TraceHeader) -> None:
        raise NotImplementedError

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def emit_record(
        self, source: str, seq: int, time: float, kind: str, payload
    ) -> None:
        """Field-wise emission: the recorder's hot path.

        File sinks override this to serialise straight from the fields,
        skipping the TraceEvent allocation per event; the default simply
        wraps the fields for :meth:`emit`.
        """
        self.emit(TraceEvent(source, seq, time, kind, payload))

    def bind_emitter(self, source: str):
        """A fused ``emit(kind, time, payload)`` closure for one source.

        Owns that source's monotonic sequence counter, so the whole
        recorder -> sink path is one closure frame per event.  File sinks
        override this to bind their write handle directly.
        """
        emit_record = self.emit_record
        seq = 0

        def emit(kind: str, time: float, payload) -> None:
            nonlocal seq
            seq += 1
            emit_record(source, seq, time, kind, payload)

        return emit

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# One shared C-accelerated encoder: json.dumps with non-default options
# builds a fresh JSONEncoder per call, which the per-event hot path below
# cannot afford.  ensure_ascii=False matches orjson's raw-UTF-8 output, so
# the canonical trace bytes are identical with or without the accelerator.
_ENCODE = json.JSONEncoder(
    ensure_ascii=False, sort_keys=True, separators=(",", ":")
).encode


def _encoders():
    """``(encode_json, encode_line)`` for the file sinks.

    orjson with OPT_SORT_KEYS produces the same compact sorted form as the
    stdlib encoder above at ~5x less per-event cost, which is what keeps
    recording inside the bench's overhead gate, so it is used when installed.
    It is imported when a file sink opens, not with this module: a run that
    records nothing loads no third-party module.
    """
    try:
        import orjson
    except ImportError:  # pragma: no cover - depends on the environment
        return _ENCODE, lambda record: (_ENCODE(record) + "\n").encode("utf-8")
    dumps = orjson.dumps
    sort_keys = orjson.OPT_SORT_KEYS
    line_opts = sort_keys | orjson.OPT_APPEND_NEWLINE
    return (
        lambda obj: dumps(obj, option=sort_keys).decode(),
        lambda record: dumps(record, option=line_opts),
    )


class JsonlSink(TraceSink):
    """Append-only JSON-lines sink; deterministic byte output for a given stream."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        # Binary handle: lines are encoded straight to UTF-8 bytes, skipping
        # the TextIOWrapper layer on the per-event hot path.
        self._handle: Optional[io.BufferedWriter] = open(self.path, "wb")
        self._encode_line = _encoders()[1]

    def write_header(self, header: TraceHeader) -> None:
        self._write_line(header.as_record())

    def emit(self, event: TraceEvent) -> None:
        self.emit_record(*event)

    def emit_record(
        self, source: str, seq: int, time: float, kind: str, payload
    ) -> None:
        # One encoder call for the whole line, byte-identical to
        # dumps(event.as_record(), ensure_ascii=False, sort_keys=True,
        # separators=(",", ":")).  This is the engine's per-round write --
        # every dict copy, throwaway encoder or intermediate TraceEvent here
        # shows up in the bench's recording-overhead gate.
        handle = self._handle
        if handle is None:
            raise TraceFormatError(f"trace sink {self.path} already closed")
        handle.write(
            self._encode_line(
                {
                    "kind": kind,
                    "payload": payload if payload else {},
                    "seq": seq,
                    "source": source,
                    "time": time,
                }
            )
        )

    def bind_emitter(self, source: str):
        handle = self._handle
        if handle is None:
            raise TraceFormatError(f"trace sink {self.path} already closed")
        write = handle.write
        seq = 0

        def emit(kind: str, time: float, payload, _encode=self._encode_line) -> None:
            nonlocal seq
            seq += 1
            write(
                _encode(
                    {
                        "kind": kind,
                        "payload": payload if payload else {},
                        "seq": seq,
                        "source": source,
                        "time": time,
                    }
                )
            )

        return emit

    def _write_line(self, record) -> None:
        if self._handle is None:
            raise TraceFormatError(f"trace sink {self.path} already closed")
        self._handle.write(self._encode_line(record))

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __getstate__(self):
        raise TypeError(
            "JsonlSink holds an open file handle and cannot cross a process "
            "or checkpoint boundary; open the sink inside the worker instead"
        )


class SqliteSink(TraceSink):
    """SQLite sink with batched inserts (stdlib ``sqlite3``)."""

    _BATCH = 512

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        if os.path.exists(self.path):
            os.remove(self.path)
        self._conn: Optional[sqlite3.Connection] = sqlite3.connect(self.path)
        self._conn.executescript(
            """
            CREATE TABLE header (record TEXT NOT NULL);
            CREATE TABLE events (
                source  TEXT    NOT NULL,
                seq     INTEGER NOT NULL,
                time    REAL    NOT NULL,
                kind    TEXT    NOT NULL,
                payload TEXT    NOT NULL
            );
            """
        )
        self._pending: List[Tuple[str, int, float, str, str]] = []
        self._encode_json = _encoders()[0]

    def write_header(self, header: TraceHeader) -> None:
        if self._conn is None:
            raise TraceFormatError(f"trace sink {self.path} already closed")
        self._conn.execute(
            "INSERT INTO header (record) VALUES (?)",
            (json.dumps(header.as_record(), sort_keys=True),),
        )

    def emit(self, event: TraceEvent) -> None:
        self.emit_record(*event)

    def emit_record(
        self, source: str, seq: int, time: float, kind: str, payload
    ) -> None:
        self._pending.append((source, seq, time, kind, self._encode_json(payload)))
        if len(self._pending) >= self._BATCH:
            self._drain()

    def _drain(self) -> None:
        if self._conn is None:
            raise TraceFormatError(f"trace sink {self.path} already closed")
        if self._pending:
            self._conn.executemany(
                "INSERT INTO events (source, seq, time, kind, payload) "
                "VALUES (?, ?, ?, ?, ?)",
                self._pending,
            )
            self._pending.clear()

    def flush(self) -> None:
        if self._conn is not None:
            self._drain()
            self._conn.commit()

    def close(self) -> None:
        if self._conn is not None:
            self._drain()
            self._conn.commit()
            self._conn.close()
            self._conn = None

    def __getstate__(self):
        raise TypeError(
            "SqliteSink holds an open database connection and cannot cross a "
            "process or checkpoint boundary"
        )


class RingBufferSink(TraceSink):
    """Keep the last ``capacity`` events in memory (``None`` = unbounded)."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 0:
            raise TraceFormatError("ring buffer capacity must be >= 0")
        self.capacity = capacity
        self.header: Optional[TraceHeader] = None
        self._events: Deque[TraceEvent] = collections.deque(maxlen=capacity)

    def write_header(self, header: TraceHeader) -> None:
        self.header = header

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def _is_sqlite(path: str) -> bool:
    with open(path, "rb") as handle:
        return handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC


def _iter_jsonl(path: str) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_trace(path: str) -> Tuple[TraceHeader, List[TraceEvent]]:
    """Load a JSONL or SQLite trace back into (header, events).

    Events come back in file order for JSONL and in ``rowid`` (insertion)
    order for SQLite -- emission order either way.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise TraceFormatError(f"no such trace: {path}")
    if _is_sqlite(path):
        return _read_sqlite(path)
    return _read_jsonl(path)


def _read_jsonl(path: str) -> Tuple[TraceHeader, List[TraceEvent]]:
    header: Optional[TraceHeader] = None
    events: List[TraceEvent] = []
    for record in _iter_jsonl(path):
        if header is None:
            header = TraceHeader.from_record(record)
        else:
            events.append(TraceEvent.from_record(record))
    if header is None:
        raise TraceFormatError(f"trace {path} has no header line")
    return header, events


def _read_sqlite(path: str) -> Tuple[TraceHeader, List[TraceEvent]]:
    conn = sqlite3.connect(path)
    try:
        row = conn.execute("SELECT record FROM header").fetchone()
        if row is None:
            raise TraceFormatError(f"trace {path} has no header row")
        header = TraceHeader.from_record(json.loads(row[0]))
        events = [
            TraceEvent(
                source=source,
                seq=seq,
                time=time,
                kind=kind,
                payload=json.loads(payload),
            )
            for source, seq, time, kind, payload in conn.execute(
                "SELECT source, seq, time, kind, payload FROM events ORDER BY rowid"
            )
        ]
    finally:
        conn.close()
    return header, events


class TraceFollower:
    """Incrementally read a growing trace file (the dashboard's tail loop).

    ``poll()`` returns only the records appended since the previous call.
    JSONL traces are followed by byte offset (partial trailing lines are
    left for the next poll); SQLite traces by max ``rowid``.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self.header: Optional[TraceHeader] = None
        self._offset = 0  # jsonl byte offset
        self._rowid = 0  # sqlite high-water mark
        self._sqlite: Optional[bool] = None

    def poll(self) -> List[TraceEvent]:
        if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
            return []
        if self._sqlite is None:
            self._sqlite = _is_sqlite(self.path)
        return self._poll_sqlite() if self._sqlite else self._poll_jsonl()

    def _poll_jsonl(self) -> List[TraceEvent]:
        events: List[TraceEvent] = []
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            while True:
                line = handle.readline()
                if not line or not line.endswith(b"\n"):
                    break  # incomplete trailing line: retry next poll
                self._offset = handle.tell()
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                record = json.loads(text)
                if self.header is None:
                    self.header = TraceHeader.from_record(record)
                else:
                    events.append(TraceEvent.from_record(record))
        return events

    def _poll_sqlite(self) -> List[TraceEvent]:
        events: List[TraceEvent] = []
        conn = sqlite3.connect(self.path)
        try:
            if self.header is None:
                row = conn.execute("SELECT record FROM header").fetchone()
                if row is not None:
                    self.header = TraceHeader.from_record(json.loads(row[0]))
            for rowid, source, seq, time, kind, payload in conn.execute(
                "SELECT rowid, source, seq, time, kind, payload FROM events "
                "WHERE rowid > ? ORDER BY rowid",
                (self._rowid,),
            ):
                self._rowid = rowid
                events.append(
                    TraceEvent(
                        source=source,
                        seq=seq,
                        time=time,
                        kind=kind,
                        payload=json.loads(payload),
                    )
                )
        except sqlite3.OperationalError:
            return []  # writer has not committed the schema yet
        finally:
            conn.close()
        return events


def open_sink(path: str, fmt: Optional[str] = None) -> TraceSink:
    """Open a file sink by explicit format or filename extension.

    ``fmt`` may be ``"jsonl"`` or ``"sqlite"``; when omitted, ``.db`` /
    ``.sqlite`` / ``.sqlite3`` extensions select SQLite and anything else
    selects JSONL.
    """
    if fmt is None:
        ext = os.path.splitext(path)[1].lower()
        fmt = "sqlite" if ext in (".db", ".sqlite", ".sqlite3") else "jsonl"
    if fmt == "jsonl":
        return JsonlSink(path)
    if fmt == "sqlite":
        return SqliteSink(path)
    raise TraceFormatError(f"unknown trace sink format {fmt!r}")
