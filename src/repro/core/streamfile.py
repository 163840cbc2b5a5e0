"""On-disk op-stream artifacts — the run as a durable, re-readable file.

Every in-memory path so far (``UsageLog``, ``WorkloadTally``) either
stores the whole run or only its statistics.  At the ROADMAP's
million-user scale neither is enough: downstream consumers need the
*operation stream itself* — LWS-style log-driven replay wants the exact
ops, not a regeneration — and the machine generating it cannot hold it.
``repro.core.streamfile`` makes the op stream a file:

* :class:`StreamFileSink` is an :class:`~repro.core.oplog.OpSink` that
  spills :class:`~repro.core.opbatch.OpBatch` chunks to disk under a
  bounded ``memory_budget_bytes`` instead of accumulating;
* :class:`StreamReader` / :func:`iter_batches` stream the artifact back
  as batches, with a footer index for seeking and slicing by user id or
  time window without touching unrelated chunks;
* :meth:`StreamReader.replay` feeds a sink (tally, usage log, another
  stream file) straight from disk — the fast-columnar consumption path
  without regeneration;
* :func:`merge_stream_files` interleaves per-shard artifacts into one
  file **bit-identical** to the artifact a 1-shard run would have
  written.

File layout (all integers little-endian)::

    MAGIC  u16 version
    u32 len  u32 crc32  header-JSON          (schema, rows/chunk, metadata)
    'C' u64 len  u32 crc32  chunk payload    (repeated)
    'F' u64 len  u32 crc32  footer-JSON      (per-chunk seek index)
    u64 footer-offset  MAGIC                 (fixed-size tail)

Chunk payloads hold per-chunk *compacted* string tables (first-use
order) followed by one npy-framed block per column, then the session
records that ended inside the chunk, each tagged with its global op-row
position so the exact event order (ops interleaved with session
summaries) reconstructs on replay.

Determinism is the load-bearing property.  Chunk boundaries are a pure
function of the global op-row count (``rows_per_chunk`` rows each,
derived from the byte budget via the fixed :data:`ROW_BYTES`), never of
arrival granularity — so re-chunking the same event stream, whether it
comes from one run, a replay, or a k-way shard merge, reproduces the
same frames byte for byte.  Every frame is CRC-checked; any truncation
or bit flip surfaces as :class:`StreamFormatError`, never as garbage
records.

Versioning: ``FORMAT_VERSION`` bumps on any layout change; readers
reject newer versions loudly.  See ``docs/architecture.md`` for the
format's rationale and evolution rules.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .opbatch import OP_KIND_NAMES, OpBatch, StringTable
from .oplog import OpRecord, SessionRecord

__all__ = [
    "FORMAT_VERSION",
    "STREAM_FORMAT_VERSION",
    "ROW_BYTES",
    "DEFAULT_MEMORY_BUDGET",
    "CHECKPOINT_SUFFIX",
    "StreamFormatError",
    "rows_per_chunk_for",
    "TeeSink",
    "StreamWriter",
    "StreamFileSink",
    "ChunkInfo",
    "StreamChunk",
    "StreamReader",
    "iter_batches",
    "merge_stream_files",
    "SalvagedStream",
    "salvage_stream",
    "resume_stream_sink",
    "StreamVerifyReport",
    "verify_stream",
]

MAGIC = b"REPRO-OPSTREAM\x00"
FORMAT_VERSION = 1
STREAM_FORMAT_VERSION = FORMAT_VERSION  # package-level alias

# Column schema, in serialisation order.  The chunk payload stores one
# npy block per entry; ``think_us`` is optional per chunk (synthesis
# batches carry it, scalar record bridges do not).
_COLUMNS: tuple[tuple[str, str], ...] = (
    ("kinds", "int8"),
    ("plan_ids", "int64"),
    ("sizes", "int64"),
    ("flags", "int16"),
    ("path_idx", "int32"),
    ("category_idx", "int32"),
    ("user_ids", "int64"),
    ("session_ids", "int64"),
    ("user_type_idx", "int32"),
    ("start_us", "float64"),
    ("response_us", "float64"),
)
_THINK_COLUMN = ("think_us", "int64")

ROW_BYTES = sum(np.dtype(d).itemsize for _, d in _COLUMNS) + np.dtype(
    _THINK_COLUMN[1]
).itemsize
"""Fixed bytes per op row (every column incl. the optional think one).

The budget → ``rows_per_chunk`` conversion goes through this constant
rather than the actual buffered column widths so that chunk boundaries —
and therefore the artifact's bytes — depend only on the budget, never on
which optional columns a particular run happened to carry.
"""

DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024
"""Default :class:`StreamFileSink` buffer budget: 64 MiB of column data."""

_FRAME_CHUNK = b"C"
_FRAME_FOOTER = b"F"
_HEAD_FMT = "<LL"  # frame length, crc32 (header frame)
_FRAME_FMT = "<cQL"  # frame type, payload length, crc32
_FRAME_HEAD = struct.calcsize(_FRAME_FMT)
_TAIL_FMT = "<Q"  # footer frame offset (followed by MAGIC)
_TAIL_BYTES = struct.calcsize(_TAIL_FMT) + len(MAGIC)

CHECKPOINT_SUFFIX = ".progress"
"""Sidecar suffix of a checkpointing writer's progress record.

The sidecar is a small JSON document rewritten atomically
(tmp + ``os.replace``) after every chunk flush: it names the chunks
already durable in the main file so :func:`salvage_stream` can verify
exactly those frames after a crash instead of scanning blind.  It is
advisory — salvage falls back to a sequential CRC walk whenever the
sidecar is missing, stale, or disagrees with the data file — and it is
deleted when the artifact closes cleanly (a complete file carries its
own footer index).
"""
CHECKPOINT_FORMAT = "repro.opstream-progress"
CHECKPOINT_VERSION = 1


class StreamFormatError(ValueError):
    """A stream file is truncated, corrupt, or not a stream file at all."""


def rows_per_chunk_for(memory_budget_bytes: int) -> int:
    """Rows per chunk under ``memory_budget_bytes`` (at least one)."""
    if memory_budget_bytes < 1:
        raise ValueError(
            f"memory_budget_bytes must be >= 1, got {memory_budget_bytes}"
        )
    return max(1, int(memory_budget_bytes) // ROW_BYTES)


# ---------------------------------------------------------------------------
# Batch concatenation and per-chunk table compaction
# ---------------------------------------------------------------------------


def _remap_indices(idx: np.ndarray, source: StringTable,
                   target: StringTable) -> np.ndarray:
    """Re-intern ``idx`` (indices into ``source``) into ``target``.

    Only the values actually used are interned, so a slice sharing a
    large long-lived table costs O(distinct values used), not O(table).
    """
    used = np.unique(idx[idx >= 0])
    if used.size == 0:
        return idx.astype(np.int32, copy=True)
    values = source.values()
    lut = np.full(int(used[-1]) + 1, -1, dtype=np.int32)
    for i in used:
        lut[int(i)] = target.intern(values[int(i)])
    out = lut[np.maximum(idx, 0)]
    out[idx < 0] = -1
    return out


def concat_batches(batches: Iterable[OpBatch]) -> OpBatch:
    """Concatenate batches into one, re-interning the string tables.

    The ``think_us`` column survives only when *every* input carries it
    (a record batch without thinks has no pause information to invent).
    An empty input list yields a well-typed empty batch.
    """
    batches = [b for b in batches if len(b)]
    if not batches:
        return OpBatch.empty(0)
    if len(batches) == 1:
        return batches[0]
    total = sum(len(b) for b in batches)
    out = OpBatch.empty(total)
    keep_think = all(b.think_us is not None for b in batches)
    if keep_think:
        out.think_us = np.empty(total, dtype=np.int64)
    pos = 0
    for b in batches:
        n = len(b)
        part = slice(pos, pos + n)
        out.kinds[part] = b.kinds
        out.plan_ids[part] = b.plan_ids
        out.sizes[part] = b.sizes
        out.flags[part] = b.flags
        out.user_ids[part] = b.user_ids
        out.session_ids[part] = b.session_ids
        out.start_us[part] = b.start_us
        out.response_us[part] = b.response_us
        out.path_idx[part] = _remap_indices(b.path_idx, b.paths, out.paths)
        out.category_idx[part] = _remap_indices(
            b.category_idx, b.categories, out.categories)
        out.user_type_idx[part] = _remap_indices(
            b.user_type_idx, b.user_types, out.user_types)
        if keep_think:
            out.think_us[part] = b.think_us
        pos += n
    return out


def _compact_column(idx: np.ndarray, table: StringTable):
    """Compact one string column for serialisation.

    Returns ``(new_idx, values)`` where ``values`` holds only the
    strings the column references, ordered by first occurrence in row
    order — a pure function of the rows, so identical rows always
    serialise to identical bytes regardless of the table they shared in
    memory.
    """
    used = idx[idx >= 0]
    if used.size == 0:
        return idx.astype(np.int32, copy=False), []
    uniq, first = np.unique(used, return_index=True)
    order = np.argsort(first, kind="stable")
    ordered = uniq[order]
    lut = np.full(int(uniq[-1]) + 1, -1, dtype=np.int32)
    lut[ordered] = np.arange(len(ordered), dtype=np.int32)
    new_idx = lut[np.maximum(idx, 0)]
    new_idx[idx < 0] = -1
    values = table.values()
    return new_idx, [values[int(i)] for i in ordered]


# ---------------------------------------------------------------------------
# Chunk payload encode/decode
# ---------------------------------------------------------------------------


def _write_table(out: io.BytesIO, values: list[str]) -> None:
    out.write(struct.pack("<L", len(values)))
    for value in values:
        raw = value.encode("utf-8")
        out.write(struct.pack("<L", len(raw)))
        out.write(raw)


def _write_array(out: io.BytesIO, array: np.ndarray) -> None:
    block = io.BytesIO()
    np.save(block, array, allow_pickle=False)
    raw = block.getvalue()
    out.write(struct.pack("<Q", len(raw)))
    out.write(raw)


def _encode_chunk(batch: OpBatch,
                  sessions: list[tuple[int, SessionRecord]]) -> bytes:
    out = io.BytesIO()
    has_think = batch.think_us is not None
    out.write(struct.pack("<QB", len(batch), int(has_think)))
    compacted = {}
    for idx_name, table_name in (("path_idx", "paths"),
                                 ("category_idx", "categories"),
                                 ("user_type_idx", "user_types")):
        new_idx, values = _compact_column(
            getattr(batch, idx_name), getattr(batch, table_name))
        compacted[idx_name] = new_idx
        _write_table(out, values)
    for name, dtype in _COLUMNS:
        column = compacted.get(name, None)
        if column is None:
            column = getattr(batch, name)
        _write_array(out, np.ascontiguousarray(column, dtype=np.dtype(dtype)))
    if has_think:
        _write_array(out, np.ascontiguousarray(
            batch.think_us, dtype=np.int64))
    out.write(struct.pack("<L", len(sessions)))
    for position, record in sessions:
        raw = record.to_line().encode("utf-8")
        out.write(struct.pack("<QL", position, len(raw)))
        out.write(raw)
    return out.getvalue()


class _PayloadReader:
    """Bounds-checked cursor over one decoded frame payload."""

    def __init__(self, payload: bytes, what: str):
        self._data = payload
        self._pos = 0
        self._what = what

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise StreamFormatError(
                f"{self._what}: truncated payload "
                f"(wanted {n} bytes at offset {self._pos})"
            )
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> None:
        if self._pos != len(self._data):
            raise StreamFormatError(
                f"{self._what}: {len(self._data) - self._pos} trailing bytes"
            )


def _read_table(cursor: _PayloadReader) -> StringTable:
    (count,) = cursor.unpack("<L")
    values = []
    for _ in range(count):
        (nbytes,) = cursor.unpack("<L")
        try:
            values.append(cursor.take(nbytes).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise StreamFormatError(f"corrupt string table: {exc}") from None
    return StringTable(values)


def _read_array(cursor: _PayloadReader, name: str, dtype: str,
                n: int) -> np.ndarray:
    (nbytes,) = cursor.unpack("<Q")
    raw = cursor.take(nbytes)
    try:
        array = np.load(io.BytesIO(raw), allow_pickle=False)
    except Exception as exc:
        raise StreamFormatError(
            f"column {name!r}: corrupt npy block ({exc})"
        ) from None
    if array.dtype != np.dtype(dtype) or array.shape != (n,):
        raise StreamFormatError(
            f"column {name!r}: expected {n} x {dtype}, "
            f"got {array.shape} x {array.dtype}"
        )
    return array


def _decode_chunk(payload: bytes, what: str):
    cursor = _PayloadReader(payload, what)
    n, has_think = cursor.unpack("<QB")
    if has_think not in (0, 1):
        raise StreamFormatError(f"{what}: bad think flag {has_think}")
    tables = [_read_table(cursor) for _ in range(3)]
    batch = OpBatch.empty(int(n), paths=tables[0], categories=tables[1],
                          user_types=tables[2])
    for name, dtype in _COLUMNS:
        setattr(batch, name, _read_array(cursor, name, dtype, int(n)))
    if has_think:
        batch.think_us = _read_array(cursor, *_THINK_COLUMN, int(n))
    for idx_name, table in (("path_idx", tables[0]),
                            ("category_idx", tables[1]),
                            ("user_type_idx", tables[2])):
        idx = getattr(batch, idx_name)
        if len(idx) and (int(idx.min()) < -1 or int(idx.max()) >= len(table)):
            raise StreamFormatError(f"{what}: {idx_name} out of table range")
    (n_sessions,) = cursor.unpack("<L")
    sessions = []
    for _ in range(n_sessions):
        position, nbytes = cursor.unpack("<QL")
        raw = cursor.take(nbytes)
        try:
            record = SessionRecord.from_line(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise StreamFormatError(
                f"{what}: corrupt session record ({exc})"
            ) from None
        sessions.append((int(position), record))
    cursor.done()
    return batch, sessions


# ---------------------------------------------------------------------------
# Frame and header reading (shared by the reader, salvage, and verification)
# ---------------------------------------------------------------------------


def _must_read(stream, n: int, size: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of a ``size``-byte file, or raise.

    Bound by the file size before reading: a corrupt length field must
    surface as :class:`StreamFormatError`, not as a huge allocation.
    """
    if n < 0 or n > size:
        raise StreamFormatError(f"truncated stream file: {what}")
    raw = stream.read(n)
    if len(raw) != n:
        raise StreamFormatError(f"truncated stream file: {what}")
    return raw


def _read_frame(stream, offset: int, size: int, what: str):
    """Read and CRC-check the frame at ``offset``.

    Returns ``(kind, payload, end)``, ``end`` being the offset just past
    the frame (where the next one starts: frames are contiguous).
    """
    stream.seek(offset)
    kind, length, crc = struct.unpack(
        _FRAME_FMT,
        _must_read(stream, _FRAME_HEAD, size, f"{what} frame header"))
    payload = _must_read(stream, length, size, f"{what} payload")
    if zlib.crc32(payload) != crc:
        raise StreamFormatError(f"{what} failed its checksum")
    return kind, payload, offset + _FRAME_HEAD + length


def _parse_header(stream, size: int, path: str) -> tuple[int, dict, int]:
    """Validate and decode the header at the start of ``stream``.

    Returns ``(version, header, data_start)`` where ``data_start`` is
    the offset of the first frame.  Raises :class:`StreamFormatError`
    on any structural problem, exactly like :class:`StreamReader`.
    """
    stream.seek(0)
    magic = stream.read(len(MAGIC))
    if magic != MAGIC:
        raise StreamFormatError(
            f"{path!r} is not an op-stream file (bad magic)"
        )
    (version,) = struct.unpack("<H", _must_read(stream, 2, size, "version"))
    if version > FORMAT_VERSION:
        raise StreamFormatError(
            f"stream format version {version} is newer than this "
            f"reader (supports <= {FORMAT_VERSION})"
        )
    length, crc = struct.unpack(_HEAD_FMT, _must_read(
        stream, struct.calcsize(_HEAD_FMT), size, "header"))
    raw = _must_read(stream, length, size, "header JSON")
    if zlib.crc32(raw) != crc:
        raise StreamFormatError("header failed its checksum")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise StreamFormatError(f"corrupt header JSON: {exc}") from None
    if int(header.get("version", -1)) != version:
        raise StreamFormatError(
            f"header version {header.get('version')!r} disagrees with "
            f"the file's version field {version} (corrupt header?)"
        )
    if tuple(header.get("kinds", ())) != OP_KIND_NAMES:
        raise StreamFormatError(
            "stream file kind table does not match this build: "
            f"{tuple(header.get('kinds', ()))!r}"
        )
    if [tuple(c) for c in header.get("columns", [])] != list(_COLUMNS):
        raise StreamFormatError("stream file column schema mismatch")
    return version, header, stream.tell()


# ---------------------------------------------------------------------------
# Footer-index entries and chunk event order
# ---------------------------------------------------------------------------

_INDEX_KEYS = ("offset", "rows", "sessions", "user_lo", "user_hi",
               "start_lo", "start_hi")


def _index_entry(offset: int, batch: OpBatch, n_sessions: int) -> dict:
    """The footer-index entry of one chunk frame (keys: _INDEX_KEYS)."""
    n = len(batch)
    return {
        "offset": offset,
        "rows": n,
        "sessions": n_sessions,
        "user_lo": int(batch.user_ids.min()) if n else None,
        "user_hi": int(batch.user_ids.max()) if n else None,
        "start_lo": float(batch.start_us.min()) if n else None,
        "start_hi": float(batch.start_us.max()) if n else None,
    }


def _chunk_events(batch: OpBatch, sessions: list[tuple[int, SessionRecord]],
                  row_start: int):
    """Yield one chunk's events in recorded order.

    ``(rows, None)`` is a non-empty run of op rows, ``(None, record)``
    a session summary; each summary comes right after the op row at its
    recorded global position (``row_start`` is the chunk's first row).
    """
    n = len(batch)
    cursor = 0
    for position, record in sessions:
        local = min(max(position - row_start, 0), n)
        if local > cursor:
            yield batch.select(slice(cursor, local)), None
            cursor = local
        yield None, record
    if cursor < n:
        yield batch.select(slice(cursor, n)), None


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class StreamWriter:
    """Low-level append writer: events in, canonical chunks out.

    Feed it the run's event stream (:meth:`add_batch` op rows,
    :meth:`add_session` summaries, in arrival order) and it emits frames
    of exactly ``rows_per_chunk`` rows each (the final one shorter), with
    every session attached to the chunk containing the op row it
    followed.  Chunk *i* is flushed only once a row of chunk *i + 1*
    arrives, so a summary landing exactly on a boundary still joins its
    own chunk — the buffered high-water mark is ``rows_per_chunk`` rows
    plus the incoming batch.
    """

    def __init__(self, path: str, rows_per_chunk: int,
                 metadata: dict | None = None, observer=None,
                 checkpoint: bool = False, flush_hook=None):
        if rows_per_chunk < 1:
            raise ValueError(
                f"rows_per_chunk must be >= 1, got {rows_per_chunk}"
            )
        self.path = path
        self.rows_per_chunk = int(rows_per_chunk)
        self.metadata = dict(metadata or {})
        # Spill accounting: an enabled observer charges each chunk flush
        # to the "spill" stage and ticks stream.{chunks,rows,bytes}.
        # Flush timing/counting never changes what is written — chunk
        # boundaries stay a pure function of the global row count.
        self._observer = (observer if observer is not None
                          and getattr(observer, "enabled", False) else None)
        # ``checkpoint`` makes every chunk flush durable (file flush +
        # atomic sidecar rewrite) so a crashed run can salvage the
        # prefix; ``flush_hook(chunk_index)`` runs before each flush —
        # the fault-injection seam for spill-path errors (ENOSPC).
        # Neither changes a single byte of the artifact itself.
        self._checkpoint = bool(checkpoint)
        self._flush_hook = flush_hook
        self._pieces: list[OpBatch] = []
        self._buffered = 0
        self._rows_done = 0
        self._sessions: list[tuple[int, SessionRecord]] = []
        self._sessions_done = 0
        self._index: list[dict] = []
        self._closed = False
        self.chunks_written = 0
        self._stream = open(path, "wb")
        try:
            self._write_header()
        except BaseException:
            self._stream.close()
            raise

    @classmethod
    def resume(cls, salvaged: "SalvagedStream",
               metadata: dict | None = None, observer=None,
               checkpoint: bool = False, flush_hook=None) -> "StreamWriter":
        """Continue writing a crashed artifact from its salvaged prefix.

        The file is truncated to the end of the last intact chunk and
        the writer picks up with the salvaged row/session/chunk counts,
        so the frames it appends are exactly the frames the original
        writer would have written next — chunk boundaries are a pure
        function of the global row count.  The caller must feed the
        *remaining* event stream (everything after the salvaged rows)
        in the original order.

        ``metadata`` must match the salvaged header's (the header is
        already on disk and is not rewritten); a mismatch means the
        resume does not describe the same run and is rejected.
        """
        if salvaged.complete:
            raise StreamFormatError(
                f"{salvaged.path}: artifact is complete; nothing to resume"
            )
        if metadata is not None and dict(metadata) != salvaged.metadata:
            raise StreamFormatError(
                f"{salvaged.path}: resume metadata does not match the "
                "on-disk header"
            )
        writer = cls.__new__(cls)
        writer.path = salvaged.path
        writer.rows_per_chunk = int(salvaged.rows_per_chunk)
        writer.metadata = dict(salvaged.metadata)
        writer._observer = (observer if observer is not None
                            and getattr(observer, "enabled", False) else None)
        writer._checkpoint = bool(checkpoint)
        writer._flush_hook = flush_hook
        writer._pieces = []
        writer._buffered = 0
        writer._rows_done = salvaged.rows
        writer._sessions = []
        writer._sessions_done = salvaged.sessions
        writer._index = [dict(entry) for entry in salvaged.index]
        writer._closed = False
        writer.chunks_written = len(salvaged.index)
        writer._stream = open(salvaged.path, "r+b")
        try:
            writer._stream.truncate(salvaged.data_end)
            writer._stream.seek(salvaged.data_end)
        except BaseException:
            writer._stream.close()
            raise
        return writer

    # -- events ---------------------------------------------------------------

    @property
    def buffered_rows(self) -> int:
        """Op rows currently held in memory (pending the next flush)."""
        return self._buffered

    def add_batch(self, batch: OpBatch) -> None:
        """Append op rows (sliced views are fine; tables may be shared)."""
        if len(batch) == 0:
            return
        self._pieces.append(batch)
        self._buffered += len(batch)
        while self._buffered > self.rows_per_chunk:
            self._flush_chunk(self.rows_per_chunk)

    def add_session(self, record: SessionRecord) -> None:
        """Append a session summary at the current op-row position."""
        self._sessions.append((self._rows_done + self._buffered, record))

    def close(self) -> None:
        """Flush the tail chunk, write the footer index, close the file."""
        if self._closed:
            return
        try:
            while self._buffered > self.rows_per_chunk:
                self._flush_chunk(self.rows_per_chunk)
            if self._buffered or self._sessions:
                self._flush_chunk(self._buffered)
            self._write_footer()
            if self._checkpoint:
                # A complete artifact carries its own footer index; the
                # sidecar would only go stale from here.
                with contextlib.suppress(OSError):
                    os.unlink(self.path + CHECKPOINT_SUFFIX)
        finally:
            self._closed = True
            self._stream.close()

    def abort(self) -> None:
        """Stop writing WITHOUT a footer (crash/failure path).

        Buffered rows are dropped; chunks already flushed stay on disk
        for :func:`salvage_stream`.  A footer must never cover a partial
        run — it would make the truncated artifact indistinguishable
        from a complete one and poison both resume and verification.
        Idempotent, and a no-op after :meth:`close`.
        """
        if self._closed:
            return
        self._closed = True
        self._stream.close()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- framing --------------------------------------------------------------

    def _write_header(self) -> None:
        header = json.dumps(
            {
                "version": FORMAT_VERSION,
                "kinds": list(OP_KIND_NAMES),
                "columns": [list(c) for c in _COLUMNS],
                "think_column": list(_THINK_COLUMN),
                "rows_per_chunk": self.rows_per_chunk,
                "metadata": self.metadata,
            },
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        self._stream.write(MAGIC)
        self._stream.write(struct.pack("<H", FORMAT_VERSION))
        self._stream.write(struct.pack(_HEAD_FMT, len(header),
                                       zlib.crc32(header)))
        self._stream.write(header)

    def _take_rows(self, n: int) -> OpBatch:
        taken: list[OpBatch] = []
        while n > 0:
            piece = self._pieces[0]
            if len(piece) <= n:
                taken.append(self._pieces.pop(0))
                n -= len(piece)
            else:
                taken.append(piece.select(slice(0, n)))
                self._pieces[0] = piece.select(slice(n, len(piece)))
                n = 0
        return concat_batches(taken)

    def _flush_chunk(self, take: int) -> None:
        if self._flush_hook is not None:
            self._flush_hook(self.chunks_written)
        if self._observer is not None:
            # detlint: ignore[no-wall-clock] — observer-only spill span; never touches the stream
            wall0 = time.perf_counter()
            cpu0 = time.process_time()  # detlint: ignore[no-wall-clock] — observer-only spill span
        rows = self._take_rows(take)
        boundary = self._rows_done + take
        cut = 0
        while (cut < len(self._sessions)
               and self._sessions[cut][0] <= boundary):
            cut += 1
        sessions, self._sessions = self._sessions[:cut], self._sessions[cut:]
        payload = _encode_chunk(rows, sessions)
        offset = self._stream.tell()
        self._stream.write(struct.pack(_FRAME_FMT, _FRAME_CHUNK,
                                       len(payload), zlib.crc32(payload)))
        self._stream.write(payload)
        if self._observer is not None:
            framed = len(payload) + _FRAME_HEAD
            metrics = self._observer.metrics
            metrics.counter("stream.chunks").inc()
            metrics.counter("stream.rows").inc(take)
            metrics.counter("stream.bytes").inc(framed)
            self._observer.stage_times("spill").add(
                # detlint: ignore[no-wall-clock] — observer-only spill span
                time.perf_counter() - wall0, time.process_time() - cpu0,
                rows=take, nbytes=framed,
            )
        self._index.append(_index_entry(offset, rows, len(sessions)))
        self._rows_done = boundary
        self._buffered -= take
        self._sessions_done += len(sessions)
        self.chunks_written += 1
        if self._checkpoint:
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        """Make the flushed prefix durable and record it in the sidecar."""
        self._stream.flush()
        state = json.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "rows_per_chunk": self.rows_per_chunk,
                "chunks": self.chunks_written,
                "rows": self._rows_done,
                "sessions": self._sessions_done,
                "data_end": self._stream.tell(),
                "index": self._index,
            },
            sort_keys=True, separators=(",", ":"),
        )
        sidecar = self.path + CHECKPOINT_SUFFIX
        tmp = sidecar + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(state)
        os.replace(tmp, sidecar)

    def _write_footer(self) -> None:
        footer = json.dumps(
            {
                "chunks": self._index,
                "rows": self._rows_done,
                "sessions": self._sessions_done,
            },
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        offset = self._stream.tell()
        self._stream.write(struct.pack(_FRAME_FMT, _FRAME_FOOTER,
                                       len(footer), zlib.crc32(footer)))
        self._stream.write(footer)
        self._stream.write(struct.pack(_TAIL_FMT, offset))
        self._stream.write(MAGIC)


class TeeSink:
    """Fan one op stream out to several sinks (e.g. tally + stream file).

    Every event goes to every sink through the same method it arrived
    on: a batch stays one batch object, shared by all the sinks.
    """

    def __init__(self, *sinks):
        self.sinks = sinks

    def record_op(self, record: OpRecord) -> None:
        for sink in self.sinks:
            sink.record_op(record)

    def record_session(self, record: SessionRecord) -> None:
        for sink in self.sinks:
            sink.record_session(record)

    def record_batch(self, batch: OpBatch) -> None:
        for sink in self.sinks:
            sink.record_batch(batch)


class StreamFileSink:
    """An :class:`~repro.core.oplog.OpSink` that spills to a stream file.

    Drop-in for ``run_simulated(log=...)``: op rows buffer up to
    ``memory_budget_bytes`` of column data (``rows_per_chunk`` rows at
    the fixed :data:`ROW_BYTES` row width) and flush as one chunk frame;
    session records embed at their exact op-row positions.  Close the
    sink (or use it as a context manager) to write the footer index —
    an unclosed file has no footer and readers reject it as truncated.

    Scalar ``record_op`` calls are batched into columnar pieces before
    buffering, so even a DES run writes the same chunked format.
    """

    def __init__(self, path: str,
                 memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
                 metadata: dict | None = None, observer=None,
                 checkpoint: bool = False, flush_hook=None):
        self.memory_budget_bytes = int(memory_budget_bytes)
        self._writer = StreamWriter(
            path, rows_per_chunk_for(memory_budget_bytes), metadata=metadata,
            observer=observer, checkpoint=checkpoint, flush_hook=flush_hook)
        self._scalar: list[OpRecord] = []
        # Scalar records columnarise in blocks; never hold more than a
        # chunk's worth (and keep tiny-budget tests exact).
        self._scalar_block = min(4096, self._writer.rows_per_chunk)

    @classmethod
    def _from_writer(cls, writer: StreamWriter,
                     memory_budget_bytes: int) -> "StreamFileSink":
        """Wrap an already-open writer (the resume path)."""
        sink = cls.__new__(cls)
        sink.memory_budget_bytes = int(memory_budget_bytes)
        sink._writer = writer
        sink._scalar = []
        sink._scalar_block = min(4096, writer.rows_per_chunk)
        return sink

    @property
    def path(self) -> str:
        """The artifact path."""
        return self._writer.path

    @property
    def rows_per_chunk(self) -> int:
        """Op rows per chunk under this sink's budget."""
        return self._writer.rows_per_chunk

    @property
    def chunks_written(self) -> int:
        """Chunk frames flushed so far."""
        return self._writer.chunks_written

    @property
    def buffered_rows(self) -> int:
        """Op rows currently buffered in memory."""
        return self._writer.buffered_rows + len(self._scalar)

    def _drain_scalar(self) -> None:
        if self._scalar:
            records, self._scalar = self._scalar, []
            self._writer.add_batch(OpBatch.from_records(records))

    def record_op(self, record: OpRecord) -> None:
        self._scalar.append(record)
        if len(self._scalar) >= self._scalar_block:
            self._drain_scalar()

    def record_batch(self, batch: OpBatch) -> None:
        self._drain_scalar()
        self._writer.add_batch(batch)

    def record_session(self, record: SessionRecord) -> None:
        self._drain_scalar()
        self._writer.add_session(record)

    def close(self) -> None:
        """Flush everything and finalise the artifact."""
        self._drain_scalar()
        self._writer.close()

    def abort(self) -> None:
        """Close the file without a footer (see StreamWriter.abort)."""
        self._scalar = []
        self._writer.abort()

    def __enter__(self) -> "StreamFileSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkInfo:
    """One footer-index entry (everything needed to seek and skip)."""

    index: int
    offset: int
    rows: int
    row_start: int
    sessions: int
    user_lo: int | None
    user_hi: int | None
    start_lo: float | None
    start_hi: float | None


@dataclass
class StreamChunk:
    """One decoded chunk: op rows plus positioned session records."""

    index: int
    batch: OpBatch
    sessions: list[tuple[int, SessionRecord]]
    row_start: int


def _normalize_users(users) -> "np.ndarray | None":
    if users is None:
        return None
    if isinstance(users, (int, np.integer)):
        return np.array([int(users)], dtype=np.int64)
    out = np.unique(np.asarray(sorted(int(u) for u in users),
                               dtype=np.int64))
    return out


class StreamReader:
    """Streaming, index-backed reader of one artifact file.

    Opens the file, validates magic/version/header, then seeks the
    footer through the fixed-size tail — so a reader never scans the
    whole file to answer ``total_rows`` or to slice by user/time.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            self._stream = open(path, "rb")
        except OSError as exc:
            raise StreamFormatError(f"cannot open stream file: {exc}") from None
        try:
            self._size = os.fstat(self._stream.fileno()).st_size
            self._read_header()
            self._read_footer()
        except BaseException:
            self._stream.close()
            raise

    # -- parsing --------------------------------------------------------------

    def _read_header(self) -> None:
        version, header, _ = _parse_header(self._stream, self._size,
                                           self.path)
        self.version = version
        self.header = header
        self.rows_per_chunk = int(header["rows_per_chunk"])
        self.metadata = dict(header.get("metadata", {}))
        self.kinds = tuple(header.get("kinds", ()))

    def _read_footer(self) -> None:
        size = self._size
        if size < _TAIL_BYTES:
            raise StreamFormatError("truncated stream file: no tail")
        self._stream.seek(size - _TAIL_BYTES)
        tail = _must_read(self._stream, _TAIL_BYTES, size, "tail")
        if tail[struct.calcsize(_TAIL_FMT):] != MAGIC:
            raise StreamFormatError(
                "truncated stream file: missing footer (was the writer "
                "closed?)"
            )
        (footer_offset,) = struct.unpack(
            _TAIL_FMT, tail[:struct.calcsize(_TAIL_FMT)])
        if not (0 < footer_offset < size - _TAIL_BYTES):
            raise StreamFormatError("corrupt tail: footer offset out of range")
        kind, payload, _ = _read_frame(self._stream, footer_offset, size,
                                       "footer")
        if kind != _FRAME_FOOTER:
            raise StreamFormatError("corrupt tail: offset is not a footer")
        try:
            footer = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise StreamFormatError(f"corrupt footer JSON: {exc}") from None
        self.total_rows = int(footer["rows"])
        self.total_sessions = int(footer["sessions"])
        self._footer_offset = footer_offset
        chunks = []
        row_start = 0
        for i, entry in enumerate(footer["chunks"]):
            chunks.append(ChunkInfo(
                index=i,
                offset=int(entry["offset"]),
                rows=int(entry["rows"]),
                row_start=row_start,
                sessions=int(entry["sessions"]),
                user_lo=entry["user_lo"],
                user_hi=entry["user_hi"],
                start_lo=entry["start_lo"],
                start_hi=entry["start_hi"],
            ))
            row_start += int(entry["rows"])
        if row_start != self.total_rows:
            raise StreamFormatError("corrupt footer: chunk rows disagree "
                                    "with the total")
        self.chunk_index: tuple[ChunkInfo, ...] = tuple(chunks)

    # -- access ---------------------------------------------------------------

    def read_chunk(self, index: int) -> StreamChunk:
        """Decode chunk ``index`` (CRC-checked seek through the footer)."""
        info = self.chunk_index[index]
        kind, payload, _ = _read_frame(self._stream, info.offset,
                                       self._size, f"chunk {index}")
        if kind != _FRAME_CHUNK:
            raise StreamFormatError(f"chunk {index}: not a chunk frame")
        batch, sessions = _decode_chunk(payload, f"chunk {index}")
        if len(batch) != info.rows or len(sessions) != info.sessions:
            raise StreamFormatError(
                f"chunk {index}: payload disagrees with the footer index"
            )
        return StreamChunk(index=index, batch=batch, sessions=sessions,
                           row_start=info.row_start)

    def _chunk_matches(self, info: ChunkInfo, users: "np.ndarray | None",
                       time_range) -> bool:
        if info.rows == 0:
            return users is None and time_range is None
        if users is not None:
            inside = users[(users >= info.user_lo) & (users <= info.user_hi)]
            if inside.size == 0:
                return False
        if time_range is not None:
            lo, hi = time_range
            if info.start_hi < lo or info.start_lo >= hi:
                return False
        return True

    def iter_chunks(self, users=None, time_range=None) -> Iterator[StreamChunk]:
        """Yield chunks in order, skipping via the footer index.

        ``users`` is a user id or an iterable of them; ``time_range`` a
        ``(lo, hi)`` half-open window over op start times.  Filters are
        applied chunk-wise here (a yielded chunk may still contain other
        rows); :meth:`iter_batches` applies the row-level mask.
        """
        users = _normalize_users(users)
        for info in self.chunk_index:
            if self._chunk_matches(info, users, time_range):
                yield self.read_chunk(info.index)

    def iter_batches(self, users=None, time_range=None) -> Iterator[OpBatch]:
        """Yield op-row batches, row-filtered by user and time window."""
        norm = _normalize_users(users)
        for chunk in self.iter_chunks(users=users, time_range=time_range):
            batch = chunk.batch
            if norm is None and time_range is None:
                if len(batch):
                    yield batch
                continue
            mask = np.ones(len(batch), dtype=bool)
            if norm is not None:
                mask &= np.isin(batch.user_ids, norm)
            if time_range is not None:
                lo, hi = time_range
                mask &= (batch.start_us >= lo) & (batch.start_us < hi)
            if mask.any():
                yield batch.select(mask)

    def replay(self, sink) -> tuple[int, int]:
        """Re-emit the artifact's exact event stream into ``sink``.

        Ops go through ``record_batch``; session summaries interleave at
        their recorded positions.  Returns ``(op_rows, sessions)``
        replayed.  Replaying into a new :class:`StreamFileSink` with the
        same budget reproduces the artifact byte for byte.
        """
        rows = sessions = 0
        for chunk in self.iter_chunks():
            for piece, record in _chunk_events(chunk.batch, chunk.sessions,
                                               chunk.row_start):
                if record is None:
                    sink.record_batch(piece)
                else:
                    sink.record_session(record)
                    sessions += 1
            rows += len(chunk.batch)
        return rows, sessions

    def info_kv(self) -> dict:
        """Human-readable summary (the ``stream info`` CLI verb)."""
        users = [c for c in self.chunk_index if c.rows]
        out = {
            "path": self.path,
            "format version": self.version,
            "op rows": self.total_rows,
            "sessions": self.total_sessions,
            "chunks": len(self.chunk_index),
            "rows per chunk": self.rows_per_chunk,
            "file bytes": os.path.getsize(self.path),
        }
        if users:
            out["user ids"] = (f"{min(c.user_lo for c in users)}.."
                               f"{max(c.user_hi for c in users)}")
            out["op start span (µs)"] = (
                f"{min(c.start_lo for c in users):.1f}.."
                f"{max(c.start_hi for c in users):.1f}")
        for key, value in sorted(self.metadata.items()):
            out[f"meta.{key}"] = value
        return out

    def close(self) -> None:
        """Close the underlying file."""
        self._stream.close()

    def __enter__(self) -> "StreamReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_batches(path: str, users=None, time_range=None) -> Iterator[OpBatch]:
    """Stream an artifact's op rows (module-level convenience).

    Opens ``path``, yields :class:`~repro.core.opbatch.OpBatch` chunks
    (row-filtered by ``users`` / ``time_range`` like
    :meth:`StreamReader.iter_batches`), and closes the file when the
    iterator is exhausted or discarded.
    """
    with StreamReader(path) as reader:
        yield from reader.iter_batches(users=users, time_range=time_range)


# ---------------------------------------------------------------------------
# Shard merge
# ---------------------------------------------------------------------------


def _iter_user_groups(reader: StreamReader):
    """Yield ``(user_id, events)`` per user, in the artifact's order.

    ``events`` is the user's slice of the event stream: ``("rows",
    batch)`` and ``("session", record)`` entries in arrival order.
    Requires user-contiguous artifacts (each user's events form one run,
    users in ascending order) — what the engine-free backends write.
    DES artifacts interleave users on the shared engine clock and are
    rejected.
    """
    current: int | None = None
    events: list = []
    for chunk in reader.iter_chunks():
        for rows, record in _chunk_events(chunk.batch, chunk.sessions,
                                          chunk.row_start):
            if rows is None:
                tagged = [(record.user_id, ("session", record))]
            else:
                uids = rows.user_ids
                cuts = [0, *(np.flatnonzero(np.diff(uids)) + 1).tolist(),
                        len(rows)]
                tagged = [
                    (int(uids[lo]), ("rows", rows if hi - lo == len(rows)
                                     else rows.select(slice(lo, hi))))
                    for lo, hi in zip(cuts, cuts[1:])
                ]
            for uid, event in tagged:
                if uid != current:
                    if current is not None:
                        yield current, events
                        if uid <= current:
                            raise StreamFormatError(
                                f"{reader.path}: user {uid} follows user "
                                f"{current}; stream merge needs "
                                "user-contiguous artifacts (engine-free "
                                "backends)"
                            )
                    current, events = uid, []
                events.append(event)
    if current is not None:
        yield current, events


def merge_stream_files(output: str, inputs: Iterable[str],
                       metadata: dict | None = None) -> int:
    """K-way merge per-shard artifacts into one canonical file.

    Inputs must share the format version, schema and ``rows_per_chunk``
    and hold disjoint, user-contiguous populations (what
    ``run_fleet(..., out_stream=...)`` shards write).  Users interleave
    back into ascending id order — the engine-free backends' canonical
    execution order — and the event stream is re-chunked under the same
    deterministic boundary rule, so the merged artifact is **bit
    identical** to the one a single-shard run writes.  Returns the
    number of op rows merged.

    ``metadata`` defaults to the first input's (shard metadata is
    run-level and identical across shards).
    """
    paths = list(inputs)
    if not paths:
        raise ValueError("merge_stream_files needs at least one input")
    readers = [StreamReader(p) for p in paths]
    try:
        first = readers[0]
        for reader in readers[1:]:
            if reader.version != first.version:
                raise StreamFormatError(
                    f"{reader.path}: format version {reader.version} != "
                    f"{first.version}"
                )
            if reader.rows_per_chunk != first.rows_per_chunk:
                raise StreamFormatError(
                    f"{reader.path}: rows_per_chunk "
                    f"{reader.rows_per_chunk} != {first.rows_per_chunk}; "
                    "shards must share one memory budget"
                )
        if metadata is None:
            metadata = first.metadata
        groups = [_iter_user_groups(r) for r in readers]
        heads: dict[int, tuple[int, list]] = {}
        for i, group in enumerate(groups):
            head = next(group, None)
            if head is not None:
                heads[i] = head
        rows = 0
        try:
            with StreamWriter(output, first.rows_per_chunk,
                              metadata=metadata) as writer:
                while heads:
                    source = min(heads, key=lambda i: heads[i][0])
                    uid, events = heads[source]
                    clashes = [i for i, (u, _) in heads.items()
                               if u == uid and i != source]
                    if clashes:
                        raise StreamFormatError(
                            f"user {uid} appears in both "
                            f"{readers[source].path} and "
                            f"{readers[clashes[0]].path}; shards must be "
                            "disjoint"
                        )
                    for kind, payload in events:
                        if kind == "rows":
                            writer.add_batch(payload)
                            rows += len(payload)
                        else:
                            writer.add_session(payload)
                    head = next(groups[source], None)
                    if head is None:
                        del heads[source]
                    else:
                        heads[source] = head
        except BaseException:
            # Never leave a half-written artifact behind.
            with contextlib.suppress(OSError):
                os.unlink(output)
            raise
        return rows
    finally:
        for reader in readers:
            reader.close()


# ---------------------------------------------------------------------------
# Crash salvage, resume, and verification
# ---------------------------------------------------------------------------


def _sequential_scan(stream, size: int, data_start: int):
    """Walk chunk frames forward from ``data_start``, CRC-checking each.

    Returns ``(entries, data_end, error)``: the index entries of every
    intact chunk frame before the first problem, the offset just past
    the last of them, and a description of what stopped the walk (None
    when it ended cleanly at an intact footer frame or at end of data).
    """
    entries: list[dict] = []
    pos = data_start
    while pos != size:
        what = f"chunk {len(entries)}"
        try:
            kind, payload, end = _read_frame(stream, pos, size, what)
            if kind == _FRAME_FOOTER:
                break
            if kind != _FRAME_CHUNK:
                raise StreamFormatError(f"unknown frame type {kind!r}")
            batch, sessions = _decode_chunk(payload, what)
        except StreamFormatError as exc:
            return entries, pos, f"{exc} (offset {pos})"
        entries.append(_index_entry(pos, batch, len(sessions)))
        pos = end
    return entries, pos, None


@dataclass
class ReplaySummary:
    """What :meth:`SalvagedStream.replay` fed into the sink.

    ``last_user`` (with its op-row and session counts inside the
    salvaged prefix) is the resume boundary: in a user-contiguous
    artifact every event the crash lost belongs to that user or later
    ones, because chunk *i* is only flushed once a row of chunk *i+1*
    has arrived — the last salvaged user's first row postdates every
    earlier user's entire event stream.
    """

    rows: int = 0
    sessions: int = 0
    max_end_us: float = 0.0
    last_user: int | None = None
    last_user_rows: int = 0
    last_user_sessions: int = 0


@dataclass
class SalvagedStream:
    """The verified, reusable prefix of a (possibly crashed) artifact.

    ``complete`` means the footer was intact and the whole file is
    reusable; otherwise ``index`` lists the CRC-verified *full* chunks
    (exactly ``rows_per_chunk`` rows each — a short tail chunk is
    dropped because resumed frames must land on the same deterministic
    boundaries) and ``data_end`` is the byte offset a resumed writer
    truncates to.
    """

    path: str
    version: int
    rows_per_chunk: int
    metadata: dict
    complete: bool
    index: list[dict]
    rows: int
    sessions: int
    data_end: int

    def _iter_chunks(self):
        with open(self.path, "rb") as stream:
            size = os.fstat(stream.fileno()).st_size
            for i, entry in enumerate(self.index):
                what = f"{self.path}: salvaged chunk {i}"
                kind, payload, _ = _read_frame(
                    stream, int(entry["offset"]), size, what)
                if kind != _FRAME_CHUNK:
                    raise StreamFormatError(f"{what}: not a chunk frame")
                yield _decode_chunk(payload, what)

    def replay(self, sink) -> ReplaySummary:
        """Re-emit the salvaged prefix into ``sink`` (see StreamReader).

        Ops and session records interleave at their recorded positions,
        so an order-invariant accumulator (the exact-integer tally)
        ends up exactly as if it had seen the original events.  The
        returned summary carries the resume boundary.
        """
        out = ReplaySummary()
        row_start = 0
        for batch, sessions in self._iter_chunks():
            for rows, record in _chunk_events(batch, sessions, row_start):
                if record is None:
                    sink.record_batch(rows)
                    end = float((rows.start_us + rows.response_us).max())
                    uid = int(rows.user_ids[-1])
                else:
                    sink.record_session(record)
                    out.sessions += 1
                    end = float(record.end_us)
                    uid = int(record.user_id)
                out.max_end_us = max(out.max_end_us, end)
                if out.last_user is None or uid > out.last_user:
                    out.last_user = uid
                    out.last_user_rows = 0
                    out.last_user_sessions = 0
                if record is None:
                    out.last_user_rows += int((rows.user_ids == uid).sum())
                elif uid == out.last_user:
                    out.last_user_sessions += 1
            row_start += len(batch)
            out.rows += len(batch)
        return out


def salvage_stream(path: str) -> SalvagedStream:
    """Find the intact, resumable prefix of an artifact at ``path``.

    A file with a valid footer is ``complete`` (fully reusable).
    Otherwise the checkpoint sidecar, when present and consistent, names
    the candidate chunks and only their CRCs are re-verified; a missing
    or disagreeing sidecar degrades to a sequential CRC walk.  Either
    way only *verified full* chunks survive into the result — anything
    doubtful is treated as lost and will be regenerated.
    """
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise StreamFormatError(f"cannot stat stream file: {exc}") from None
    try:
        with StreamReader(path) as reader:
            entries = [{key: getattr(info, key) for key in _INDEX_KEYS}
                       for info in reader.chunk_index]
            return SalvagedStream(
                path=path, version=reader.version,
                rows_per_chunk=reader.rows_per_chunk,
                metadata=dict(reader.metadata), complete=True,
                index=entries, rows=reader.total_rows,
                sessions=reader.total_sessions,
                data_end=reader._footer_offset,
            )
    except StreamFormatError:
        pass
    with open(path, "rb") as stream:
        version, header, data_start = _parse_header(stream, size, path)
        rows_per_chunk = int(header["rows_per_chunk"])
        found = _salvage_via_sidecar(stream, size, path, rows_per_chunk,
                                     data_start)
        if found is None:
            found = _sequential_scan(stream, size, data_start)[:2]
    entries, data_end = found
    # Only full chunks resume on the original boundaries; a short tail
    # chunk (written by a crashed close()) is dropped and regenerated.
    # Frames are contiguous, so the dropped chunk's offset is where the
    # kept prefix ends.
    while entries and int(entries[-1]["rows"]) != rows_per_chunk:
        data_end = int(entries.pop()["offset"])
    return SalvagedStream(
        path=path, version=version, rows_per_chunk=rows_per_chunk,
        metadata=dict(header.get("metadata", {})), complete=False,
        index=entries, rows=sum(int(e["rows"]) for e in entries),
        sessions=sum(int(e["sessions"]) for e in entries),
        data_end=data_end,
    )


def _salvage_via_sidecar(stream, size: int, path: str, rows_per_chunk: int,
                         data_start: int) -> "tuple[list[dict], int] | None":
    """Re-verify the chunks a checkpoint sidecar claims, or None.

    Returns ``(entries, data_end)`` like :func:`_sequential_scan`:
    the verified prefix of the claimed index and the offset just past
    its last frame (``data_start`` when nothing verified).
    """
    sidecar = path + CHECKPOINT_SUFFIX
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except (OSError, ValueError):
        return None
    try:
        if (state["format"] != CHECKPOINT_FORMAT
                or int(state["version"]) > CHECKPOINT_VERSION
                or int(state["rows_per_chunk"]) != rows_per_chunk
                or int(state["data_end"]) > size):
            return None
        claimed = list(state["index"])
    except (KeyError, TypeError, ValueError):
        return None
    entries: list[dict] = []
    data_end = data_start
    for entry in claimed:
        try:
            offset = int(entry["offset"])
        except (KeyError, TypeError, ValueError):
            break
        # Chunk frames are contiguous from the header on; a sidecar
        # claiming an entry that does not start where the previous frame
        # ended is lying.
        if offset != data_end:
            break
        try:
            kind, _, end = _read_frame(stream, offset, size, "claimed chunk")
        except StreamFormatError:
            break
        if kind != _FRAME_CHUNK:
            break
        entries.append(dict(entry))
        data_end = end
    return entries, data_end


def resume_stream_sink(path: str,
                       memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
                       metadata: dict | None = None, observer=None,
                       checkpoint: bool = True, flush_hook=None):
    """A :class:`StreamFileSink` continuing whatever survives at ``path``.

    Returns ``(sink, salvaged)``:

    * no usable prefix (missing file, foreign budget, nothing verified)
      — a fresh sink overwriting ``path``, ``salvaged`` None;
    * a crashed prefix — a sink resuming after the last intact chunk,
      with ``salvaged`` describing what to replay and skip;
    * an already-complete artifact — ``sink`` None, ``salvaged``
      carries the full file.
    """
    rows_per_chunk = rows_per_chunk_for(memory_budget_bytes)
    salvaged = None
    if os.path.exists(path):
        try:
            salvaged = salvage_stream(path)
        except StreamFormatError:
            salvaged = None
        if salvaged is not None and (
                salvaged.rows_per_chunk != rows_per_chunk
                or (not salvaged.complete and not salvaged.index)):
            salvaged = None
    if salvaged is None:
        sink = StreamFileSink(
            path, memory_budget_bytes, metadata=metadata, observer=observer,
            checkpoint=checkpoint, flush_hook=flush_hook)
        return sink, None
    if salvaged.complete:
        return None, salvaged
    writer = StreamWriter.resume(
        salvaged, metadata=metadata, observer=observer,
        checkpoint=checkpoint, flush_hook=flush_hook)
    return StreamFileSink._from_writer(writer, memory_budget_bytes), salvaged


@dataclass
class StreamVerifyReport:
    """Outcome of a full-file CRC walk (the ``stream verify`` verb)."""

    path: str
    ok: bool
    complete: bool
    chunks: int
    chunks_ok: int
    rows: int
    sessions: int
    file_bytes: int
    errors: list[str]

    def as_kv(self) -> dict:
        """Human-readable summary for the CLI."""
        return {
            "path": self.path,
            "verdict": "ok" if self.ok else "CORRUPT",
            "complete": self.complete,
            "chunks ok": f"{self.chunks_ok}/{self.chunks}",
            "op rows": self.rows,
            "sessions": self.sessions,
            "file bytes": self.file_bytes,
            "errors": len(self.errors),
        }


def verify_stream(path: str) -> StreamVerifyReport:
    """Exhaustively CRC-check and decode every frame of an artifact.

    Unlike lazy reads — which only fault on the chunks a consumer
    happens to touch — this walks header, every chunk payload (decoded,
    not just checksummed), the footer, and the tail, and reports every
    problem found.  ``ok`` requires a complete file with zero errors.
    """
    errors: list[str] = []
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        return StreamVerifyReport(path=path, ok=False, complete=False,
                                  chunks=0, chunks_ok=0, rows=0, sessions=0,
                                  file_bytes=0, errors=[str(exc)])
    try:
        with open(path, "rb") as stream:
            _, _, data_start = _parse_header(stream, size, path)
    except (OSError, StreamFormatError) as exc:
        return StreamVerifyReport(path=path, ok=False, complete=False,
                                  chunks=0, chunks_ok=0, rows=0, sessions=0,
                                  file_bytes=size, errors=[f"header: {exc}"])
    reader = None
    try:
        reader = StreamReader(path)
    except StreamFormatError as exc:
        errors.append(f"footer: {exc}")
    if reader is not None:
        try:
            chunks = len(reader.chunk_index)
            chunks_ok = 0
            sessions_seen = 0
            for info in reader.chunk_index:
                try:
                    chunk = reader.read_chunk(info.index)
                except StreamFormatError as exc:
                    errors.append(f"chunk {info.index}: {exc}")
                else:
                    chunks_ok += 1
                    sessions_seen += len(chunk.sessions)
            if sessions_seen != reader.total_sessions and not errors:
                errors.append(
                    f"footer: session total {reader.total_sessions} != "
                    f"{sessions_seen} found in chunks"
                )
            return StreamVerifyReport(
                path=path, ok=not errors, complete=True, chunks=chunks,
                chunks_ok=chunks_ok, rows=reader.total_rows,
                sessions=reader.total_sessions, file_bytes=size,
                errors=errors,
            )
        finally:
            reader.close()
    with open(path, "rb") as stream:
        entries, _, scan_error = _sequential_scan(stream, size, data_start)
    if scan_error is not None:
        errors.append(scan_error)
    return StreamVerifyReport(
        path=path, ok=False, complete=False, chunks=len(entries),
        chunks_ok=len(entries),
        rows=sum(int(e["rows"]) for e in entries),
        sessions=sum(int(e["sessions"]) for e in entries),
        file_bytes=size, errors=errors,
    )
