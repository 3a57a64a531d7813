"""Append-only write-ahead journal with checksummed, length-prefixed records.

Every durable state change in the system — a registry publish, an
activation, a retirement, a fleet shard completing, a gateway job changing
state, an arena round — lands here *first*, as one framed record:

    +----------------+----------------+------------------------+
    | length (u32 BE)| crc32 (u32 BE) | payload (JSON, length) |
    +----------------+----------------+------------------------+

The payload is a JSON envelope ``{"epoch", "type", "ts", "data"}`` where
``epoch`` is the journal-wide logical sequence number (a monotonically
increasing record counter — the store's clock: snapshots, checkpoints and
leaderboards all anchor to it).

Records append to the current *segment* file (``segment-<n>.wal``); when a
segment crosses ``segment_max_bytes`` the journal rotates: fsync the full
segment, create the next one (starting with a magic header), fsync the
directory so the new entry survives a crash.  Segments are immutable once
rotated away from, which is what makes compaction ("drop every segment the
latest snapshot already covers") a plain ``unlink``.

Crash behavior on replay: a torn record at the *tail* of the last segment
(the write the crash interrupted) is truncated away; a corrupt record in
the *middle* of the stream is a real integrity failure — replay stops there
and reports every dropped record rather than guessing at resynchronization.
Only the last segment takes appends, so torn bytes at the end of a sealed
segment are corruption too (bit rot in its final frame), never a torn tail.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.obs.metrics import get_registry
from repro.utils.atomic import fsync_dir

_JOURNAL_APPENDS = get_registry().counter(
    "repro_journal_appends_total", "Journal records appended, by record type.", ("type",)
)
_JOURNAL_BYTES = get_registry().counter(
    "repro_journal_bytes_total", "Framed bytes appended to the journal."
)
_JOURNAL_ROTATIONS = get_registry().counter(
    "repro_journal_rotations_total", "Journal segment rotations."
)

#: Segment file header; also the format version gate.
SEGMENT_MAGIC = b"RWAL1\n"
_FRAME = struct.Struct(">II")  # payload length, crc32(payload)
#: Frames larger than this are rejected on append and treated as corruption
#: on replay (a bogus length prefix must not trigger a gigabyte read).
MAX_RECORD_BYTES = 64 * 1024 * 1024
DEFAULT_SEGMENT_MAX_BYTES = 8 * 1024 * 1024

# -- record types -------------------------------------------------------------------
#: Registry lifecycle.
PUBLISH = "publish"
ACTIVATE = "activate"
RETIRE = "retire"
#: Fleet checkpoints (see :mod:`repro.store.checkpoints`).
FLEET_START = "fleet-start"
SHARD_COMPLETE = "shard-complete"
FLEET_MERGE = "fleet-merge"
#: Gateway job transitions.
JOB_SUBMITTED = "job-submitted"
JOB_STARTED = "job-started"
JOB_FINISHED = "job-finished"
#: Arena rounds.
ARENA_ROUND = "arena-round"
#: Snapshot manifests written (bookkeeping marker).
SNAPSHOT = "snapshot"

RECORD_TYPES = frozenset({
    PUBLISH, ACTIVATE, RETIRE,
    FLEET_START, SHARD_COMPLETE, FLEET_MERGE,
    JOB_SUBMITTED, JOB_STARTED, JOB_FINISHED,
    ARENA_ROUND, SNAPSHOT,
})


class JournalCorruption(ValueError):
    """A mid-stream record failed validation (not a truncatable torn tail)."""


@dataclass(frozen=True)
class JournalRecord:
    """One replayed (or just-appended) journal record."""

    epoch: int
    type: str
    ts: float
    data: dict
    segment: str = ""
    offset: int = 0  # frame start within the segment

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "type": self.type,
            "ts": self.ts,
            "data": self.data,
        }


@dataclass
class SegmentScan:
    """What scanning one segment file found."""

    path: Path
    records: list[JournalRecord] = field(default_factory=list)
    valid_bytes: int = 0  # header + every intact frame
    torn_bytes: int = 0  # trailing bytes of an interrupted append
    corrupt: bool = False  # bad header, mid-stream or sealed-segment damage
    error: str = ""

    @property
    def last_epoch(self) -> int:
        return self.records[-1].epoch if self.records else 0


def _segment_number(path: Path) -> int:
    stem = path.stem  # segment-<n>
    try:
        return int(stem.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return -1


def scan_segment(path: Path) -> SegmentScan:
    """Validate one segment file frame by frame.

    Returns every intact record plus exact byte accounting: a clean file
    has ``valid_bytes == file size``; an interrupted append leaves
    ``torn_bytes`` (truncatable); anything else marks the segment corrupt
    at the first bad frame.
    """
    scan = SegmentScan(path=path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        scan.corrupt = True
        scan.error = f"unreadable: {exc}"
        return scan
    if not blob.startswith(SEGMENT_MAGIC):
        scan.corrupt = True
        scan.error = "bad segment magic"
        return scan
    position = len(SEGMENT_MAGIC)
    total = len(blob)
    while position < total:
        header = blob[position:position + _FRAME.size]
        if len(header) < _FRAME.size:
            scan.torn_bytes = total - position
            break
        length, checksum = _FRAME.unpack(header)
        if length > MAX_RECORD_BYTES:
            scan.corrupt = True
            scan.error = f"frame at offset {position} claims {length} bytes"
            break
        payload = blob[position + _FRAME.size:position + _FRAME.size + length]
        if len(payload) < length:
            scan.torn_bytes = total - position
            break
        if zlib.crc32(payload) != checksum:
            # a bad checksum at the very tail is a torn (partially flushed)
            # append; earlier it is genuine corruption
            if position + _FRAME.size + length == total:
                scan.torn_bytes = total - position
            else:
                scan.corrupt = True
                scan.error = f"checksum mismatch at offset {position}"
            break
        try:
            envelope = json.loads(payload.decode("utf-8"))
            record = JournalRecord(
                epoch=int(envelope["epoch"]),
                type=str(envelope["type"]),
                ts=float(envelope.get("ts", 0.0)),
                data=dict(envelope.get("data", {})),
                segment=path.name,
                offset=position,
            )
        except (ValueError, KeyError, TypeError) as exc:
            scan.corrupt = True
            scan.error = f"undecodable payload at offset {position}: {exc}"
            break
        scan.records.append(record)
        position += _FRAME.size + length
        scan.valid_bytes = position
    else:
        scan.valid_bytes = position
    if not scan.records:
        scan.valid_bytes = max(scan.valid_bytes, len(SEGMENT_MAGIC))
    return scan


def segment_paths(directory: Path) -> list[Path]:
    """A journal directory's segment files, oldest first."""
    if not directory.is_dir():
        return []
    found = [
        path
        for path in directory.glob("segment-*.wal")
        if _segment_number(path) >= 0
    ]
    return sorted(found, key=_segment_number)


def scan_segments(paths: Sequence[Path]) -> Iterator[SegmentScan]:
    """Scan a journal's segments in order, one file at a time.

    Only the last segment takes appends, so torn bytes at the end of any
    earlier one are no interrupted write but damage (bit rot in a sealed
    segment's final frame): that segment's scan is marked corrupt.
    """
    for path in paths:
        scan = scan_segment(path)
        if scan.torn_bytes and path != paths[-1]:
            scan.corrupt = True
            scan.error = (
                f"{scan.torn_bytes} torn byte(s) at offset {scan.valid_bytes} "
                f"of a sealed segment"
            )
        yield scan


def read_journal(directory: Path, after: int = 0) -> Iterator[JournalRecord]:
    """Yield every intact record with ``epoch > after``, in order, repairing nothing.

    Safe beside a live writer: a torn tail of the last segment (an append
    in flight, or one a crash interrupted) ends the iteration, and
    mid-stream or sealed-segment damage raises :class:`JournalCorruption`.
    """
    for scan in scan_segments(segment_paths(directory)):
        for record in scan.records:
            if record.epoch > after:
                yield record
        if scan.corrupt:
            raise JournalCorruption(f"{scan.path.name}: {scan.error}")


class Journal:
    """The store's append-only record log.

    ``durable=True`` fsyncs every append (the write-ahead contract);
    ``durable=False`` trades that for speed in tests and bulk rebuilds —
    atomic framing and torn-tail recovery still hold, power loss may just
    drop the newest records.

    Use :func:`repro.store.recovery.open_store` (or :meth:`Journal.open`)
    to attach to an existing directory — opening validates every segment
    and truncates a torn tail before the first append.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        durable: bool = True,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
    ) -> None:
        if segment_max_bytes < len(SEGMENT_MAGIC) + _FRAME.size:
            raise ValueError("segment_max_bytes is too small for one record")
        self.directory = Path(directory)
        self.durable = durable
        self.segment_max_bytes = segment_max_bytes
        self._lock = threading.Lock()
        self._handle = None  # open file of the current segment
        self._segment_path: Optional[Path] = None
        self._segment_bytes = 0
        self._last_epoch = 0
        self.truncated_bytes = 0  # torn tail removed at open time
        self._open_tail()

    # -- lifecycle ----------------------------------------------------------------
    def _open_tail(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        segments = self.segments()
        if not segments:
            self._start_segment(1)
            return
        tail = segments[-1]
        scan = scan_segment(tail)
        if scan.corrupt:
            raise JournalCorruption(f"{tail.name}: {scan.error}")
        if scan.torn_bytes:
            with open(tail, "r+b") as handle:
                handle.truncate(scan.valid_bytes)
                if self.durable:
                    os.fsync(handle.fileno())
            self.truncated_bytes = scan.torn_bytes
        # the epoch continues from the highest record across *all* segments;
        # earlier segments are scanned lazily by replay/fsck, but the tail's
        # last epoch is enough because epochs are assigned in append order
        last = scan.last_epoch
        if not scan.records and len(segments) > 1:
            for earlier in reversed(segments[:-1]):
                previous = scan_segment(earlier)
                if previous.records:
                    last = previous.last_epoch
                    break
        self._last_epoch = last
        self._handle = open(tail, "ab")
        self._segment_path = tail
        self._segment_bytes = tail.stat().st_size

    def _start_segment(self, number: int) -> None:
        path = self.directory / f"segment-{number:08d}.wal"
        handle = open(path, "xb")
        handle.write(SEGMENT_MAGIC)
        handle.flush()
        if self.durable:
            os.fsync(handle.fileno())
            fsync_dir(self.directory)
        self._handle = handle
        self._segment_path = path
        self._segment_bytes = len(SEGMENT_MAGIC)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                if self.durable:
                    os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- appending ----------------------------------------------------------------
    def append(self, record_type: str, data: Optional[dict] = None) -> int:
        """Frame, append and (if durable) fsync one record; returns its epoch."""
        if record_type not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {record_type!r}")
        with self._lock:
            if self._handle is None:
                raise RuntimeError("journal is closed")
            epoch = self._last_epoch + 1
            payload = json.dumps(
                {
                    "epoch": epoch,
                    "type": record_type,
                    "ts": time.time(),
                    "data": data or {},
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
            if len(payload) > MAX_RECORD_BYTES:
                raise ValueError(f"record of {len(payload)} bytes exceeds the frame limit")
            frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
            if (
                self._segment_bytes + len(frame) > self.segment_max_bytes
                and self._segment_bytes > len(SEGMENT_MAGIC)
            ):
                self._rotate_locked()
            self._write(frame)
            self._handle.flush()
            if self.durable:
                os.fsync(self._handle.fileno())
            self._segment_bytes += len(frame)
            self._last_epoch = epoch
            _JOURNAL_APPENDS.inc(type=record_type)
            _JOURNAL_BYTES.inc(len(frame))
            return epoch

    def _write(self, frame: bytes) -> None:
        """Single choke point for segment writes (fault injection hooks here)."""
        self._handle.write(frame)

    def rotate(self) -> Path:
        """Seal the current segment and start the next one."""
        with self._lock:
            return self._rotate_locked()

    def _rotate_locked(self) -> Path:
        if self._handle is None:
            raise RuntimeError("journal is closed")
        self._handle.flush()
        if self.durable:
            os.fsync(self._handle.fileno())
        self._handle.close()
        sealed = self._segment_path
        self._start_segment(_segment_number(sealed) + 1)
        _JOURNAL_ROTATIONS.inc()
        return sealed

    # -- reading ------------------------------------------------------------------
    def segments(self) -> list[Path]:
        return segment_paths(self.directory)

    @property
    def last_epoch(self) -> int:
        with self._lock:
            return self._last_epoch

    def replay(self, after: int = 0) -> Iterator[JournalRecord]:
        """:func:`read_journal` over this journal, after flushing its appends."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
        yield from read_journal(self.directory, after)

    def records_by_type(self, record_type: str, after: int = 0) -> list[JournalRecord]:
        return [r for r in self.replay(after=after) if r.type == record_type]

    # -- compaction ---------------------------------------------------------------
    def drop_segments_through(self, epoch: int) -> list[Path]:
        """Unlink sealed segments whose records are all ``<= epoch``.

        The active (tail) segment is never dropped, and neither is a
        damaged segment or anything after it.  Returns the removed paths;
        used by ``store compact`` after a snapshot makes the prefix
        redundant.
        """
        dropped: list[Path] = []
        with self._lock:
            for scan in scan_segments(self.segments()):
                if scan.path == self._segment_path:
                    continue
                if scan.corrupt:
                    break
                if scan.records and scan.last_epoch > epoch:
                    break
                if not scan.records and self._last_epoch > epoch:
                    break
                scan.path.unlink()
                dropped.append(scan.path)
            if dropped and self.durable:
                fsync_dir(self.directory)
        return dropped


__all__ = [
    "ACTIVATE",
    "ARENA_ROUND",
    "DEFAULT_SEGMENT_MAX_BYTES",
    "FLEET_MERGE",
    "FLEET_START",
    "JOB_FINISHED",
    "JOB_STARTED",
    "JOB_SUBMITTED",
    "Journal",
    "JournalCorruption",
    "JournalRecord",
    "MAX_RECORD_BYTES",
    "PUBLISH",
    "RECORD_TYPES",
    "RETIRE",
    "SEGMENT_MAGIC",
    "SHARD_COMPLETE",
    "SNAPSHOT",
    "SegmentScan",
    "read_journal",
    "scan_segment",
    "scan_segments",
    "segment_paths",
]
