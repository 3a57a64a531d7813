"""Opening a store is a recovery: fsck, truncate torn writes, report.

A :class:`RuleStore` is the durable root the rest of the system journals
into::

    root/
      journal/    segment-<n>.wal          (write-ahead record log)
      blobs/      <aa>/<digest>.blob       (content-addressed payloads)
      snapshots/  snapshot-<epoch>.json    (registry state manifests)

:func:`open_store` never trusts the directory it is handed.  It scans every
journal segment frame by frame, truncates the torn tail a crash left behind,
sweeps half-written scratch files out of the blob and snapshot directories,
checks that every blob the latest manifest references actually exists, and
hands back a typed :class:`RecoveryReport` saying exactly what it found and
what it repaired — the same report ``rulellm store fsck`` prints and the CI
kill-and-resume smoke step uploads as an artifact.

The store itself stays subsystem-agnostic: the registry, the fleet
checkpointer, the gateway and the arena each know how to write *their*
records here (and how to fold them back), the store only guarantees the
records and blobs survive.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.store.journal import (
    Journal,
    JournalCorruption,
    scan_segments,
)
from repro.store.snapshots import (
    BlobStore,
    ManifestIndex,
    SnapshotManifest,
    blob_digest,
)

JOURNAL_DIR = "journal"
BLOBS_DIR = "blobs"
SNAPSHOTS_DIR = "snapshots"


@dataclass
class RecoveryReport:
    """What opening (or fsck-ing) a store found and repaired."""

    root: str
    ok: bool = True
    created: bool = False  # the directory had no store before
    segments: int = 0
    records: int = 0
    last_epoch: int = 0
    torn_bytes_truncated: int = 0
    corrupt_segments: list[str] = field(default_factory=list)
    stray_files_removed: int = 0
    snapshot_epoch: Optional[int] = None  # latest usable manifest
    manifests: int = 0
    blobs: int = 0
    blob_bytes: int = 0
    missing_blobs: list[str] = field(default_factory=list)
    decayed_blobs: list[str] = field(default_factory=list)
    records_by_type: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "ok": self.ok,
            "created": self.created,
            "segments": self.segments,
            "records": self.records,
            "last_epoch": self.last_epoch,
            "torn_bytes_truncated": self.torn_bytes_truncated,
            "corrupt_segments": list(self.corrupt_segments),
            "stray_files_removed": self.stray_files_removed,
            "snapshot_epoch": self.snapshot_epoch,
            "manifests": self.manifests,
            "blobs": self.blobs,
            "blob_bytes": self.blob_bytes,
            "missing_blobs": list(self.missing_blobs),
            "decayed_blobs": list(self.decayed_blobs),
            "records_by_type": dict(sorted(self.records_by_type.items())),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "notes": list(self.notes),
        }

    def describe(self) -> str:
        state = "ok" if self.ok else "DAMAGED"
        repairs = []
        if self.torn_bytes_truncated:
            repairs.append(f"truncated {self.torn_bytes_truncated}B torn tail")
        if self.stray_files_removed:
            repairs.append(f"removed {self.stray_files_removed} stray file(s)")
        if self.corrupt_segments:
            repairs.append(f"{len(self.corrupt_segments)} corrupt segment(s)")
        if self.missing_blobs:
            repairs.append(f"{len(self.missing_blobs)} missing blob(s)")
        suffix = f" [{'; '.join(repairs)}]" if repairs else ""
        snapshot = (
            f", snapshot@{self.snapshot_epoch}" if self.snapshot_epoch else ""
        )
        return (
            f"store {self.root}: {state}, {self.records} records in "
            f"{self.segments} segment(s) (epoch {self.last_epoch}"
            f"{snapshot}), {self.blobs} blobs{suffix}"
        )


@dataclass
class CompactReport:
    """What one ``store compact`` pass folded away."""

    snapshot_epoch: int = 0
    segments_dropped: int = 0
    records_folded: int = 0
    records_carried: int = 0  # non-registry records re-appended past the snapshot
    manifests_pruned: int = 0
    blobs_collected: int = 0

    def to_dict(self) -> dict:
        return {
            "snapshot_epoch": self.snapshot_epoch,
            "segments_dropped": self.segments_dropped,
            "records_folded": self.records_folded,
            "records_carried": self.records_carried,
            "manifests_pruned": self.manifests_pruned,
            "blobs_collected": self.blobs_collected,
        }

    def describe(self) -> str:
        return (
            f"compacted to snapshot@{self.snapshot_epoch}: dropped "
            f"{self.segments_dropped} segment(s) / {self.records_folded} "
            f"record(s), carried {self.records_carried} forward, pruned "
            f"{self.manifests_pruned} manifest(s), collected "
            f"{self.blobs_collected} blob(s)"
        )


class RuleStore:
    """One durable root: journal + blobs + snapshot manifests."""

    def __init__(
        self,
        root: str | os.PathLike,
        journal: Journal,
        blobs: BlobStore,
        manifests: ManifestIndex,
        report: RecoveryReport,
    ) -> None:
        self.root = Path(root)
        self.journal = journal
        self.blobs = blobs
        self.manifests = manifests
        self.report = report  # how the last open went

    # -- snapshots ----------------------------------------------------------------
    def latest_manifest(self) -> Optional[SnapshotManifest]:
        return self.manifests.latest()

    def write_manifest(self, manifest: SnapshotManifest) -> SnapshotManifest:
        self.manifests.write(manifest)
        self.journal.append("snapshot", {"epoch": manifest.epoch})
        return manifest

    # -- sub-stores ---------------------------------------------------------------
    def substore(self, *parts: str, durable: Optional[bool] = None) -> "RuleStore":
        """Open (creating if needed) a nested store, e.g. per gateway tenant."""
        safe = []
        for part in parts:
            cleaned = "".join(c if c.isalnum() or c in "._-" else "_" for c in part)
            if not cleaned or cleaned.startswith("."):
                raise ValueError(f"invalid substore path component {part!r}")
            safe.append(cleaned)
        store, _ = open_store(
            self.root.joinpath(*safe),
            durable=self.journal.durable if durable is None else durable,
        )
        return store

    # -- introspection ------------------------------------------------------------
    def info(self) -> dict:
        by_type: dict[str, int] = {}
        records = 0
        last_epoch = 0
        try:
            for record in self.journal.replay():
                records += 1
                last_epoch = record.epoch
                by_type[record.type] = by_type.get(record.type, 0) + 1
        except JournalCorruption:
            pass
        manifest = self.latest_manifest()
        segments = self.journal.segments()
        return {
            "root": str(self.root),
            "segments": len(segments),
            "journal_bytes": sum(p.stat().st_size for p in segments),
            "records": records,
            "records_by_type": dict(sorted(by_type.items())),
            "last_epoch": last_epoch,
            "snapshot_epoch": manifest.epoch if manifest else None,
            "manifests": len(self.manifests.paths()),
            **self.blobs.stats(),
        }

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "RuleStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- compaction ---------------------------------------------------------------
    def compact(self, registry=None) -> CompactReport:
        """Fold the journal prefix into a fresh snapshot and drop it.

        ``registry`` is the live :class:`~repro.scanserve.registry.
        RulesetRegistry` to snapshot; when ``None`` one is recovered from
        the store first (so ``rulellm store compact`` works offline).
        Non-registry records at or below the snapshot epoch that later
        recovery still needs — fleet shard checkpoints, the newest gateway
        job states, arena rounds — are *re-appended* past the snapshot
        before the prefix is dropped, so compaction never strands a
        resumable run.  Finally, blobs no longer referenced by any journal
        record or manifest are garbage-collected.
        """
        # deferred import: the store layer must stay import-independent of
        # the registry; compaction is the one operation that spans both
        from repro.scanserve.registry import RulesetRegistry

        report = CompactReport()
        if registry is None:
            registry = RulesetRegistry.from_store(self)

        snapshot_epoch = self.journal.last_epoch
        carry: list = []
        folded = 0
        for record in self.journal.replay():
            if record.epoch > snapshot_epoch:
                continue
            folded += 1
            if record.type in _CARRIED_TYPES:
                carry.append(record)
        carried = _dedupe_carried(carry)

        # seal the prefix *first*: the snapshot marker and the carried
        # copies land in a fresh segment, so every sealed segment holds only
        # records <= snapshot_epoch and the whole prefix drops in one pass
        self.journal.rotate()
        manifest = registry.snapshot(self)
        report.snapshot_epoch = manifest.epoch
        for record in carried:
            self.journal.append(record.type, record.data)
        report.records_carried = len(carried)

        dropped = self.journal.drop_segments_through(snapshot_epoch)
        report.segments_dropped = len(dropped)
        report.records_folded = folded if dropped else 0
        report.manifests_pruned = self.manifests.prune_before(manifest.epoch)

        live = manifest.referenced_blobs()
        try:
            for record in self.journal.replay():
                live.update(_record_blobs(record))
        except JournalCorruption:
            return report  # never GC with an unreadable journal
        for kept in self.manifests.all():
            live.update(kept.referenced_blobs())
        report.blobs_collected = self.blobs.collect_garbage(live)
        return report


#: Record types compaction must carry across a snapshot (registry records
#: are folded *into* the snapshot; these are independent state machines).
_CARRIED_TYPES = frozenset({
    "shard-complete", "fleet-start", "fleet-merge",
    "job-submitted", "job-started", "job-finished",
    "arena-round",
})


def _carried_identity(record) -> tuple:
    """Logical identity a carried record is deduplicated under.

    Compaction re-appends carried records past the snapshot, and the next
    compaction replays both the originals (if their segment survived) and
    the copies — without identity-keyed dedup every compact would double
    them.  Job transitions additionally collapse across types so only each
    job's newest state survives.
    """
    data = record.data
    if record.type.startswith("job-"):
        return ("job", str(data.get("id", "")))
    if record.type == "shard-complete":
        return (record.type, str(data.get("run_key", "")), str(data.get("label", "")))
    if record.type in ("fleet-start", "fleet-merge"):
        return (record.type, str(data.get("run_key", "")))
    if record.type == "arena-round":
        return (record.type, int(data.get("index", -1)))
    return (record.type, record.epoch)


def _dedupe_carried(records: list) -> list:
    """Keep only the newest record per logical identity, in epoch order."""
    latest: dict[tuple, object] = {}
    for record in records:
        latest[_carried_identity(record)] = record
    return sorted(latest.values(), key=lambda r: r.epoch)


def _record_blobs(record) -> set[str]:
    """Every blob digest a journal record references."""
    found: set[str] = set()
    for key in ("blob", "rules_blob"):
        value = record.data.get(key)
        if isinstance(value, str) and value:
            found.add(value)
    return found


def open_store(
    root: str | os.PathLike,
    durable: bool = True,
    deep: bool = False,
    create: bool = True,
) -> tuple[RuleStore, RecoveryReport]:
    """fsck-validate ``root`` and return an attached :class:`RuleStore`.

    Repairs performed: torn journal tails truncated, scratch files from
    interrupted atomic writes swept, nothing else — corrupt segments
    (mid-stream damage, or torn bytes in a sealed segment) and missing
    blobs are *reported* (``report.ok = False``), not papered over.
    ``deep=True`` re-hashes every blob against its address (fsck's
    ``--deep``); the default only existence-checks the blobs the
    latest manifest needs.
    """
    started = time.perf_counter()
    root = Path(root)
    report = RecoveryReport(root=str(root))
    is_new = not (root / JOURNAL_DIR).is_dir()
    if is_new and not create:
        raise FileNotFoundError(f"no store under {root}")
    report.created = is_new

    # journal: scan every sealed segment, truncate the tail's torn bytes
    journal = Journal(root / JOURNAL_DIR, durable=durable)
    report.torn_bytes_truncated = journal.truncated_bytes
    segments = journal.segments()
    report.segments = len(segments)
    for scan in scan_segments(segments):
        report.records += len(scan.records)
        if scan.records:
            report.last_epoch = max(report.last_epoch, scan.last_epoch)
        for record in scan.records:
            report.records_by_type[record.type] = (
                report.records_by_type.get(record.type, 0) + 1
            )
        if scan.corrupt:
            report.corrupt_segments.append(f"{scan.path.name}: {scan.error}")
            report.ok = False

    blobs = BlobStore(root / BLOBS_DIR, durable=durable)
    manifests = ManifestIndex(root / SNAPSHOTS_DIR, durable=durable)
    report.stray_files_removed = blobs.remove_strays() + manifests.remove_strays()
    stats = blobs.stats()
    report.blobs = stats["blobs"]
    report.blob_bytes = stats["bytes"]
    report.manifests = len(manifests.paths())

    manifest = manifests.latest()
    if manifest is not None:
        report.snapshot_epoch = manifest.epoch
        for digest in sorted(manifest.referenced_blobs()):
            if digest not in blobs:
                report.missing_blobs.append(digest)
                report.ok = False

    if deep:
        for digest in blobs.digests():
            try:
                actual = blob_digest(blobs.get(digest))
            except Exception:
                actual = ""
            if actual != digest:
                report.decayed_blobs.append(digest)
                report.ok = False

    report.elapsed_seconds = time.perf_counter() - started
    store = RuleStore(root, journal, blobs, manifests, report)
    return store, report


__all__ = [
    "BLOBS_DIR",
    "CompactReport",
    "JOURNAL_DIR",
    "RecoveryReport",
    "RuleStore",
    "SNAPSHOTS_DIR",
    "open_store",
]
