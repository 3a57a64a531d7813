"""Content-addressed blob store and journal-anchored snapshot manifests.

The journal records *what happened*; the blob store holds *the bytes that
happened* — compiled :class:`~repro.scanserve.registry.RulesetVersion`
payloads and serialized fleet shard outputs.  Blobs are addressed by the
SHA-256 of their content (``blobs/<aa>/<digest>.blob``), so identical
payloads written twice cost one file, writes are naturally idempotent, and
a digest recorded in a journal record *is* an integrity check on the
payload it points at.

A :class:`SnapshotManifest` caps a journal prefix: "at epoch E the registry
served these version blobs, with this current pointer, numbering and
tombstones".  It references the blobs publish already wrote instead of
copying them.  Recovery then becomes *load the latest manifest's version
blobs + replay the journal tail after E* instead of replaying history from
epoch zero, and compaction becomes *drop every sealed segment at or below
E*.  Manifests are small JSON files written atomically and kept in order
(``snapshots/snapshot-<epoch>.json``); the newest valid one wins, so a
crash mid-manifest-write can only lose the newest snapshot, never corrupt
recovery (the previous manifest plus a longer tail replay still
reconstructs the same state).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.utils.atomic import atomic_write_bytes, atomic_write_text

_BLOB_SUFFIX = ".blob"
_MANIFEST_PREFIX = "snapshot-"


def blob_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class MissingBlob(LookupError):
    """A digest the journal or a manifest references has no blob on disk."""


class BlobStore:
    """Content-addressed, write-once blob directory.

    Two-level fan-out (first byte of the digest) keeps directories small at
    registry scale.  Writes are atomic and durable; re-writing an existing
    digest is a no-op (content addressing makes it the same bytes by
    construction).
    """

    def __init__(self, directory: str | os.PathLike, durable: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.durable = durable

    def _path(self, digest: str) -> Path:
        if len(digest) < 3 or not all(c in "0123456789abcdef" for c in digest):
            raise ValueError(f"not a blob digest: {digest!r}")
        return self.directory / digest[:2] / f"{digest}{_BLOB_SUFFIX}"

    # -- writing ------------------------------------------------------------------
    def put(self, blob: bytes) -> str:
        digest = blob_digest(blob)
        path = self._path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, blob, durable=self.durable)
        return digest

    # -- reading ------------------------------------------------------------------
    def get(self, digest: str) -> bytes:
        try:
            blob = self._path(digest).read_bytes()
        except OSError:
            raise MissingBlob(f"missing blob {digest}") from None
        return blob

    def get_verified(self, digest: str) -> bytes:
        """Read a blob and verify its content still matches its address."""
        blob = self.get(digest)
        actual = blob_digest(blob)
        if actual != digest:
            raise MissingBlob(f"blob {digest} decayed on disk (reads as {actual})")
        return blob

    def __contains__(self, digest: str) -> bool:
        try:
            return self._path(digest).exists()
        except ValueError:
            return False

    def digests(self) -> Iterator[str]:
        for path in sorted(self.directory.glob(f"*/*{_BLOB_SUFFIX}")):
            yield path.stem

    def stats(self) -> dict:
        count = 0
        total = 0
        for path in self.directory.glob(f"*/*{_BLOB_SUFFIX}"):
            count += 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return {"blobs": count, "bytes": total}

    def remove_strays(self) -> int:
        """Delete scratch files a crash left mid-write (never whole blobs)."""
        removed = 0
        for stray in self.directory.glob("*/*.tmp"):
            try:
                stray.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def delete(self, digest: str) -> bool:
        try:
            self._path(digest).unlink()
            return True
        except (OSError, ValueError):
            return False

    def collect_garbage(self, live: set[str]) -> int:
        """Delete every blob not in ``live``; returns how many went."""
        removed = 0
        for digest in list(self.digests()):
            if digest not in live:
                removed += self.delete(digest)
        return removed


@dataclass(frozen=True)
class SnapshotManifest:
    """One "registry state as of epoch E" marker.

    ``version_blobs`` maps each live version number to the
    :meth:`RulesetVersion.to_bytes` blob it was published from.
    ``next_version``, ``min_atom_length`` and ``retired`` (tombstones as
    plain dicts) complete the registry state; a manifest written before
    they were recorded reads them as ``None`` / empty.
    """

    epoch: int
    version_blobs: dict[int, str] = field(default_factory=dict)
    current_version: Optional[int] = None
    namespace: str = ""
    next_version: Optional[int] = None
    min_atom_length: Optional[int] = None
    retired: list[dict] = field(default_factory=list)
    created_at: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "version_blobs": {str(k): v for k, v in self.version_blobs.items()},
            "current_version": self.current_version,
            "namespace": self.namespace,
            "next_version": self.next_version,
            "min_atom_length": self.min_atom_length,
            "retired": list(self.retired),
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SnapshotManifest":
        return cls(
            epoch=int(data["epoch"]),
            version_blobs={
                int(k): str(v) for k, v in dict(data.get("version_blobs", {})).items()
            },
            current_version=_optional_int(data.get("current_version")),
            namespace=str(data.get("namespace", "")),
            next_version=_optional_int(data.get("next_version")),
            min_atom_length=_optional_int(data.get("min_atom_length")),
            retired=[dict(record) for record in data.get("retired", [])],
            created_at=float(data.get("created_at", 0.0)),
        )

    def referenced_blobs(self) -> set[str]:
        return set(self.version_blobs.values())


def _optional_int(value) -> Optional[int]:
    return None if value is None else int(value)


class ManifestIndex:
    """The ordered set of snapshot manifests under ``snapshots/``."""

    def __init__(self, directory: str | os.PathLike, durable: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.durable = durable

    def _path(self, epoch: int) -> Path:
        return self.directory / f"{_MANIFEST_PREFIX}{epoch:012d}.json"

    def write(self, manifest: SnapshotManifest) -> Path:
        path = self._path(manifest.epoch)
        atomic_write_text(
            path,
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
            durable=self.durable,
        )
        return path

    def paths(self) -> list[Path]:
        return sorted(self.directory.glob(f"{_MANIFEST_PREFIX}*.json"))

    def all(self) -> list[SnapshotManifest]:
        manifests = []
        for path in self.paths():
            loaded = self._load(path)
            if loaded is not None:
                manifests.append(loaded)
        return manifests

    def latest(self) -> Optional[SnapshotManifest]:
        for path in reversed(self.paths()):
            loaded = self._load(path)
            if loaded is not None:
                return loaded
        return None

    @staticmethod
    def _load(path: Path) -> Optional[SnapshotManifest]:
        try:
            return SnapshotManifest.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None  # unreadable manifest: fall back to the previous one

    def prune_before(self, epoch: int) -> int:
        """Drop superseded manifests older than ``epoch`` (keep the newest)."""
        removed = 0
        for path in self.paths():
            loaded = self._load(path)
            if loaded is None or loaded.epoch < epoch:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def remove_strays(self) -> int:
        removed = 0
        for stray in self.directory.glob("*.tmp"):
            try:
                stray.unlink()
                removed += 1
            except OSError:
                pass
        return removed


__all__ = [
    "BlobStore",
    "ManifestIndex",
    "MissingBlob",
    "SnapshotManifest",
    "blob_digest",
]
