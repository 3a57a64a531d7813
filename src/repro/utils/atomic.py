"""Crash-safe file writes, in one place.

A bare "write to a sibling temp file, then ``os.replace`` over the target"
guarantees readers never observe a *torn* file, but not that the file
survives power loss: the data must be ``fsync``-ed before the rename, and
the *directory entry* must be ``fsync``-ed after it, or a crash can roll the
whole operation back (or worse, leave the new name pointing at zero-length
data on some filesystems).

This module is the single implementation.  Its users are the store's blob
and snapshot-manifest writes (:mod:`repro.store.snapshots`), the journal's
segment-directory syncs (:mod:`repro.store.journal`, via :func:`fsync_dir`)
and the tracer's ring dump (:mod:`repro.obs.trace`).  ``durable=True``
(the default) does the full fsync-file-then-fsync-directory dance.
``durable=False`` keeps only the atomicity (readers still never see partial
content) and skips the syncs — right for data whose loss costs a re-run,
not correctness.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_dir",
]


def fsync_dir(directory: str | os.PathLike) -> bool:
    """Flush a directory entry table to disk; ``False`` where unsupported.

    Windows cannot open directories for syncing and some filesystems
    (network mounts) refuse — treated as best-effort, not an error.
    """
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | os.PathLike, data: bytes, durable: bool = True
) -> Path:
    """Atomically (and by default durably) write ``data`` to ``path``.

    The write lands in a same-directory scratch file first, so the rename
    is atomic on every platform ``os.replace`` supports.  With ``durable``
    the file content is fsync-ed before the rename and the directory after
    it; without, concurrent readers still never see a torn file but a crash
    may lose the write entirely.
    """
    target = Path(path)
    scratch = target.with_name(target.name + ".tmp")
    fd = os.open(os.fspath(scratch), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise
    os.replace(scratch, target)
    if durable:
        fsync_dir(target.parent)
    return target


def atomic_write_text(
    path: str | os.PathLike,
    text: str,
    encoding: str = "utf-8",
    durable: bool = True,
) -> Path:
    """Text-mode convenience over :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding), durable=durable)
