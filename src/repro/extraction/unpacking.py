"""Package unpacking (paper Section III-B, "Unpacking").

Real packages arrive as sdists / wheels; the paper unpacks them to a folder
before analysis.  This module loads a package from such a folder, and can
also write an in-memory :class:`~repro.corpus.package.Package` to disk (used
by the examples to produce realistic on-disk corpora).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.corpus.package import Package, PackageFile, PackageMetadata

_SOURCE_EXTENSIONS = (".py", ".js", ".cfg", ".toml", ".txt", ".md", ".json", ".yaml", ".yml", "")
_MAX_FILE_BYTES = 2_000_000


def _is_interesting(path: str) -> bool:
    name = os.path.basename(path)
    if name in ("PKG-INFO", "METADATA"):
        return True
    _, ext = os.path.splitext(name)
    return ext in _SOURCE_EXTENSIONS


def write_package_to_directory(package: Package, directory: str | Path) -> Path:
    """Write a package's files under ``directory/<name>-<version>/``."""
    root = Path(directory) / f"{package.name}-{package.version}"
    for item in package.files:
        target = root / item.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(item.content, encoding="utf-8")
    return root


def load_package_from_directory(directory: str | Path, label: str = "benign") -> Package:
    """Load a package from an unpacked directory tree."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    files: list[PackageFile] = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        relative = path.relative_to(root).as_posix()
        if not _is_interesting(relative):
            continue
        if path.stat().st_size > _MAX_FILE_BYTES:
            continue
        files.append(PackageFile(relative, path.read_text(encoding="utf-8", errors="replace")))
    name, _, version = root.name.rpartition("-")
    if not name:
        name, version = root.name, "0.0.0"
    package = Package(
        name=name,
        version=version or "0.0.0",
        metadata=PackageMetadata(name=name, version=version or "0.0.0"),
        files=files,
        label=label,
    )
    return package
