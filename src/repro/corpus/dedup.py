"""Package deduplication (paper Table VI).

The GuardDog feed contains many re-uploads of the same malware under
different names or versions; the paper collapses 3,200 packages to 1,633
unique ones by signature.  We reproduce that with a content signature
computed over the package's *source files only* -- registry-facing files
(``setup.py``, ``PKG-INFO``, ``README``) carry the new identity and would
defeat a naive whole-package hash, exactly as in the real feed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.corpus.package import Package
from repro.utils.hashing import content_signature

_IDENTITY_FILES = ("setup.py", "PKG-INFO", "README", "README.md", "README.rst")


def package_signature(package: Package) -> str:
    """Return the dedup signature of a package (source payload only)."""
    payload = [f.content for f in package.files if f.path not in _IDENTITY_FILES]
    if not payload:
        payload = [f.content for f in package.files]
    return content_signature(payload)


@dataclass
class DedupResult:
    """Outcome of deduplicating a corpus."""

    unique: list[Package] = field(default_factory=list)
    duplicates: list[Package] = field(default_factory=list)
    groups: dict[str, list[Package]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.unique) + len(self.duplicates)


def deduplicate(packages: Iterable[Package]) -> DedupResult:
    """Collapse packages that share the same source payload.

    The first occurrence (in input order) of each signature is kept as the
    canonical representative; later occurrences are reported as duplicates.
    """
    result = DedupResult()
    for package in packages:
        signature = package_signature(package)
        group = result.groups.setdefault(signature, [])
        if group:
            result.duplicates.append(package)
        else:
            result.unique.append(package)
        group.append(package)
    return result
