"""Content-hash result cache.

Registries see the same artefact many times (mirrors re-upload, versions
share files, re-scans after a rule hot-swap only need re-scanning when the
rules actually changed), so scan results are cached under
``(package fingerprint, ruleset cache key)`` — the cache key is the
content digest a :class:`repro.scanserve.registry.RulesetVersion` carries,
so identical rule sets share entries while any change to the rules is an
implicit, surgical invalidation.  The fingerprint is the SHA-256-based
digest from :class:`repro.evaluation.detector.PreparedPackage` (built on
:mod:`repro.utils.hashing`), which covers file paths, contents, metadata
and the scan configuration.

The cache lives in memory only; durable state goes through
:mod:`repro.store`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.evaluation.detector import PackageDetection


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class ScanResultCache:
    """Bounded, thread-safe LRU cache of :class:`PackageDetection` results."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, int | str], PackageDetection]" = OrderedDict()
        self.stats = CacheStats()

    @staticmethod
    def _copy(detection: PackageDetection) -> PackageDetection:
        # hand out copies so callers can't mutate cached state
        return replace(
            detection,
            yara_rules=list(detection.yara_rules),
            semgrep_rules=list(detection.semgrep_rules),
        )

    def get(self, fingerprint: str, ruleset_version: int | str) -> PackageDetection | None:
        key = (fingerprint, ruleset_version)
        with self._lock:
            detection = self._entries.get(key)
            if detection is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._copy(detection)

    def put(self, fingerprint: str, ruleset_version: int | str, detection: PackageDetection) -> None:
        key = (fingerprint, ruleset_version)
        with self._lock:
            self._entries[key] = self._copy(detection)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
