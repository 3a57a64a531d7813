"""Registry-scale scanning service with an atom-prefilter rule index.

``scanserve`` turns the one-package-at-a-time :class:`RuleScanner` into a
service-grade engine, mirroring how production scanners (YARA's atom-based
Aho–Corasick prefilter, registry malware pipelines) reach scale:

* :mod:`repro.scanserve.atoms` — literal-atom extraction from compiled
  YARA strings and Semgrep pattern anchors, with a provable "rule fires ⇒
  atom present" guarantee;
* :mod:`repro.scanserve.index` — :class:`RuleIndex`, which narrows scanning
  to the candidate rules whose atoms occur (atom-less rules take an
  unconditional fallback lane, so detections stay bit-for-bit identical to
  naive scanning);
* :mod:`repro.scanserve.packed` — :class:`PackedAutomaton`, the atom matcher:
  one batch entry point whose lane (per-atom substring, joined guard-prefix
  pass or dense DFA walk) is fixed by the vocabulary, over publish-time
  compiled byte-level tables with ``to_bytes``/``from_bytes`` serialization;
* :mod:`repro.scanserve.registry` — versioned rule sets with atomic
  hot-swap and rollback;
* :mod:`repro.scanserve.cache` — a content-hash result cache keyed on
  ``(package fingerprint, ruleset version)``;
* :mod:`repro.scanserve.scheduler` — sharding, a bounded worker pool
  (multiprocessing with an in-process fallback) and backpressure;
* :mod:`repro.scanserve.service` — :class:`ScanService`, the batch-scanning
  front end tying the pieces together.

Entry points: build a :class:`RuleIndex` directly (or via
``RuleScanner.with_index``) for drop-in fast scanning, or run a
:class:`ScanService` for registry-style batch traffic (also exposed as the
``rulellm scan-batch`` CLI).
"""

from repro.scanserve.atoms import (
    DEFAULT_MIN_ATOM_LENGTH,
    RuleAtoms,
    guaranteed_identifiers,
    semgrep_rule_atoms,
    yara_rule_atoms,
)
from repro.scanserve.cache import CacheStats, DiskScanResultCache, ScanResultCache
from repro.scanserve.index import AUTOMATON_LANE, IndexStats, RuleIndex
from repro.scanserve.packed import (
    AUTOMATON_THRESHOLD,
    BATCH_GUARD_LIMIT,
    SUBSTRING_LANE,
    PackedAutomaton,
)
from repro.scanserve.registry import (
    PublishEvent,
    RulesetRegistry,
    RulesetVersion,
    ShardProvenance,
    merge_shard_rulesets,
)
from repro.scanserve.scheduler import (
    AUTO,
    INPROCESS,
    PROCESS,
    BoundedQueue,
    ScanScheduler,
    ShardStats,
    chunk_items,
    shard_items,
)
from repro.scanserve.telemetry import RuleCost, RuleCostSample, RuleCostTracker
from repro.scanserve.service import (
    BatchScanResult,
    RescanDelta,
    ScanService,
    ScanServiceConfig,
    ServiceStats,
)

__all__ = [
    "DEFAULT_MIN_ATOM_LENGTH",
    "RuleAtoms",
    "guaranteed_identifiers",
    "yara_rule_atoms",
    "semgrep_rule_atoms",
    "AUTOMATON_LANE",
    "AUTOMATON_THRESHOLD",
    "SUBSTRING_LANE",
    "IndexStats",
    "RuleIndex",
    "BATCH_GUARD_LIMIT",
    "PackedAutomaton",
    "PublishEvent",
    "RulesetRegistry",
    "RulesetVersion",
    "ShardProvenance",
    "merge_shard_rulesets",
    "CacheStats",
    "ScanResultCache",
    "DiskScanResultCache",
    "RuleCost",
    "RuleCostSample",
    "RuleCostTracker",
    "AUTO",
    "INPROCESS",
    "PROCESS",
    "BoundedQueue",
    "ScanScheduler",
    "ShardStats",
    "chunk_items",
    "shard_items",
    "BatchScanResult",
    "RescanDelta",
    "ScanService",
    "ScanServiceConfig",
    "ServiceStats",
]
