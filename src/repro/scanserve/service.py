"""The scanning service: registry + index + cache + sharded workers.

:class:`ScanService` is the deployment-shaped entry point the ROADMAP's
"registry-scale" goal asks for: publish rule sets into a versioned registry,
then throw batches of packages at ``scan_batch``.  Each batch resolves the
current ruleset version once, serves repeat artefacts from the result cache,
shards the rest across a worker pool, and reports per-shard throughput plus
a :class:`repro.evaluation.detector.DetectionResult` that is bit-for-bit
identical to a naive :class:`~repro.evaluation.detector.RuleScanner` pass.

The service also keeps a bounded **recency ring** of the package
fingerprints it scanned most recently.  Subscribed to its registry's event
bus (``ScanServiceConfig(live_rescan=True)`` or
:meth:`ScanService.enable_live_rescan`), it automatically re-scans that
window whenever a new ruleset version goes live and reports the
:class:`RescanDelta` — which packages are newly flagged, which changed
matched rules, which came up clean — cheap, because the result cache is
``(fingerprint, version)``-keyed and the old verdicts are already in the
ring.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.corpus.package import Package
from repro.evaluation.detector import (
    DetectionResult,
    PackageDetection,
    PreparedPackage,
    RuleScanner,
    ScanTimings,
)
from repro.scanserve.cache import DiskScanResultCache, ScanResultCache
from repro.scanserve.registry import (
    PublishEvent,
    RulesetRegistry,
    RulesetVersion,
)
from repro.scanserve.scheduler import (
    AUTO,
    INPROCESS,
    PROCESS,
    ScanScheduler,
    SchedulerReport,
    ShardStats,
    chunk_items,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer, remote_span_record
from repro.scanserve.telemetry import RuleCost, RuleCostSample, RuleCostTracker

_METRICS = get_registry()
_SCAN_BATCHES = _METRICS.counter(
    "repro_scan_batches_total", "Scan batches served, by serving lane.", ("lane",)
)
_SCAN_PACKAGES = _METRICS.counter(
    "repro_scan_packages_total", "Packages scanned, including cache hits."
)
_SCAN_CACHE = _METRICS.counter(
    "repro_scan_cache_total", "Result-cache lookups by outcome.", ("outcome",)
)
_SCAN_SECONDS = _METRICS.histogram(
    "repro_scan_batch_seconds", "Wall time per scan batch."
)
_SCAN_FALLBACKS = _METRICS.counter(
    "repro_scan_fallbacks_total",
    "Scheduler dispatches that fell back from the process lane.",
)
_SCAN_RESCANS = _METRICS.counter(
    "repro_scan_rescans_total", "Live re-scans of the recency window."
)

# -- worker-side state -------------------------------------------------------------
# Module level so the process lane can ship it through the pool initializer;
# the in-process lane reuses the exact same functions against this module's
# globals.
_WORKER_SCANNER: Optional[RuleScanner] = None
_WORKER_TRACK_COSTS: bool = False

#: Sentinel telling ``_worker_init`` to read the payload from
#: ``_PARENT_PAYLOAD`` instead of its argument — the fork-lane fast path.
_INHERIT_PAYLOAD = "__inherit_from_parent__"

# Live ``(yara, semgrep, index)`` objects staged by the parent immediately
# before the pool forks.  Fork children inherit this module's globals
# copy-on-write, so no pickling, no blob transfer, and no regex recompile
# happens per worker.  Spawn-style platforms never see it and take the
# ``RulesetVersion.to_bytes()`` blob instead.
_PARENT_PAYLOAD = None


def _worker_init(
    ruleset,
    match_threshold: int,
    include_metadata_in_text: bool,
    track_rule_costs: bool = False,
) -> None:
    """Attach this worker to a published ruleset.

    ``ruleset`` is one of:

    * the :data:`_INHERIT_PAYLOAD` sentinel — the worker was forked from a
      parent that staged live objects in :data:`_PARENT_PAYLOAD`; attach to
      the inherited compiled rules and packed index with zero serialization;
    * a :meth:`RulesetVersion.to_bytes` blob — the spawn-safe lane ships one
      per worker, and the worker attaches to the publish-time compiled rules
      *and packed index* without re-deriving anything;
    * an ``(yara, semgrep, index)`` tuple of live objects for the in-process
      lane (no serialization round trip needed there).
    """
    global _WORKER_SCANNER, _WORKER_TRACK_COSTS
    if isinstance(ruleset, str) and ruleset == _INHERIT_PAYLOAD:
        assert _PARENT_PAYLOAD is not None, "no staged payload inherited"
        yara, semgrep, index = _PARENT_PAYLOAD
    elif isinstance(ruleset, (bytes, bytearray)):
        version = RulesetVersion.from_bytes(bytes(ruleset))
        yara, semgrep, index = version.yara, version.semgrep, version.index
    else:
        yara, semgrep, index = ruleset
    _WORKER_SCANNER = RuleScanner(
        yara_rules=yara,
        semgrep_rules=semgrep,
        match_threshold=match_threshold,
        include_metadata_in_text=include_metadata_in_text,
        index=index,
    )
    _WORKER_TRACK_COSTS = track_rule_costs


def _scan_shard(
    envelope,
) -> tuple[list, ScanTimings, float, Optional[RuleCostSample], list]:
    """Scan one chunk as a batch.

    ``envelope`` is ``(items, span_carrier)`` — the chunk plus the parent
    span context serialized as a plain dict (``None`` when tracing is
    off), so the process lane can emit ``scan.chunk`` spans that join the
    caller's trace.  A bare list of items is accepted for compatibility.

    Returns ``(indexed detections, timings, seconds, costs, span records)``;
    shard-local telemetry rides home in the result tuple and the parent
    folds it back into service-level aggregates.
    """
    if isinstance(envelope, tuple):
        shard, carrier = envelope
    else:
        shard, carrier = envelope, None
    assert _WORKER_SCANNER is not None, "worker not initialised"
    start_wall = time.time()
    started = time.perf_counter()
    timings = ScanTimings()
    costs = RuleCostSample() if _WORKER_TRACK_COSTS else None
    scanned = _WORKER_SCANNER.scan_prepared(
        [package for _, package in shard], timings=timings, cost_sink=costs
    )
    detections = [
        (position, detection)
        for (position, _), detection in zip(shard, scanned)
    ]
    seconds = time.perf_counter() - started
    spans: list = []
    if carrier is not None:
        record = remote_span_record(
            carrier,
            "scan.chunk",
            start_wall,
            seconds,
            attrs={"packages": len(shard)},
        )
        if record is not None:
            spans.append(record)
    return detections, timings, seconds, costs, spans


@dataclass
class ScanServiceConfig:
    """Knobs of the scanning service."""

    shards: int = 1
    mode: str = AUTO  # scheduler lane: auto | process | inprocess
    max_workers: Optional[int] = None
    enable_cache: bool = True
    cache_entries: int = 4096
    cache_dir: Optional[str] = None  # set -> persistent on-disk LRU backend
    match_threshold: int = 1
    include_metadata_in_text: bool = True
    min_atom_length: int = 3
    use_index: bool = True  # False = naive per-rule scanning (for comparison)
    track_rule_costs: bool = True  # per-rule timing telemetry (top_slow_rules)
    chunk_size: Optional[int] = None  # packages per worker task; a chunk is
    # scanned as one batch (atom pass amortised).  None = one contiguous
    # chunk per shard; smaller chunks pipeline better on uneven packages
    recency_window: int = 256  # fingerprints remembered for live re-scan (0 = off)
    live_rescan: bool = False  # subscribe to the registry and re-scan on publish


@dataclass
class BatchScanResult:
    """One batch's detections plus the operational telemetry around them."""

    result: DetectionResult
    ruleset_version: int
    shard_stats: list[ShardStats] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0
    mode: str = "inprocess"
    workers: int = 1
    fallback_error: str = ""

    @property
    def detections(self) -> list[PackageDetection]:
        return self.result.detections

    @property
    def packages(self) -> int:
        return len(self.result.detections)

    @property
    def packages_per_second(self) -> float:
        return self.packages / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def to_dict(self, include_detections: bool = True) -> dict:
        """JSON-safe report of the batch.

        ``include_detections=False`` is the summary mode job-status
        payloads use: per-package detection entries are replaced by the
        flagged package names, so a million-package batch's status stays
        small while remaining actionable.
        """
        threshold = self.result.match_threshold
        flagged = [
            d.package for d in self.result.detections if d.predicted(threshold)
        ]
        data = {
            "ruleset_version": self.ruleset_version,
            "packages": self.packages,
            "malicious": len(flagged),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "packages_per_second": round(self.packages_per_second, 3),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "mode": self.mode,
            "workers": self.workers,
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "packages": s.packages,
                    "matched_packages": s.matched_packages,
                    "seconds": round(s.seconds, 6),
                    "packages_per_second": round(s.packages_per_second, 3),
                }
                for s in self.shard_stats
            ],
        }
        if include_detections:
            data["detections"] = [
                {
                    "package": d.package,
                    "malicious": d.predicted(threshold),
                    "matched_rules": d.matched_rules,
                }
                for d in self.result.detections
            ]
        else:
            data["flagged"] = flagged
        return data

    def to_json(self, indent: int = 2, include_detections: bool = True) -> str:
        return json.dumps(
            self.to_dict(include_detections=include_detections),
            indent=indent,
            sort_keys=True,
        )


@dataclass
class ServiceStats:
    """Aggregate counters across the service's lifetime."""

    batches: int = 0
    packages_scanned: int = 0
    cache_hits: int = 0
    seconds: float = 0.0
    rescans: int = 0
    # how each batch was served: prefilter lane ("automaton" | "substring"),
    # "naive" (index disabled), or "cache" (every package was a cache hit)
    lanes: dict[str, int] = field(default_factory=dict)

    @property
    def packages_per_second(self) -> float:
        return self.packages_scanned / self.seconds if self.seconds > 0 else 0.0


@dataclass
class RescanDelta:
    """What changed when the recency window was re-scanned against a new
    ruleset version."""

    to_version: int
    from_version: Optional[int] = None  # None when the window spans versions
    scanned: int = 0
    new: list[str] = field(default_factory=list)  # newly flagged packages
    cleared: list[str] = field(default_factory=list)  # flagged -> clean
    changed: list[str] = field(default_factory=list)  # flagged, different rules
    elapsed_seconds: float = 0.0
    cache_hits: int = 0

    @property
    def unchanged(self) -> int:
        return self.scanned - len(self.new) - len(self.cleared) - len(self.changed)

    @property
    def has_changes(self) -> bool:
        return bool(self.new or self.cleared or self.changed)

    def describe(self) -> str:
        origin = f"v{self.from_version}" if self.from_version is not None else "mixed"
        return (
            f"re-scan {origin} -> v{self.to_version}: {self.scanned} packages, "
            f"{len(self.new)} new, {len(self.changed)} changed, "
            f"{len(self.cleared)} cleared, {self.unchanged} unchanged "
            f"({self.elapsed_seconds:.3f}s)"
        )

    def to_dict(self) -> dict:
        return {
            "from_version": self.from_version,
            "to_version": self.to_version,
            "scanned": self.scanned,
            "new": list(self.new),
            "changed": list(self.changed),
            "cleared": list(self.cleared),
            "unchanged": self.unchanged,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "cache_hits": self.cache_hits,
        }


@dataclass
class _RecentScan:
    """One recency-ring entry: enough to re-scan and to diff the verdicts."""

    prepared: PreparedPackage
    detection: PackageDetection
    version: int


class ScanService:
    """High-throughput scanning front end over a ruleset registry."""

    def __init__(
        self,
        registry: Optional[RulesetRegistry] = None,
        config: Optional[ScanServiceConfig] = None,
    ) -> None:
        self.config = config or ScanServiceConfig()
        # explicit None check: RulesetRegistry defines __len__, so an empty
        # (freshly created, not-yet-published) registry is falsy and a bare
        # ``registry or ...`` would silently replace it
        if registry is None:
            registry = RulesetRegistry(min_atom_length=self.config.min_atom_length)
        self.registry = registry
        if self.config.cache_dir:
            self.cache: Union[ScanResultCache, DiskScanResultCache] = (
                DiskScanResultCache(self.config.cache_dir, self.config.cache_entries)
            )
        else:
            self.cache = ScanResultCache(self.config.cache_entries)
        self.stats = ServiceStats()
        self.rule_costs = RuleCostTracker()
        # recency ring: fingerprint -> last scan, oldest first
        self._recent: "OrderedDict[str, _RecentScan]" = OrderedDict()
        self._recent_lock = threading.Lock()
        self._rescan_lock = threading.Lock()
        self._subscription: Optional[int] = None
        self._on_delta: Optional[Callable[[RescanDelta], None]] = None
        self.rescans: list[RescanDelta] = []
        # serialized-version cache for process-pool worker init (one blob per
        # ruleset version, rebuilt only after a publish changes the version)
        self._version_blobs: "OrderedDict[int, bytes]" = OrderedDict()
        if self.config.live_rescan:
            self.enable_live_rescan()  # raises when the cache is disabled

    # -- publishing (delegates to the registry) ------------------------------------
    def publish(self, yara=None, semgrep=None, label: str = "") -> RulesetVersion:
        return self.registry.publish(yara=yara, semgrep=semgrep, label=label)

    def publish_generated(self, ruleset, label: str = "") -> RulesetVersion:
        return self.registry.publish_generated(ruleset, label=label)

    # -- telemetry -----------------------------------------------------------------
    def top_slow_rules(self, n: int = 10, by: str = "max") -> list[RuleCost]:
        """The most expensive rules seen so far (pathological-regex radar).

        Populated whenever ``track_rule_costs`` is on (the default); rules
        the prefilter index skipped cost nothing and never appear.
        """
        return self.rule_costs.top_slow_rules(n, by=by)

    def _ruleset_payload(self, ruleset: RulesetVersion, worker_count: int):
        """What ``_worker_init`` receives for this batch.

        The in-process lane gets the live objects (zero-copy).  When the
        scheduler may spin up a process pool there are two lanes:

        * on ``fork`` platforms the live objects are staged in
          ``_PARENT_PAYLOAD`` right before the pool forks, so every worker
          inherits the publish-time compiled rules and packed index
          copy-on-write — no pickling, no regex recompile;
        * otherwise the publish-time compiled version is shipped as one
          ``to_bytes()`` blob per worker — cached per version, so repeat
          batches against the same ruleset serialize once.

        Naive mode (``use_index=False``) ships bare rule sets without the
        index either way.
        """
        global _PARENT_PAYLOAD
        index = ruleset.index if self.config.use_index else None
        may_fork_pool = self.config.mode != INPROCESS and (
            worker_count > 1 or self.config.mode == PROCESS
        )
        if not may_fork_pool:
            return (ruleset.yara, ruleset.semgrep, index)
        if multiprocessing.get_start_method() == "fork":
            _PARENT_PAYLOAD = (ruleset.yara, ruleset.semgrep, index)
            return _INHERIT_PAYLOAD
        if not self.config.use_index:
            return (ruleset.yara, ruleset.semgrep, None)
        blob = self._version_blobs.get(ruleset.version)
        if blob is None:
            blob = ruleset.to_bytes()
            self._version_blobs[ruleset.version] = blob
            while len(self._version_blobs) > 4:
                self._version_blobs.popitem(last=False)
        return blob

    # -- scanning ------------------------------------------------------------------
    def scan_package(self, package: Package) -> PackageDetection:
        """Scan one package against the current ruleset (cache-aware)."""
        return self.scan_batch([package]).result.detections[0]

    def scan_batch(
        self,
        packages: Sequence[Union[Package, PreparedPackage]],
        version: Optional[int] = None,
        record_recency: bool = True,
    ) -> BatchScanResult:
        """Scan a batch against the current (or a pinned) ruleset version.

        ``packages`` may mix raw :class:`Package` objects and already-built
        :class:`PreparedPackage` wrappers (the live re-scan path reuses the
        prepared inputs from the recency ring).  ``record_recency=False``
        keeps the batch out of the recency ring (used by the re-scan itself).
        """
        tracer = get_tracer()
        with tracer.span("scan.batch", packages=len(packages)) as batch_span:
            return self._scan_batch_inner(
                packages, version, record_recency, tracer, batch_span
            )

    def _scan_batch_inner(
        self,
        packages: Sequence[Union[Package, PreparedPackage]],
        version: Optional[int],
        record_recency: bool,
        tracer,
        batch_span,
    ) -> BatchScanResult:
        ruleset = (
            self.registry.current() if version is None else self.registry.get(version)
        )
        started = time.perf_counter()
        result = DetectionResult(match_threshold=self.config.match_threshold)
        ordered: list[Optional[PackageDetection]] = [None] * len(packages)

        # 1. serve repeats from the result cache.  The PreparedPackage built
        # for the fingerprint is what gets sharded out, so its cached
        # metadata JSON is not recomputed by the workers.
        to_scan: list[tuple[int, Union[Package, PreparedPackage]]] = []
        fingerprints: dict[int, str] = {}
        prepared_by_position: dict[int, PreparedPackage] = {}
        cache_hits = 0
        if self.config.enable_cache:
            for position, package in enumerate(packages):
                if isinstance(package, PreparedPackage):
                    prepared = package
                    if (
                        prepared.include_metadata_in_text
                        != self.config.include_metadata_in_text
                    ):
                        prepared = PreparedPackage(
                            prepared.package, self.config.include_metadata_in_text
                        )
                else:
                    prepared = PreparedPackage(
                        package, self.config.include_metadata_in_text
                    )
                fingerprints[position] = prepared.fingerprint
                prepared_by_position[position] = prepared
                cached = self.cache.get(prepared.fingerprint, ruleset.cache_key)
                if cached is not None:
                    ordered[position] = cached
                    cache_hits += 1
                else:
                    to_scan.append((position, prepared))
        else:
            to_scan = list(enumerate(packages))

        # 2. chunk the remainder across the worker pool.  A chunk is one
        # worker task scanned as a single batch (the atom pass amortises
        # over it); the default is one contiguous chunk per shard, so each
        # worker receives exactly one task instead of per-package round
        # trips.
        shard_stats: list[ShardStats] = []
        report = SchedulerReport()
        if to_scan:
            num_shards = max(1, self.config.shards)
            chunk_size = self.config.chunk_size
            if chunk_size is None or chunk_size < 1:
                chunk_size = -(-len(to_scan) // num_shards)  # ceil division
            chunks = chunk_items(to_scan, chunk_size)
            scheduler = ScanScheduler(
                mode=self.config.mode,
                # chunks may outnumber shards (small chunk_size); the shard
                # count stays the parallelism bound
                max_workers=self.config.max_workers or num_shards,
            )
            with tracer.span(
                "scan.dispatch", chunks=len(chunks), mode=self.config.mode
            ):
                # the span carrier rides inside each chunk envelope so the
                # process lane can emit scan.chunk spans under this trace
                carrier = tracer.carrier()
                report = scheduler.run(
                    [(chunk, carrier) for chunk in chunks],
                    _scan_shard,
                    init_fn=_worker_init,
                    init_args=(
                        self._ruleset_payload(ruleset, worker_count=len(chunks)),
                        self.config.match_threshold,
                        self.config.include_metadata_in_text,
                        self.config.track_rule_costs,
                    ),
                )
            for shard_id, (
                detections,
                timings,
                seconds,
                costs,
                span_records,
            ) in enumerate(report.results):
                if costs is not None:
                    self.rule_costs.absorb(costs)
                if span_records:
                    tracer.absorb(span_records)
                stats = ShardStats(shard_id=shard_id, seconds=seconds)
                for position, detection in detections:
                    ordered[position] = detection
                    stats.packages += 1
                    if detection.predicted(self.config.match_threshold):
                        stats.matched_packages += 1
                    if self.config.enable_cache:
                        self.cache.put(
                            fingerprints[position], ruleset.cache_key, detection
                        )
                result.timings.merge(timings)
                shard_stats.append(stats)

        assert all(detection is not None for detection in ordered)
        result.detections = list(ordered)  # type: ignore[arg-type]
        elapsed = time.perf_counter() - started
        result.timings.total_seconds = elapsed
        batch = BatchScanResult(
            result=result,
            ruleset_version=ruleset.version,
            shard_stats=shard_stats,
            cache_hits=cache_hits,
            cache_misses=len(to_scan),
            elapsed_seconds=elapsed,
            mode=report.mode if to_scan else "cache",
            workers=report.workers,
            fallback_error=report.fallback_error,
        )
        self.stats.batches += 1
        self.stats.packages_scanned += len(packages)
        self.stats.cache_hits += cache_hits
        self.stats.seconds += elapsed
        if to_scan:
            lane = ruleset.index.lane if self.config.use_index else "naive"
        else:
            lane = "cache"  # fully cache-served: the index never ran
        self.stats.lanes[lane] = self.stats.lanes.get(lane, 0) + 1
        _SCAN_BATCHES.inc(lane=lane)
        _SCAN_PACKAGES.inc(len(packages))
        _SCAN_SECONDS.observe(elapsed)
        if self.config.enable_cache:
            if cache_hits:
                _SCAN_CACHE.inc(cache_hits, outcome="hit")
            if to_scan:
                _SCAN_CACHE.inc(len(to_scan), outcome="miss")
        if report.fallback_error:
            _SCAN_FALLBACKS.inc()
        batch_span.set_attr("lane", lane)
        batch_span.set_attr("mode", batch.mode)
        batch_span.set_attr("version", ruleset.version)
        batch_span.set_attr("cache_hits", cache_hits)
        if record_recency and self.config.recency_window > 0 and fingerprints:
            self._remember(ruleset.version, fingerprints, prepared_by_position, ordered)
        return batch

    # -- live re-scan --------------------------------------------------------------
    def _remember(
        self,
        version: int,
        fingerprints: dict[int, str],
        prepared_by_position: dict[int, PreparedPackage],
        detections: Sequence[Optional[PackageDetection]],
    ) -> None:
        """Fold a batch into the recency ring (most recent last, bounded)."""
        with self._recent_lock:
            for position, fingerprint in fingerprints.items():
                detection = detections[position]
                assert detection is not None
                self._recent[fingerprint] = _RecentScan(
                    prepared=prepared_by_position[position],
                    detection=detection,
                    version=version,
                )
                self._recent.move_to_end(fingerprint)
            while len(self._recent) > self.config.recency_window:
                self._recent.popitem(last=False)

    @property
    def recency_window(self) -> list[str]:
        """Fingerprints currently in the ring, oldest first."""
        with self._recent_lock:
            return list(self._recent)

    def enable_live_rescan(
        self, on_delta: Optional[Callable[[RescanDelta], None]] = None
    ) -> "ScanService":
        """Subscribe to the registry: whenever a new version goes live,
        re-scan the recency window and record a :class:`RescanDelta`
        (``service.rescans`` keeps them; ``on_delta`` fires per re-scan).

        The recency ring is fed by the fingerprints the result cache
        computes, so live re-scan requires ``enable_cache`` and a
        ``recency_window > 0`` — rejected loudly here rather than silently
        never re-scanning.
        """
        if not self.config.enable_cache:
            raise ValueError(
                "live re-scan needs the result cache (fingerprints feed the "
                "recency ring); enable_cache=False cannot re-scan"
            )
        if self.config.recency_window < 1:
            raise ValueError("live re-scan needs recency_window > 0")
        self._on_delta = on_delta or self._on_delta
        if self._subscription is None:
            self._subscription = self.registry.subscribe(self._on_registry_event)
        return self

    def disable_live_rescan(self) -> None:
        if self._subscription is not None:
            self.registry.unsubscribe(self._subscription)
            self._subscription = None

    @property
    def last_rescan(self) -> Optional[RescanDelta]:
        return self.rescans[-1] if self.rescans else None

    def _on_registry_event(self, event: PublishEvent) -> None:
        if not event.activated:
            return  # a staged (inactive) publish serves no traffic yet
        self.rescan_recent(event.version.version)

    def rescan_recent(self, version: Optional[int] = None) -> Optional[RescanDelta]:
        """Re-scan the recency window against ``version`` (default: current)
        and diff the verdicts; returns ``None`` when the ring is empty or
        already at that version."""
        with self._rescan_lock:
            with self._recent_lock:
                entries = list(self._recent.items())
            target = (
                self.registry.current().version if version is None else version
            )
            entries = [
                (fingerprint, entry)
                for fingerprint, entry in entries
                if entry.version != target
            ]
            if not entries:
                return None
            started = time.perf_counter()
            with get_tracer().span("scan.rescan", to_version=target):
                batch = self.scan_batch(
                    [entry.prepared for _, entry in entries],
                    version=target,
                    record_recency=False,
                )
            _SCAN_RESCANS.inc()
            from_versions = {entry.version for _, entry in entries}
            delta = RescanDelta(
                to_version=target,
                from_version=from_versions.pop() if len(from_versions) == 1 else None,
                scanned=len(entries),
                cache_hits=batch.cache_hits,
            )
            threshold = self.config.match_threshold
            with self._recent_lock:
                for (fingerprint, entry), detection in zip(
                    entries, batch.detections
                ):
                    was = entry.detection.predicted(threshold)
                    now = detection.predicted(threshold)
                    name = detection.package
                    if now and not was:
                        delta.new.append(name)
                    elif was and not now:
                        delta.cleared.append(name)
                    elif (
                        now
                        and entry.detection.matched_rules != detection.matched_rules
                    ):
                        delta.changed.append(name)
                    live = self._recent.get(fingerprint)
                    if live is not None and live.version != target:
                        live.detection = detection
                        live.version = target
            delta.elapsed_seconds = time.perf_counter() - started
            self.rescans.append(delta)
            self.stats.rescans += 1
        if self._on_delta is not None:
            self._on_delta(delta)
        return delta
