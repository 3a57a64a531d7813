"""The scanning service: registry + index + cache + sharded workers.

:class:`ScanService` is the deployment-shaped entry point the ROADMAP's
"registry-scale" goal asks for: publish rule sets into a versioned registry,
then throw batches of packages at ``scan_batch``.  Each batch resolves the
current ruleset version once, serves repeat artefacts from the result cache,
shards the rest across a worker pool, and reports per-shard throughput plus
a :class:`repro.evaluation.detector.DetectionResult` that is bit-for-bit
identical to a naive :class:`~repro.evaluation.detector.RuleScanner` pass.

A service keeps one process pool of ``shards`` workers.  Its first
multi-shard batch starts it, and a batch on another ruleset version (after a
publish or an ``activate``, or pinned with ``version=``) restarts it, so
workers attach to a version once, not once per batch.  ``fork`` workers
inherit the live compiled rules and index through the pool's ``initargs``;
under any other start method each worker decodes one
``RulesetVersion.to_bytes()`` blob.  :meth:`ScanService.close` (or leaving a
``with ScanService(...)`` block) shuts the pool down.

A service also keeps one :class:`~repro.semgrepx.matcher.ParseMemo`, the
parsed Python files of its scans keyed by their exact text, and its workers
build Semgrep targets through it: a file that repeats one the service still
holds reuses that parse, its tree index and the findings each compiled rule
already produced on it.  Entries are held weakly, so the memo reaches the
packages the current batch and the recency ring hold, and no others.
``fork`` workers inherit it through the pool's ``initargs``; under other
start methods it pickles empty.

Each shard times every rule it evaluates into its own
:class:`~repro.scanserve.telemetry.RuleCostTracker`, which rides home in
the shard's result.  The service merges it, under its own lock, into the
one tracker it keeps, which :meth:`ScanService.top_slow_rules` ranks.

The service also keeps a bounded **recency ring** of the package
fingerprints it scanned most recently.  Subscribed to its registry's event
bus (``ScanServiceConfig(live_rescan=True)`` or
:meth:`ScanService.enable_live_rescan`), it automatically re-scans that
window whenever a new ruleset version goes live and reports the
:class:`RescanDelta` — which packages are newly flagged, which changed
matched rules, which came up clean — cheap, because the result cache is
``(fingerprint, version)``-keyed and the old verdicts are already in the
ring.  ``last_rescan`` holds the latest delta; the service keeps no history
of them.
"""

from __future__ import annotations

import json
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
    prepare_packages,
)
from repro.scanserve.cache import ScanResultCache
from repro.scanserve.registry import (
    PublishEvent,
    RulesetRegistry,
    RulesetVersion,
)
from repro.scanserve.scheduler import (
    AUTO,
    ScanScheduler,
    SchedulerReport,
    ShardStats,
    chunk_items,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer, remote_span_record
from repro.scanserve.telemetry import RuleCost, RuleCostTracker
from repro.semgrepx.matcher import ParseMemo

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
# the in-process lane reuses the exact same functions in the calling thread.
# Thread-local, so services scanning in-process on several threads never
# read each other's scanner.
_WORKER = threading.local()


class _WorkerRuleset(tuple):
    """A version's live ``(yara, semgrep, index)``, as ``_worker_init``
    receives it.

    The in-process lane reads the live objects, and so do ``fork`` workers,
    which inherit the pool's ``initargs`` without pickling them.  Any other
    start method pickles ``initargs`` once per worker, and this tuple
    pickles as its version's ``to_bytes()`` blob, built on the first pickle
    and kept, so a pool start serializes the version once.  Naive scanning
    (no index) pickles the bare rule sets instead.
    """

    def __new__(cls, version: RulesetVersion, use_index: bool) -> "_WorkerRuleset":
        index = version.index if use_index else None
        ruleset = super().__new__(cls, (version.yara, version.semgrep, index))
        ruleset.version = version
        ruleset.blob = None
        return ruleset

    def __reduce__(self):
        if self[2] is None:
            return tuple, (tuple(self),)
        if self.blob is None:
            self.blob = self.version.to_bytes()
        return bytes, (self.blob,)


def _worker_init(
    ruleset, match_threshold: int, parses: Optional[ParseMemo] = None
) -> None:
    """Attach this worker to a published ruleset.

    ``ruleset`` is the live ``(yara, semgrep, index)`` tuple (in-process,
    or inherited by a ``fork`` worker) or a :meth:`RulesetVersion.to_bytes`
    blob, which attaches the worker to the publish-time compiled rules
    *and packed index* without re-deriving anything.  ``parses`` is the
    service's parse memo, which the worker's Semgrep targets are built
    through.
    """
    if isinstance(ruleset, bytes):
        version = RulesetVersion.from_bytes(ruleset)
        yara, semgrep, index = version.yara, version.semgrep, version.index
    else:
        yara, semgrep, index = ruleset
    _WORKER.scanner = RuleScanner(
        yara_rules=yara,
        semgrep_rules=semgrep,
        match_threshold=match_threshold,
        index=index,
        parses=parses,
    )


def _scan_shard(envelope) -> tuple[list, RuleCostTracker, float, list]:
    """Scan one chunk as a batch.

    ``envelope`` is ``(items, span_carrier)`` — the chunk plus the parent
    span context serialized as a plain dict (``None`` when tracing is
    off), so the process lane can emit ``scan.chunk`` spans that join the
    caller's trace.

    Returns ``(indexed detections, rule costs, seconds, span records)``;
    the rule costs are the shard's own :class:`RuleCostTracker`, which
    rides home in the result tuple and which the parent merges into the
    service's.
    """
    shard, carrier = envelope
    scanner = getattr(_WORKER, "scanner", None)
    assert scanner is not None, "worker not initialised"
    start_wall = time.time()
    started = time.perf_counter()
    costs = RuleCostTracker()
    scanned = scanner.scan_prepared(
        [package for _, package in shard], cost_sink=costs
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
    return detections, costs, seconds, spans


@dataclass
class ScanServiceConfig:
    """Knobs of the scanning service."""

    shards: int = 1  # one contiguous chunk, scanned as one batch, per shard
    mode: str = AUTO  # scheduler lane: auto | process | inprocess
    enable_cache: bool = True
    match_threshold: int = 1
    use_index: bool = True  # False = naive per-rule scanning (for comparison)
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
            registry = RulesetRegistry()
        self.registry = registry
        self.cache = ScanResultCache()
        self._rule_costs = RuleCostTracker()
        self._rule_costs_lock = threading.Lock()
        # recency ring: fingerprint -> last scan, oldest first
        self._recent: "OrderedDict[str, _RecentScan]" = OrderedDict()
        self._recent_lock = threading.Lock()
        self._rescan_lock = threading.Lock()
        self._subscription: Optional[int] = None
        self._on_delta: Optional[Callable[[RescanDelta], None]] = None
        #: The latest live re-scan's delta, ``None`` until one ran.
        self.last_rescan: Optional[RescanDelta] = None
        self._scheduler = ScanScheduler(
            mode=self.config.mode, max_workers=max(1, self.config.shards)
        )
        self.parses = ParseMemo()
        if self.config.live_rescan:
            self.enable_live_rescan()  # raises when the cache is disabled

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down and stop following the registry.

        A service that is collected unclosed releases its workers too.
        """
        self._scheduler.close()
        if self._subscription is not None:
            self.registry.unsubscribe(self._subscription)
            self._subscription = None

    def __enter__(self) -> "ScanService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- publishing (delegates to the registry) ------------------------------------
    def publish(self, yara=None, semgrep=None, label: str = "") -> RulesetVersion:
        return self.registry.publish(yara=yara, semgrep=semgrep, label=label)

    def publish_generated(self, ruleset, label: str = "") -> RulesetVersion:
        return self.registry.publish_generated(ruleset, label=label)

    # -- telemetry -----------------------------------------------------------------
    def top_slow_rules(self, n: int = 10, by: str = "max") -> list[RuleCost]:
        """The most expensive rules seen so far (pathological-regex radar).

        Every scan records per-rule costs; rules the prefilter index
        skipped cost nothing and never appear.
        """
        with self._rule_costs_lock:
            return self._rule_costs.top_slow_rules(n, by=by)

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
            for position, prepared in enumerate(prepare_packages(packages)):
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

        # 2. chunk the remainder across the worker pool: one contiguous
        # chunk per shard, scanned as a single batch (the atom pass
        # amortises over it), so each worker receives exactly one task
        # instead of per-package round trips.
        shard_stats: list[ShardStats] = []
        report = SchedulerReport()
        if to_scan:
            num_shards = max(1, self.config.shards)
            chunks = chunk_items(to_scan, -(-len(to_scan) // num_shards))
            with tracer.span(
                "scan.dispatch", chunks=len(chunks), mode=self.config.mode
            ):
                # the span carrier rides inside each chunk envelope so the
                # process lane can emit scan.chunk spans under this trace
                carrier = tracer.carrier()
                report = self._scheduler.run(
                    [(chunk, carrier) for chunk in chunks],
                    _scan_shard,
                    init_fn=_worker_init,
                    init_args=(
                        _WorkerRuleset(ruleset, self.config.use_index),
                        self.config.match_threshold,
                        self.parses,
                    ),
                    key=ruleset.version,
                )
            for shard_id, (detections, costs, seconds, span_records) in enumerate(
                report.results
            ):
                with self._rule_costs_lock:
                    self._rule_costs.merge(costs)
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
                shard_stats.append(stats)

        assert all(detection is not None for detection in ordered)
        result.detections = list(ordered)  # type: ignore[arg-type]
        elapsed = time.perf_counter() - started
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
        if to_scan:
            lane = ruleset.index.lane if self.config.use_index else "naive"
        else:
            lane = "cache"  # fully cache-served: the index never ran
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
        (``service.last_rescan`` holds the latest; ``on_delta`` fires per
        re-scan).

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
            self.last_rescan = delta
        if self._on_delta is not None:
            self._on_delta(delta)
        return delta
