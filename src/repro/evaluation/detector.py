"""Applying rule sets to a corpus and recording per-package detections.

A :class:`RuleScanner` bundles a compiled YARA rule set and/or a compiled
Semgrep rule set.  YARA scans the concatenated package text *plus* the
registry-metadata JSON (metadata-derived rules match there, mirroring how the
paper's rules fire on registry information); Semgrep scans the package's
Python AST.  A package is classified malicious when at least
``match_threshold`` rules fire.

Scan inputs (the YARA haystack and the parsed Semgrep target) are built once
per package via :class:`PreparedPackage` and reused across rule sets — the
evaluation suite scans the same corpus with many scanners, and
:mod:`repro.scanserve` scans the same package against many ruleset versions.
The only timing done here is the optional per-rule ``cost_sink``; batch
timing belongs to the callers' ``repro.obs`` spans and metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.corpus.package import Package
from repro.evaluation.metrics import ConfusionMatrix
from repro.extraction.metadata import extract_metadata
from repro.semgrepx import CompiledSemgrepRuleSet, ScanTarget
from repro.semgrepx.matcher import ParseMemo
from repro.utils.hashing import stable_digest
from repro.yarax import CompiledRuleSet


class PreparedPackage:
    """Per-package scan inputs, computed lazily and cached.

    Building the YARA haystack re-serialises the registry metadata and the
    Semgrep target re-parses every Python file; doing that once per package
    (instead of once per package *per rule set*) is the detector hot-path fix.
    The target is built through ``parses`` when it is set; a pickled package
    drops it, because a memo belongs to one service.
    """

    def __init__(self, package: Package, parses: Optional[ParseMemo] = None) -> None:
        self.package = package
        self.parses = parses
        self._yara_text: Optional[str] = None
        self._folded_text: Optional[str] = None
        self._folded_bytes: Optional[bytes] = None
        self._target: Optional[ScanTarget] = None
        self._fingerprint: Optional[str] = None
        self._metadata_json: Optional[str] = None

    @property
    def metadata_json(self) -> str:
        """The extracted registry metadata, serialised once and shared by the
        YARA haystack and the cache fingerprint."""
        if self._metadata_json is None:
            self._metadata_json = extract_metadata(self.package).to_json()
        return self._metadata_json

    @property
    def yara_text(self) -> str:
        """The haystack YARA rules scan (package text plus metadata JSON)."""
        if self._yara_text is None:
            self._yara_text = self.package.all_text + "\n" + self.metadata_json
        return self._yara_text

    @property
    def folded_text(self) -> str:
        """``yara_text.casefold()``, computed once per package.

        Every atom-prefilter lane (candidate selection, gate checks, batch
        hit construction) scans the folded haystack; hoisting the fold here
        removes the per-engine-lane refolds the index used to pay.
        """
        if self._folded_text is None:
            self._folded_text = self.yara_text.casefold()
        return self._folded_text

    @property
    def folded_bytes(self) -> bytes:
        """UTF-8 encoding of :attr:`folded_text` for the packed automaton.

        Fold *then* encode — byte offsets are never mapped back to the
        original string, so casefold length changes are safe.
        """
        if self._folded_bytes is None:
            self._folded_bytes = self.folded_text.encode("utf-8", "surrogatepass")
        return self._folded_bytes

    @property
    def target(self) -> ScanTarget:
        """The parsed Semgrep scan target."""
        if self._target is None:
            self._target = ScanTarget.from_package(self.package, self.parses)
        return self._target

    @property
    def fingerprint(self) -> str:
        """Content digest identifying the scan inputs (for result caching).

        Covers file paths *and* contents and the metadata JSON — two
        packages scan identically iff their fingerprints are equal.
        """
        if self._fingerprint is None:
            parts = [self.package.identifier]
            for f in self.package.files:
                parts.append(f.path)
                parts.append(f.content)
            parts.append(self.metadata_json)
            self._fingerprint = stable_digest("\x00".join(parts))
        return self._fingerprint

    def __getstate__(self) -> dict:
        return {**self.__dict__, "parses": None}


def prepare_packages(
    packages: Iterable[Union[Package, PreparedPackage]],
    parses: Optional[ParseMemo] = None,
) -> list[PreparedPackage]:
    """Prepare a whole corpus for repeated scanning.

    Prepared packages pass through; with ``parses`` given, those whose
    target is not built yet will build it through that memo.
    """
    prepared: list[PreparedPackage] = []
    for p in packages:
        if not isinstance(p, PreparedPackage):
            p = PreparedPackage(p, parses)
        elif parses is not None and p._target is None:
            p.parses = parses
        prepared.append(p)
    return prepared


@dataclass
class PackageDetection:
    """Detection outcome for a single package."""

    package: str
    actual_malicious: bool
    yara_rules: list[str] = field(default_factory=list)
    semgrep_rules: list[str] = field(default_factory=list)

    @property
    def matched_rules(self) -> list[str]:
        return self.yara_rules + self.semgrep_rules

    @property
    def match_count(self) -> int:
        return len(self.matched_rules)

    def predicted(self, threshold: int = 1) -> bool:
        return self.match_count >= threshold


@dataclass
class DetectionResult:
    """Detections for a whole corpus plus aggregate metrics."""

    detections: list[PackageDetection] = field(default_factory=list)
    match_threshold: int = 1

    def confusion(self, threshold: int | None = None) -> ConfusionMatrix:
        threshold = self.match_threshold if threshold is None else threshold
        matrix = ConfusionMatrix()
        for detection in self.detections:
            matrix.record(detection.actual_malicious, detection.predicted(threshold))
        return matrix

    @property
    def metrics(self) -> ConfusionMatrix:
        return self.confusion()

    def rule_hits(self) -> dict[str, list[PackageDetection]]:
        """Map each rule name/id to the packages it matched."""
        hits: dict[str, list[PackageDetection]] = {}
        for detection in self.detections:
            for rule in detection.matched_rules:
                hits.setdefault(rule, []).append(detection)
        return hits


class RuleScanner:
    """Scan packages with compiled YARA and/or Semgrep rule sets.

    When ``index`` is given (a :class:`repro.scanserve.RuleIndex` built over
    the same rule sets) matching is delegated to it: the index prefilters
    rules by literal atoms and only fully evaluates candidates, producing
    identical detections much faster on large rule sets.  When ``parses``
    is given, Semgrep targets are built through that memo.
    """

    def __init__(
        self,
        yara_rules: CompiledRuleSet | None = None,
        semgrep_rules: CompiledSemgrepRuleSet | None = None,
        match_threshold: int = 1,
        index: "object | None" = None,
        parses: Optional[ParseMemo] = None,
    ) -> None:
        if yara_rules is None and semgrep_rules is None:
            raise ValueError("RuleScanner needs at least one rule set")
        self.yara_rules = yara_rules
        self.semgrep_rules = semgrep_rules
        self.match_threshold = match_threshold
        self.index = index
        self.parses = parses

    @classmethod
    def with_index(
        cls,
        yara_rules: CompiledRuleSet | None = None,
        semgrep_rules: CompiledSemgrepRuleSet | None = None,
        match_threshold: int = 1,
    ) -> "RuleScanner":
        """Build a scanner that routes matching through an atom-prefilter index."""
        from repro.scanserve import RuleIndex

        return cls(
            yara_rules=yara_rules,
            semgrep_rules=semgrep_rules,
            match_threshold=match_threshold,
            index=RuleIndex(yara=yara_rules, semgrep=semgrep_rules),
        )

    # -- scanning ------------------------------------------------------------------
    def scan_package(
        self,
        package: Union[Package, PreparedPackage],
        cost_sink: "object | None" = None,
    ) -> PackageDetection:
        """Scan one package; ``cost_sink`` (any object with
        ``record(engine, rule_key, seconds, package)``, e.g. a
        :class:`repro.scanserve.telemetry.RuleCostTracker`) receives per-rule
        evaluation timings without changing the detections.

        Without an index, each engine is one loop over its rules, the same
        loop as ``CompiledRuleSet.match`` and
        ``CompiledSemgrepRuleSet.match_target``, timed per rule only when
        ``cost_sink`` is given."""
        if self.index is not None:
            return self.scan_prepared([package], cost_sink=cost_sink)[0]
        [prepared] = prepare_packages([package], self.parses)
        detection = PackageDetection(
            package=prepared.package.identifier,
            actual_malicious=prepared.package.is_malicious,
        )
        if self.yara_rules is not None and len(self.yara_rules):
            text = prepared.yara_text
            names = set()
            for rule in self.yara_rules.rules:
                started = time.perf_counter() if cost_sink is not None else 0.0
                if rule.match(text) is not None:
                    names.add(rule.name)
                if cost_sink is not None:
                    cost_sink.record(
                        "yara", rule.name, time.perf_counter() - started,
                        detection.package,
                    )
            detection.yara_rules = sorted(names)
        if self.semgrep_rules is not None and len(self.semgrep_rules):
            target = prepared.target
            ids = set()
            for rule in self.semgrep_rules.rules:
                started = time.perf_counter() if cost_sink is not None else 0.0
                if rule.match_target(target):
                    ids.add(rule.id)
                if cost_sink is not None:
                    cost_sink.record(
                        "semgrep", rule.id, time.perf_counter() - started,
                        detection.package,
                    )
            detection.semgrep_rules = sorted(ids)
        return detection

    def scan_prepared(
        self,
        packages: Iterable[Union[Package, PreparedPackage]],
        cost_sink: "object | None" = None,
    ) -> list[PackageDetection]:
        """Scan a batch of packages, amortising the atom pass across it.

        With an index attached, one :meth:`RuleIndex.hits_batch` call per
        engine lane replaces the per-package automaton/substring passes;
        candidate evaluation then reuses the precomputed folded haystacks
        and hit sets.  Without one, each package is scanned naively.
        """
        prepared_list = prepare_packages(packages, self.parses)
        if self.index is None:
            return [self.scan_package(p, cost_sink=cost_sink) for p in prepared_list]
        detections = [
            PackageDetection(
                package=p.package.identifier,
                actual_malicious=p.package.is_malicious,
            )
            for p in prepared_list
        ]
        if self.yara_rules is not None and len(self.yara_rules):
            hits_list = self.index.hits_batch([p.folded_bytes for p in prepared_list])
            for prepared, detection, hits in zip(prepared_list, detections, hits_list):
                names = set(
                    self.index.yara_rule_names(
                        prepared.yara_text,
                        cost_sink=cost_sink,
                        package=detection.package,
                        folded=prepared.folded_text,
                        hits=hits,
                    )
                )
                detection.yara_rules = sorted(names)
        if self.semgrep_rules is not None and len(self.semgrep_rules):
            targets = [p.target for p in prepared_list]
            hits_list = self.index.hits_batch([t.folded_text for t in targets])
            for detection, target, hits in zip(detections, targets, hits_list):
                findings = self.index.match_semgrep(
                    target, cost_sink=cost_sink, hits=hits
                )
                detection.semgrep_rules = sorted(
                    {finding.rule_id for finding in findings}
                )
        return detections

    def scan(self, packages: Iterable[Union[Package, PreparedPackage]]) -> DetectionResult:
        return DetectionResult(
            detections=self.scan_prepared(packages),
            match_threshold=self.match_threshold,
        )

    def evaluate(self, packages: Iterable[Union[Package, PreparedPackage]]) -> ConfusionMatrix:
        """Scan and reduce straight to a confusion matrix."""
        return self.scan(packages).confusion()
