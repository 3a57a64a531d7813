"""The simulated analyst's code-audit capability (paper Table II).

``CodeAnalyzer`` scans a code snippet for the idioms in the indicator
catalogue and reports :class:`BehaviorFinding`s grouped by the paper's six
audit categories (IoC, file operation, network activity, encryption,
privilege operation, anti-debug/anti-analysis).  It also audits package
metadata using the Table II metadata checks.

This module is deterministic and exhaustive; the *model profile* (recall,
hallucinations, ...) is applied on top of it by the simulated provider, so a
"perfect analyst" is available for tests and a degraded one for the model
comparison experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.categories import METADATA_RELATED, category_of
from repro.corpus.package import PackageMetadata
from repro.extraction.metadata import metadata_audit
from repro.llm.knowledge import INDICATOR_CATALOG, IndicatorPattern


@dataclass
class BehaviorFinding:
    """One suspicious behaviour identified in a basic unit."""

    indicator_key: str
    audit_category: str
    category: str
    subcategory: str
    description: str
    evidence: list[str] = field(default_factory=list)
    specificity: float = 0.5
    matched_text: list[str] = field(default_factory=list)

    def summary(self) -> str:
        evidence = ", ".join(sorted(set(self.evidence))[:3])
        return f"[{self.audit_category}] {self.description} (evidence: {evidence})"


@dataclass
class CodeAnalysisReport:
    """The 'analysis result' artefact produced by the crafting stage."""

    findings: list[BehaviorFinding] = field(default_factory=list)
    metadata_findings: list[str] = field(default_factory=list)
    analyzed_units: int = 0
    truncated: bool = False

    def merge(self, other: "CodeAnalysisReport") -> "CodeAnalysisReport":
        """Combine two reports (used when auditing multiple similar units)."""
        merged = CodeAnalysisReport(
            findings=list(self.findings),
            metadata_findings=list(self.metadata_findings),
            analyzed_units=self.analyzed_units + other.analyzed_units,
            truncated=self.truncated or other.truncated,
        )
        existing = {finding.indicator_key for finding in merged.findings}
        for finding in other.findings:
            if finding.indicator_key in existing:
                # merge evidence into the existing finding
                for current in merged.findings:
                    if current.indicator_key == finding.indicator_key:
                        current.evidence = sorted(set(current.evidence) | set(finding.evidence))
                        current.matched_text = sorted(
                            set(current.matched_text) | set(finding.matched_text)
                        )
                        break
            else:
                merged.findings.append(finding)
                existing.add(finding.indicator_key)
        for note in other.metadata_findings:
            if note not in merged.metadata_findings:
                merged.metadata_findings.append(note)
        return merged

    def to_text(self) -> str:
        """Render the ``*.txt`` analysis document described in Section IV-A."""
        lines = ["Analysis Result", "================", ""]
        lines.append(f"Units analyzed: {self.analyzed_units}")
        if self.truncated:
            lines.append("Note: input exceeded the context window and was truncated.")
        lines.append("")
        if self.metadata_findings:
            lines.append("Metadata findings:")
            for note in self.metadata_findings:
                lines.append(f"  - {note}")
            lines.append("")
        if self.findings:
            lines.append("Code findings:")
            for finding in self.findings:
                lines.append(f"  - {finding.summary()}")
        else:
            lines.append("Code findings: none")
        return "\n".join(lines)


class CodeAnalyzer:
    """Deterministic indicator-catalogue scanner."""

    def __init__(self, catalog: tuple[IndicatorPattern, ...] = INDICATOR_CATALOG) -> None:
        self.catalog = catalog
        self._compiled = [(entry, entry.compiled) for entry in catalog]

    # -- code ------------------------------------------------------------------
    def analyze_code(self, code: str) -> CodeAnalysisReport:
        """Scan one basic unit of code for suspicious idioms."""
        report = CodeAnalysisReport(analyzed_units=1)
        if not code or not code.strip():
            return report
        for entry, compiled in self._compiled:
            matches = compiled.findall(code)
            if not matches:
                continue
            matched_text: list[str] = []
            for match in matches[:5]:
                if isinstance(match, tuple):
                    match = next((part for part in match if part), "")
                if match:
                    matched_text.append(str(match))
            report.findings.append(
                BehaviorFinding(
                    indicator_key=entry.key,
                    audit_category=entry.audit_category,
                    category=category_of(entry.subcategory),
                    subcategory=entry.subcategory,
                    description=entry.description,
                    evidence=[entry.signature],
                    specificity=entry.specificity,
                    matched_text=matched_text,
                )
            )
        return report

    def analyze_units(self, units: list[str]) -> CodeAnalysisReport:
        """Audit several similar basic units and merge the findings."""
        report = CodeAnalysisReport(analyzed_units=0)
        for unit in units:
            report = report.merge(self.analyze_code(unit))
        return report

    # -- metadata ------------------------------------------------------------------
    def analyze_metadata(self, metadata: PackageMetadata) -> CodeAnalysisReport:
        """Run the Table II metadata audit and convert it into findings."""
        audit = metadata_audit(metadata)
        report = CodeAnalysisReport(analyzed_units=1)
        report.metadata_findings = audit.findings()
        if audit.empty_information:
            report.findings.append(self._metadata_finding(
                "meta_empty_information", "Package Metadata Manipulation",
                "package ships with empty or placeholder metadata",
                evidence=[f'"name": "{metadata.name}"'],
                specificity=0.5,
            ))
        if audit.release_zero:
            report.findings.append(self._metadata_finding(
                "meta_release_zero", "Version Number Deception",
                "package version is a 0.0 / 0.0.0 placeholder",
                evidence=[f'"version": "{metadata.version}"'],
                specificity=0.6,
            ))
        if audit.typosquatting:
            report.findings.append(self._metadata_finding(
                "meta_typosquatting", "Author Information Spoofing",
                "package name imitates a popular package (typosquatting)",
                evidence=[f'"name": "{metadata.name}"'],
                specificity=0.8,
            ))
        if audit.suspicious_dependencies:
            report.findings.append(self._metadata_finding(
                "meta_fake_dependencies", "Fake Dependency Metadata",
                "package declares suspicious dependency libraries",
                evidence=[f'"{dep}"' for dep in audit.suspicious_dependencies[:4]],
                specificity=0.7,
            ))
        return report

    @staticmethod
    def _metadata_finding(key: str, subcategory: str, description: str,
                          evidence: list[str], specificity: float) -> BehaviorFinding:
        return BehaviorFinding(
            indicator_key=key,
            audit_category="ioc",
            category=METADATA_RELATED,
            subcategory=subcategory,
            description=description,
            evidence=evidence,
            specificity=specificity,
            matched_text=list(evidence),
        )
