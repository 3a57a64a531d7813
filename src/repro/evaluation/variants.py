"""Malware-variant detection experiment (paper Section V-B).

The paper clusters the malware corpus, generates YARA rules from two
packages of each group and checks whether those rules detect the group's
remaining, unseen variants.  Reported numbers: 90.32% of all variants
detected overall, 96.62% average per-group detection rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import RuleLLMConfig
from repro.core.pipeline import RuleLLM
from repro.corpus.package import Package
from repro.evaluation.detector import RuleScanner
from repro.extraction.clustering import cluster_packages


@dataclass
class GroupVariantResult:
    """Variant detection within one cluster."""

    cluster_id: int
    seeds: list[str] = field(default_factory=list)
    variants: int = 0
    detected: int = 0
    rules_generated: int = 0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.variants if self.variants else 1.0


@dataclass
class VariantDetectionResult:
    """Aggregate variant-detection outcome."""

    groups: list[GroupVariantResult] = field(default_factory=list)

    @property
    def total_variants(self) -> int:
        return sum(group.variants for group in self.groups)

    @property
    def total_detected(self) -> int:
        return sum(group.detected for group in self.groups)

    @property
    def overall_detection_rate(self) -> float:
        """Detected variants / all variants (paper: 90.32%)."""
        if self.total_variants == 0:
            return 0.0
        return self.total_detected / self.total_variants

    @property
    def average_detection_rate(self) -> float:
        """Mean of per-group detection rates (paper: 96.62%)."""
        if not self.groups:
            return 0.0
        return sum(group.detection_rate for group in self.groups) / len(self.groups)


def variant_detection_experiment(
    malware: list[Package],
    config: RuleLLMConfig | None = None,
    seeds_per_group: int = 2,
    min_group_size: int = 3,
    max_groups: int | None = None,
) -> VariantDetectionResult:
    """Run the Section V-B experiment over a malware corpus.

    For every cluster with at least ``min_group_size`` members, rules are
    generated from ``seeds_per_group`` packages and evaluated on the rest.
    """
    config = config or RuleLLMConfig()
    result = VariantDetectionResult()
    if not malware:
        return result
    clusters = cluster_packages(malware)
    pipeline = RuleLLM(config)
    evaluated = 0
    for cluster_id, members in enumerate(clusters.clusters):
        if len(members) < min_group_size:
            continue
        if max_groups is not None and evaluated >= max_groups:
            break
        evaluated += 1
        seeds = members[:seeds_per_group]
        variants = members[seeds_per_group:]
        rules = pipeline.generate_rules_for_group(seeds, cluster_id=cluster_id)
        group_result = GroupVariantResult(
            cluster_id=cluster_id,
            seeds=[pkg.identifier for pkg in seeds],
            variants=len(variants),
            rules_generated=len(rules),
        )
        if rules.yara_rules or rules.semgrep_rules:
            scanner = RuleScanner(
                yara_rules=rules.compile_yara() if rules.yara_rules else None,
                semgrep_rules=rules.compile_semgrep() if rules.semgrep_rules else None,
            )
            for variant in variants:
                detection = scanner.scan_package(variant)
                if detection.match_count >= 1:
                    group_result.detected += 1
        result.groups.append(group_result)
    return result
