"""Crafting stage (paper Section IV-A).

Given one cluster of similar malicious packages, the crafting stage:

* extracts basic units from the cluster's packages;
* forms small groups of similar units (the paper audits *multiple similar
  units* per prompt so the rule generalises across variants);
* renders the Table III prompt per group and per rule format;
* parses the completion into a coarse rule plus its analysis document.

For metadata, the whole metadata JSON of a sample package is treated as one
basic unit (Section IV-A) and prompts the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import prompts
from repro.core.basic_units import BasicUnit, extract_basic_units
from repro.core.config import RuleLLMConfig
from repro.corpus.package import Package
from repro.extraction.metadata import extract_metadata, metadata_audit
from repro.llm import protocol
from repro.llm.analysis import CodeAnalyzer
from repro.llm.base import LLMProvider
from repro.utils.seeding import DeterministicRandom

#: Shared auditor used to rank basic units by how much Table II behaviour they
#: exhibit before prompting (the paper has the LLM audit each snippet; doing a
#: cheap pre-rank here avoids spending prompts on boilerplate units).
_UNIT_AUDITOR = CodeAnalyzer()

#: Rule formats crafted for every cluster, in prompt order.
RULE_FORMATS = (protocol.FORMAT_YARA, protocol.FORMAT_SEMGREP)
#: Similar basic units audited together in one prompt (one per sample package).
UNITS_PER_PROMPT = 2
#: Unit groups, hence prompts per format, drawn from one cluster.
UNIT_GROUPS_PER_CLUSTER = 3


@dataclass
class CoarseRule:
    """One coarse-grained rule produced by the crafting stage."""

    format: str
    text: str
    analysis_text: str
    cluster_id: int
    source_packages: list[str] = field(default_factory=list)
    origin: str = "code"


class CraftingStage:
    """Produce coarse-grained rules for one cluster of packages."""

    def __init__(self, provider: LLMProvider, config: RuleLLMConfig) -> None:
        self.provider = provider
        self.config = config

    # -- cluster-level crafting --------------------------------------------------
    def craft_for_cluster(self, cluster_id: int, packages: list[Package]) -> list[CoarseRule]:
        """Generate coarse rules (all requested formats) for one cluster."""
        rng = DeterministicRandom(self.config.seed, "crafting", str(cluster_id))
        coarse: list[CoarseRule] = []
        unit_groups = self._unit_groups(packages, rng)

        for rule_format in RULE_FORMATS:
            for group in unit_groups:
                request = prompts.render_craft_prompt(
                    rule_format=rule_format,
                    code_units=[unit.text for unit in group],
                )
                response = self.provider.complete(request)
                coarse.append(
                    CoarseRule(
                        format=rule_format,
                        text=protocol.extract_rule_from_completion(response.text),
                        analysis_text=protocol.extract_analysis_from_completion(response.text),
                        cluster_id=cluster_id,
                        source_packages=sorted({unit.package for unit in group}),
                        origin="code",
                    )
                )
            if rule_format == protocol.FORMAT_YARA:
                metadata_rule = self._craft_metadata_rule(cluster_id, packages, rule_format, rng)
                if metadata_rule is not None:
                    coarse.append(metadata_rule)
        return coarse

    def craft_direct(self, cluster_id: int, package: Package) -> list[CoarseRule]:
        """Single-shot crafting over the whole package (the LLM-alone arm)."""
        coarse: list[CoarseRule] = []
        metadata_json = extract_metadata(package).to_json()
        for rule_format in RULE_FORMATS:
            request = prompts.render_direct_prompt(
                rule_format=rule_format,
                package_source=package.source_text,
                metadata_json=metadata_json,
            )
            response = self.provider.complete(request)
            coarse.append(
                CoarseRule(
                    format=rule_format,
                    text=protocol.extract_rule_from_completion(response.text),
                    analysis_text=protocol.extract_analysis_from_completion(response.text),
                    cluster_id=cluster_id,
                    source_packages=[package.identifier],
                    origin="code",
                )
            )
        return coarse

    # -- helpers ---------------------------------------------------------------------
    def _unit_groups(self, packages: list[Package],
                     rng: DeterministicRandom) -> list[list[BasicUnit]]:
        """Select groups of similar basic units across the cluster's packages.

        Units are pre-ranked by how much Table II behaviour they exhibit
        (boilerplate helpers sink to the bottom).  Units occupying the same
        rank position in different variant packages are near-identical by
        construction of the cluster, so a group is formed by taking that
        position from up to ``UNITS_PER_PROMPT`` sample packages.
        """
        per_package_units = [
            self._ranked_units(extract_basic_units(pkg))
            for pkg in packages[:UNITS_PER_PROMPT]
        ]
        per_package_units = [units for units in per_package_units if units]
        if not per_package_units:
            return []

        group_count = min(UNIT_GROUPS_PER_CLUSTER,
                          max(len(units) for units in per_package_units))
        groups: list[list[BasicUnit]] = []
        kept_clean_group = False
        for position in range(group_count):
            group: list[BasicUnit] = []
            for units, _score in per_package_units:
                if position < len(units):
                    group.append(units[position])
                if len(group) >= UNITS_PER_PROMPT:
                    break
            if not group:
                continue
            suspicious = any(
                scores[position] > 0
                for units, scores in per_package_units
                if position < len(units)
            )
            if not suspicious:
                # one boilerplate-only group is allowed through (it yields the
                # occasional useless rule, as the paper observes), the rest are
                # skipped to avoid wasting prompts.
                if kept_clean_group:
                    continue
                kept_clean_group = True
            groups.append(group)
        # keep prompt order deterministic yet varied across clusters
        return rng.shuffle(groups) if len(groups) > 1 else groups

    @staticmethod
    def _ranked_units(units: list[BasicUnit]) -> tuple[list[BasicUnit], list[int]]:
        """Order units by suspicion (indicator hits), then size; return scores too."""
        scored: list[tuple[int, BasicUnit]] = []
        for unit in units:
            report = _UNIT_AUDITOR.analyze_code(unit.text)
            suspicion = sum(1 for finding in report.findings if finding.specificity >= 0.5)
            scored.append((suspicion, unit))
        scored.sort(key=lambda item: (item[0], item[1].size), reverse=True)
        ordered = [unit for _score, unit in scored]
        scores = [score for score, _unit in scored]
        return ordered, scores

    def _craft_metadata_rule(self, cluster_id: int, packages: list[Package],
                             rule_format: str, rng: DeterministicRandom) -> CoarseRule | None:
        sample = packages[0]
        metadata = extract_metadata(sample)
        # "We only focus on the suspicious parts of the metadata" (Section IV-A):
        # clusters with unremarkable metadata do not get a metadata rule.
        if not metadata_audit(metadata).suspicious or not rng.coin(0.6):
            return None
        metadata_json = metadata.to_json()
        request = prompts.render_craft_prompt(
            rule_format=rule_format,
            code_units=[],
            metadata_json=metadata_json,
        )
        response = self.provider.complete(request)
        rule_text = protocol.extract_rule_from_completion(response.text)
        if not rule_text.strip():
            return None
        return CoarseRule(
            format=rule_format,
            text=rule_text,
            analysis_text=protocol.extract_analysis_from_completion(response.text),
            cluster_id=cluster_id,
            source_packages=[sample.identifier],
            origin="metadata",
        )
