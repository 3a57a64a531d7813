"""The simulated analyst LLM provider.

``SimulatedAnalystLLM`` implements :class:`repro.llm.base.LLMProvider`: it
accepts a textual prompt, locates the embedded task and payload sections
(:mod:`repro.llm.protocol`), performs the requested analysis or rule
operation with the deterministic analyst machinery, degrades the result
according to its :class:`~repro.llm.profiles.ModelProfile`, and returns a
textual completion.

Determinism: every stochastic decision is seeded from the provider seed, the
model name and a hash of the prompt, so re-running the pipeline reproduces
the same rules, the same faults and therefore the same evaluation numbers.
The provider keeps no state between calls: each response carries its own
token :class:`~repro.llm.base.Usage` and ``truncated_prompt`` flag.
"""

from __future__ import annotations

import json

from repro.corpus.package import PackageMetadata
from repro.llm import protocol
from repro.llm.analysis import BehaviorFinding, CodeAnalysisReport, CodeAnalyzer
from repro.llm.base import CompletionRequest, LLMResponse, Usage
from repro.llm.faults import FaultInjector, RuleRepairer
from repro.llm.profiles import DEFAULT_PROFILE, ModelProfile
from repro.llm.rule_synthesis import (
    HALLUCINATED_STRINGS,
    merge_semgrep_sources,
    merge_yara_sources,
    rule_name_for,
    synthesize_semgrep,
    synthesize_yara,
)
from repro.llm.tokenizer import count_tokens, truncate_to_tokens
from repro.utils.hashing import stable_digest
from repro.utils.seeding import DeterministicRandom


class SimulatedAnalystLLM:
    """Deterministic, profile-degraded stand-in for a commercial LLM."""

    def __init__(
        self,
        profile: ModelProfile = DEFAULT_PROFILE,
        seed: int = 20250424,
        analyzer: CodeAnalyzer | None = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.analyzer = analyzer or CodeAnalyzer()

    # -- LLMProvider protocol ---------------------------------------------------
    @property
    def model_name(self) -> str:
        return self.profile.name

    @property
    def context_window(self) -> int:
        return self.profile.context_window

    def complete(self, request: CompletionRequest) -> LLMResponse:
        system_text = request.system_text
        user_text, truncated = truncate_to_tokens(
            request.user_text, max(self.profile.context_window - count_tokens(system_text), 256)
        )
        sections = protocol.parse_sections(system_text + "\n" + user_text)
        task = protocol.first_section(sections, "TASK", default=request.tag or protocol.TASK_CRAFT)
        rule_format = protocol.first_section(sections, "FORMAT", default=protocol.FORMAT_YARA)
        rng = DeterministicRandom(
            self.seed, self.profile.name, task, stable_digest(request.full_text)[:24]
        )

        if task == protocol.TASK_REFINE:
            completion = self._refine(sections, rule_format, rng)
        elif task == protocol.TASK_FIX:
            completion = self._fix(sections, rule_format, rng)
        else:  # craft and direct share the analyse-then-draft path
            completion = self._craft(sections, rule_format, rng, truncated,
                                      direct=(task == protocol.TASK_DIRECT))

        usage = Usage(prompt_tokens=count_tokens(request.full_text),
                      completion_tokens=count_tokens(completion))
        return LLMResponse(text=completion, model=self.model_name, usage=usage,
                           truncated_prompt=truncated)

    # -- crafting ------------------------------------------------------------------
    def _craft(self, sections: dict[str, list[str]], rule_format: str,
               rng: DeterministicRandom, truncated: bool, direct: bool) -> str:
        samples = protocol.sections_with_prefix(sections, "SAMPLE")
        metadata_bodies = protocol.sections_with_prefix(sections, "METADATA")

        report = self.analyzer.analyze_units(samples) if samples else CodeAnalysisReport()
        for body in metadata_bodies:
            metadata = self._parse_metadata(body)
            if metadata is not None:
                report = report.merge(self.analyzer.analyze_metadata(metadata))
        report.truncated = truncated

        findings = self._apply_recall(report.findings, rng)
        findings = self._apply_hallucination(findings, rng)
        report = CodeAnalysisReport(
            findings=findings,
            metadata_findings=report.metadata_findings,
            analyzed_units=report.analyzed_units,
            truncated=truncated,
        )

        salt = stable_digest("|".join(f.indicator_key for f in findings) or "empty")[:8]
        if rule_format == protocol.FORMAT_SEMGREP:
            rule_text = synthesize_semgrep(findings, rule_name_for(findings, "semgrep", salt),
                                           self.profile, rng)
        else:
            rule_text = synthesize_yara(findings, rule_name_for(findings, "yara", salt),
                                        self.profile, rng)

        error_rate = self.profile.syntax_error_rate * (1.6 if direct else 1.0)
        if rng.coin(min(error_rate, 0.95)):
            rule_text = self._corrupt(rule_text, rule_format, rng)
        return protocol.render_completion(report.to_text(), rule_text)

    # -- refining -------------------------------------------------------------------
    def _refine(self, sections: dict[str, list[str]], rule_format: str,
                rng: DeterministicRandom) -> str:
        rules = protocol.sections_with_prefix(sections, "RULE")
        analysis = protocol.first_section(sections, "ANALYSIS")
        salt = stable_digest("".join(rules) or "empty")[:8]
        if rule_format == protocol.FORMAT_SEMGREP:
            merged = merge_semgrep_sources(rules, f"detect-merged-{salt}", self.profile, rng)
        else:
            merged = merge_yara_sources(rules, f"MAL_merged_{salt}", self.profile, rng)
        if rng.coin(self.profile.syntax_error_rate * 0.6):
            merged = self._corrupt(merged, rule_format, rng)
        return protocol.render_completion(analysis, merged)

    # -- fixing ----------------------------------------------------------------------
    def _fix(self, sections: dict[str, list[str]], rule_format: str,
             rng: DeterministicRandom) -> str:
        rules = protocol.sections_with_prefix(sections, "RULE")
        errors = protocol.sections_with_prefix(sections, "ERROR")
        rule_text = rules[-1] if rules else ""
        error_text = "\n".join(errors)
        if not rule_text:
            return protocol.render_completion("", "")
        if rng.coin(self.profile.fix_success_rate):
            if rule_format == protocol.FORMAT_SEMGREP:
                repaired = RuleRepairer.repair_semgrep(rule_text, error_text)
            else:
                repaired = RuleRepairer.repair_yara(rule_text, error_text)
        else:
            # a failed fix attempt returns the rule essentially unchanged
            repaired = rule_text
        return protocol.render_completion("", repaired)

    # -- profile-driven degradations -----------------------------------------------------
    def _apply_recall(self, findings: list[BehaviorFinding],
                      rng: DeterministicRandom) -> list[BehaviorFinding]:
        if self.profile.recall >= 1.0:
            return list(findings)
        kept = [finding for finding in findings if rng.coin(self.profile.recall)]
        if findings and not kept:
            # even a weak model usually reports the most blatant behaviour
            kept = [max(findings, key=lambda f: f.specificity)] if rng.coin(0.5) else []
        return kept

    def _apply_hallucination(self, findings: list[BehaviorFinding],
                             rng: DeterministicRandom) -> list[BehaviorFinding]:
        if rng.coin(self.profile.hallucination_rate):
            invented = rng.choice(list(HALLUCINATED_STRINGS))
            findings = list(findings) + [
                BehaviorFinding(
                    indicator_key="hallucinated_indicator",
                    audit_category="ioc",
                    category="Other Rules",
                    subcategory="Unknown or Undetermined",
                    description="pattern resembling a known attack framework",
                    evidence=[invented],
                    specificity=0.99,
                    matched_text=[invented],
                )
            ]
        return findings

    def _corrupt(self, rule_text: str, rule_format: str, rng: DeterministicRandom) -> str:
        injector = FaultInjector(rng)
        if rule_format == protocol.FORMAT_SEMGREP:
            return injector.corrupt_semgrep(rule_text)
        return injector.corrupt_yara(rule_text)

    # -- helpers ---------------------------------------------------------------------------
    @staticmethod
    def _parse_metadata(body: str) -> PackageMetadata | None:
        try:
            json.loads(body)
        except (ValueError, TypeError):
            return None
        try:
            return PackageMetadata.from_json(body)
        except (KeyError, TypeError, ValueError):
            return None
