"""Aligning stage (paper Section IV-C).

Every refined rule is passed through the alignment agent: rules that compile
immediately are finalised, rules that fail are repaired from compiler error
messages for up to five attempts, and rules that never compile are rejected.
When the alignment stage is disabled (ablation), rules that fail to compile
are simply dropped -- exactly the behaviour the paper's "LLMs alone" arm
suffers from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import AlignmentAgent, semgrep_compiler_tool, yara_compiler_tool
from repro.core.config import RuleLLMConfig
from repro.core.refining import RefinedRule
from repro.core.rules import SEMGREP_FORMAT, YARA_FORMAT, GeneratedRule
from repro.llm.base import LLMProvider


@dataclass
class AlignmentReport:
    """Aggregate statistics of one alignment pass."""

    compiled_first_try: int = 0
    repaired: int = 0
    rejected: int = 0
    total_fix_attempts: int = 0

    @property
    def total(self) -> int:
        return self.compiled_first_try + self.repaired + self.rejected


class AligningStage:
    """Turn refined rules into compiled, deployable rules."""

    def __init__(self, provider: LLMProvider, config: RuleLLMConfig) -> None:
        self.provider = provider
        self.config = config
        self.agent = AlignmentAgent(provider)
        self.report = AlignmentReport()

    def align(self, refined: RefinedRule, rule_index: int) -> tuple[GeneratedRule, bool]:
        """Align one refined rule; returns the generated rule and success flag."""
        generated = GeneratedRule(
            format=refined.format,
            name=self._rule_name(refined, rule_index),
            text=refined.text,
            cluster_id=refined.cluster_id,
            source_packages=list(refined.source_packages),
            analysis_text=refined.analysis_text,
            origin=refined.origin,
        )
        if not self.config.use_alignment:
            tool = yara_compiler_tool if refined.format == YARA_FORMAT else semgrep_compiler_tool
            ok, _error = tool(refined.text)
            if ok:
                self.report.compiled_first_try += 1
                return generated, True
            self.report.rejected += 1
            return generated, False

        outcome = self.agent.align(refined.text, refined.format, refined.analysis_text)
        generated.text = outcome.rule_text
        generated.fix_attempts = outcome.attempts
        self.report.total_fix_attempts += outcome.attempts
        if outcome.success:
            if outcome.attempts == 0:
                self.report.compiled_first_try += 1
            else:
                self.report.repaired += 1
            return generated, True
        self.report.rejected += 1
        return generated, False

    @staticmethod
    def _rule_name(refined: RefinedRule, rule_index: int) -> str:
        """Extract the identifier from the rule text, falling back to an index."""
        text = refined.text.strip()
        if refined.format == YARA_FORMAT:
            for line in text.splitlines():
                line = line.strip()
                if line.startswith("rule "):
                    return line.split()[1].split("{")[0].split(":")[0].strip()
            return f"MAL_rule_{rule_index}"
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("- id:") or stripped.startswith("id:"):
                return stripped.split(":", 1)[1].strip()
        return f"detect-rule-{rule_index}"
