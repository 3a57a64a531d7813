"""Generated-rule containers.

A :class:`GeneratedRule` is one finished rule together with its provenance
(which cluster / packages it came from, which analysis text supported it,
how many repair attempts it needed).  A :class:`GeneratedRuleSet` is the
pipeline's final output: it compiles into the two engines, serialises to a
rules directory and feeds every evaluation experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.semgrepx import CompiledSemgrepRuleSet
from repro.semgrepx import compiler as semgrep_compiler
from repro.yarax import CompiledRuleSet
from repro.yarax import compiler as yara_compiler

YARA_FORMAT = "yara"
SEMGREP_FORMAT = "semgrep"


@dataclass
class GeneratedRule:
    """One deployable rule plus its provenance."""

    format: str
    name: str
    text: str
    cluster_id: int | None = None
    source_packages: list[str] = field(default_factory=list)
    analysis_text: str = ""
    fix_attempts: int = 0
    compiled_ok: bool = True
    origin: str = "code"  # "code" or "metadata"

    def __post_init__(self) -> None:
        if self.format not in (YARA_FORMAT, SEMGREP_FORMAT):
            raise ValueError(f"unknown rule format: {self.format}")

    @property
    def is_yara(self) -> bool:
        return self.format == YARA_FORMAT

    @property
    def is_semgrep(self) -> bool:
        return self.format == SEMGREP_FORMAT

    @property
    def file_name(self) -> str:
        extension = "yar" if self.is_yara else "yaml"
        safe = self.name.replace("/", "_").replace(" ", "_")
        return f"{safe}.{extension}"


@dataclass
class GeneratedRuleSet:
    """The pipeline's output: every successfully generated rule."""

    rules: list[GeneratedRule] = field(default_factory=list)
    rejected: list[GeneratedRule] = field(default_factory=list)
    model: str = ""

    # -- accessors ----------------------------------------------------------------
    @property
    def yara_rules(self) -> list[GeneratedRule]:
        return [rule for rule in self.rules if rule.is_yara]

    @property
    def semgrep_rules(self) -> list[GeneratedRule]:
        return [rule for rule in self.rules if rule.is_semgrep]

    def __len__(self) -> int:
        return len(self.rules)

    def counts(self) -> dict[str, int]:
        return {
            "total": len(self.rules),
            "yara": len(self.yara_rules),
            "semgrep": len(self.semgrep_rules),
            "rejected": len(self.rejected),
        }

    def add(self, rule: GeneratedRule) -> None:
        self.rules.append(rule)

    def reject(self, rule: GeneratedRule) -> None:
        rule.compiled_ok = False
        self.rejected.append(rule)

    def extend(self, other: "GeneratedRuleSet") -> None:
        self.rules.extend(other.rules)
        self.rejected.extend(other.rejected)

    # -- compilation into the engines ------------------------------------------------
    def compile_yara(self) -> CompiledRuleSet:
        """Compile every YARA rule into one scanning rule set.

        Rule names are de-duplicated defensively (two clusters can in
        principle produce the same derived name).
        """
        seen: set[str] = set()
        sources: list[str] = []
        for index, rule in enumerate(self.yara_rules):
            text = rule.text
            if rule.name in seen:
                text = text.replace(f"rule {rule.name}", f"rule {rule.name}_{index}", 1)
            seen.add(rule.name)
            sources.append(text)
        if not sources:
            return CompiledRuleSet()
        return yara_compiler.compile_source("\n\n".join(sources))

    def compile_semgrep(self) -> CompiledSemgrepRuleSet:
        """Compile every Semgrep rule into one scanning rule set."""
        compiled = CompiledSemgrepRuleSet()
        seen: set[str] = set()
        for index, rule in enumerate(self.semgrep_rules):
            text = rule.text
            loaded = semgrep_compiler.compile_yaml(text)
            for compiled_rule in loaded.rules:
                if compiled_rule.id in seen:
                    compiled_rule.rule.id = f"{compiled_rule.id}-{index}"
                seen.add(compiled_rule.rule.id)
                compiled.rules.append(compiled_rule)
        return compiled

    # -- persistence --------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Write rules to ``directory/yara/*.yar`` and ``directory/semgrep/*.yaml``."""
        root = Path(directory)
        (root / "yara").mkdir(parents=True, exist_ok=True)
        (root / "semgrep").mkdir(parents=True, exist_ok=True)
        for rule in self.rules:
            subdir = "yara" if rule.is_yara else "semgrep"
            (root / subdir / rule.file_name).write_text(rule.text, encoding="utf-8")
        return root

    @classmethod
    def load(cls, directory: str | Path) -> "GeneratedRuleSet":
        """Load a rule set previously written by :meth:`save`."""
        root = Path(directory)
        result = cls()
        for path in sorted((root / "yara").glob("*.yar")) if (root / "yara").is_dir() else []:
            result.add(GeneratedRule(format=YARA_FORMAT, name=path.stem,
                                     text=path.read_text(encoding="utf-8")))
        for path in sorted((root / "semgrep").glob("*.yaml")) if (root / "semgrep").is_dir() else []:
            result.add(GeneratedRule(format=SEMGREP_FORMAT, name=path.stem,
                                     text=path.read_text(encoding="utf-8")))
        return result


def combine(rule_sets: Iterable[GeneratedRuleSet]) -> GeneratedRuleSet:
    """Plain concatenation of rule sets (no collision handling).

    Sharded generation should NOT use this: fleet merging needs rule-name
    collision resolution, cross-shard dedup and deterministic ordering —
    that policy lives in :func:`repro.scanserve.registry.merge_shard_rulesets`
    (what the orchestrator runs before ``RulesetRegistry.publish_merged_set``).
    """
    combined = GeneratedRuleSet()
    for rule_set in rule_sets:
        combined.extend(rule_set)
        if not combined.model:
            combined.model = rule_set.model
    return combined
