"""Semgrep-lite rule schema and builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.semgrepx.errors import SemgrepRuleError

_ALLOWED_SEVERITIES = ("INFO", "WARNING", "ERROR")
_PATTERN_KEYS = ("pattern", "patterns", "pattern-either", "pattern-not", "pattern-regex")


@dataclass
class SemgrepRule:
    """One rule as it appears in a Semgrep YAML file."""

    id: str
    message: str
    languages: list[str] = field(default_factory=lambda: ["python"])
    severity: str = "WARNING"
    metadata: dict[str, Any] = field(default_factory=dict)
    pattern: str | None = None
    patterns: list[dict[str, Any]] = field(default_factory=list)
    pattern_either: list[dict[str, Any]] = field(default_factory=list)
    pattern_not: str | None = None
    pattern_regex: str | None = None

    # -- validation ---------------------------------------------------------
    def validate(self) -> None:
        if not self.id or not str(self.id).strip():
            raise SemgrepRuleError("missing required key 'id'")
        if not self.message or not str(self.message).strip():
            raise SemgrepRuleError("missing required key 'message'", rule_id=self.id)
        if not self.languages:
            raise SemgrepRuleError("missing required key 'languages'", rule_id=self.id)
        if self.severity not in _ALLOWED_SEVERITIES:
            raise SemgrepRuleError(
                f"invalid severity {self.severity!r} (expected one of {_ALLOWED_SEVERITIES})",
                rule_id=self.id,
            )
        if not self.has_pattern_operator():
            raise SemgrepRuleError(
                "rule must define one of: " + ", ".join(_PATTERN_KEYS), rule_id=self.id
            )

    def has_pattern_operator(self) -> bool:
        return bool(self.pattern or self.patterns or self.pattern_either or self.pattern_regex)

    # -- (de)serialisation -----------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SemgrepRule":
        if not isinstance(data, dict):
            raise SemgrepRuleError(f"rule entry must be a mapping, got {type(data).__name__}")
        known = {
            "id", "message", "languages", "severity", "metadata",
            "pattern", "patterns", "pattern-either", "pattern-not", "pattern-regex",
        }
        unknown = [key for key in data if key not in known]
        if unknown:
            raise SemgrepRuleError(
                f"unknown key {unknown[0]!r}", rule_id=str(data.get("id", "")) or None
            )
        rule = cls(
            id=str(data.get("id", "")),
            message=str(data.get("message", "")),
            languages=list(data.get("languages", []) or []),
            severity=str(data.get("severity", "WARNING")),
            metadata=dict(data.get("metadata", {}) or {}),
            pattern=data.get("pattern"),
            patterns=list(data.get("patterns", []) or []),
            pattern_either=list(data.get("pattern-either", []) or []),
            pattern_not=data.get("pattern-not"),
            pattern_regex=data.get("pattern-regex"),
        )
        rule.validate()
        return rule

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "id": self.id,
            "languages": list(self.languages),
            "severity": self.severity,
            "message": self.message,
        }
        if self.metadata:
            data["metadata"] = dict(self.metadata)
        if self.pattern is not None:
            data["pattern"] = self.pattern
        if self.patterns:
            data["patterns"] = list(self.patterns)
        if self.pattern_either:
            data["pattern-either"] = list(self.pattern_either)
        if self.pattern_not is not None:
            data["pattern-not"] = self.pattern_not
        if self.pattern_regex is not None:
            data["pattern-regex"] = self.pattern_regex
        return data

    # -- convenience -------------------------------------------------------------
    def all_pattern_texts(self) -> list[str]:
        """Every positive pattern string referenced by the rule."""
        texts: list[str] = []
        if self.pattern:
            texts.append(self.pattern)
        for entry in self.patterns:
            if isinstance(entry, dict) and "pattern" in entry:
                texts.append(entry["pattern"])
        for entry in self.pattern_either:
            if isinstance(entry, dict) and "pattern" in entry:
                texts.append(entry["pattern"])
        return texts


@dataclass
class SemgrepRuleBuilder:
    """Fluent builder used by the rule-synthesis stage."""

    rule_id: str
    message: str = ""
    severity: str = "WARNING"
    metadata: dict[str, Any] = field(default_factory=dict)
    _either: list[str] = field(default_factory=list)
    _regex: str | None = None

    def set_message(self, message: str) -> "SemgrepRuleBuilder":
        self.message = message
        return self

    def meta(self, key: str, value: Any) -> "SemgrepRuleBuilder":
        self.metadata[key] = value
        return self

    def either_pattern(self, pattern: str) -> "SemgrepRuleBuilder":
        self._either.append(pattern)
        return self

    def regex(self, pattern: str) -> "SemgrepRuleBuilder":
        self._regex = pattern
        return self

    @property
    def pattern_count(self) -> int:
        return len(self._either) + (1 if self._regex else 0)

    def build(self) -> SemgrepRule:
        rule = SemgrepRule(
            id=self.rule_id,
            message=self.message or f"Detected {self.rule_id.replace('-', ' ')}",
            severity=self.severity,
            metadata=dict(self.metadata),
        )
        if len(self._either) == 1:
            rule.pattern = self._either[0]
        elif self._either:
            rule.pattern_either = [{"pattern": p} for p in self._either]
        if self._regex:
            rule.pattern_regex = self._regex
        rule.validate()
        return rule
