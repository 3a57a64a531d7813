"""Compilation and execution of Semgrep-lite rules.

``compile_yaml`` turns a YAML document into a
:class:`CompiledSemgrepRuleSet`; any schema or pattern defect raises a
Semgrep-style error.  ``try_compile`` is the agent-facing tool interface
(paper Figure 4): success returns the compiled set, failure returns the error
message text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.semgrepx.errors import SemgrepPatternError, SemgrepRuleError
from repro.semgrepx.loader import load_rules_yaml
from repro.semgrepx.matcher import ParsedFile, ScanTarget, SemgrepFinding
from repro.semgrepx.pattern import Pattern
from repro.semgrepx.rule import SemgrepRule


@dataclass
class CompiledSemgrepRule:
    """One rule with its patterns compiled for matching."""

    rule: SemgrepRule
    either_patterns: list[Pattern] = field(default_factory=list)
    all_patterns: list[Pattern] = field(default_factory=list)
    not_patterns: list[Pattern] = field(default_factory=list)
    regex: re.Pattern[str] | None = None
    _anchors: set[str] = field(default_factory=set)

    @property
    def id(self) -> str:
        return self.rule.id

    @property
    def anchors(self) -> set[str]:
        return self._anchors

    # -- matching -----------------------------------------------------------------
    def match_target(self, target: ScanTarget, max_findings: int = 50) -> list[SemgrepFinding]:
        """Return the findings of this rule against a scan target."""
        if self._anchors and not target.contains_any(self._anchors):
            return []
        findings: list[SemgrepFinding] = []
        for parsed in target.parsed_files:
            findings.extend(self._match_file(parsed))
            if len(findings) >= max_findings:
                break
        return findings[:max_findings]

    def _match_file(self, parsed: ParsedFile) -> list[SemgrepFinding]:
        findings: list[SemgrepFinding] = []
        path = parsed.path

        # pattern-not: if any negative pattern matches the file, suppress it
        for negative in self.not_patterns:
            if negative.matches(parsed.index):
                return []

        if self.regex is not None:
            for found in self.regex.finditer(parsed.source):
                line = parsed.source.count("\n", 0, found.start()) + 1
                findings.append(self._finding(path, line))
                break  # one regex finding per file is enough for detection

        # patterns (AND): every pattern must match somewhere in the file
        if self.all_patterns:
            all_results = [p.match_tree(parsed.index, max_matches=5) for p in self.all_patterns]
            if all(all_results):
                first = all_results[0][0]
                findings.append(self._finding(path, first.line, first.bindings))

        # pattern / pattern-either (OR): any single match fires
        for pattern in self.either_patterns:
            results = pattern.match_tree(parsed.index, max_matches=5)
            if results:
                findings.append(self._finding(path, results[0].line, results[0].bindings))

        return findings

    def _finding(self, path: str, line: int, bindings: dict[str, str] | None = None) -> SemgrepFinding:
        metavariables = tuple(sorted((bindings or {}).items()))
        return SemgrepFinding(
            rule_id=self.rule.id,
            path=path,
            line=line,
            message=self.rule.message,
            severity=self.rule.severity,
            metavariables=metavariables,
        )


@dataclass
class CompiledSemgrepRuleSet:
    """A collection of compiled rules scanned together."""

    rules: list[CompiledSemgrepRule] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def rule_ids(self) -> list[str]:
        return [compiled.id for compiled in self.rules]

    def rule(self, rule_id: str) -> CompiledSemgrepRule | None:
        for compiled in self.rules:
            if compiled.id == rule_id:
                return compiled
        return None

    def match_target(self, target: ScanTarget) -> list[SemgrepFinding]:
        findings: list[SemgrepFinding] = []
        for compiled in self.rules:
            findings.extend(compiled.match_target(target))
        return findings

    def match_files(self, name: str, files: Iterable[tuple[str, str]]) -> list[SemgrepFinding]:
        return self.match_target(ScanTarget.from_files(name, files))

    def extend(self, other: "CompiledSemgrepRuleSet") -> "CompiledSemgrepRuleSet":
        merged = CompiledSemgrepRuleSet(list(self.rules))
        existing = set(merged.rule_ids())
        for compiled in other.rules:
            if compiled.id in existing:
                raise SemgrepRuleError("duplicate rule id", rule_id=compiled.id)
            merged.rules.append(compiled)
            existing.add(compiled.id)
        return merged


def compile_rule(rule: SemgrepRule) -> CompiledSemgrepRule:
    """Compile one validated rule into matchers."""
    rule.validate()
    compiled = CompiledSemgrepRule(rule=rule)
    try:
        if rule.pattern:
            compiled.either_patterns.append(Pattern(rule.pattern))
        for entry in rule.pattern_either:
            if not isinstance(entry, dict) or "pattern" not in entry:
                raise SemgrepRuleError(
                    "entries of 'pattern-either' must be mappings with a 'pattern' key",
                    rule_id=rule.id,
                )
            compiled.either_patterns.append(Pattern(entry["pattern"]))
        for entry in rule.patterns:
            if not isinstance(entry, dict):
                raise SemgrepRuleError(
                    "entries of 'patterns' must be mappings", rule_id=rule.id
                )
            if "pattern" in entry:
                compiled.all_patterns.append(Pattern(entry["pattern"]))
            elif "pattern-not" in entry:
                compiled.not_patterns.append(Pattern(entry["pattern-not"]))
            else:
                raise SemgrepRuleError(
                    "entries of 'patterns' must contain 'pattern' or 'pattern-not'",
                    rule_id=rule.id,
                )
        if rule.pattern_not:
            compiled.not_patterns.append(Pattern(rule.pattern_not))
    except SemgrepPatternError as exc:
        raise SemgrepPatternError(exc.reason, pattern=exc.pattern, rule_id=rule.id) from exc

    if rule.pattern_regex:
        try:
            compiled.regex = re.compile(rule.pattern_regex)
        except re.error as exc:
            raise SemgrepPatternError(
                f"invalid pattern-regex: {exc}", pattern=rule.pattern_regex, rule_id=rule.id
            ) from exc

    anchors: set[str] = set()
    for pattern in compiled.either_patterns + compiled.all_patterns:
        pattern_anchors = pattern.anchors()
        if not pattern_anchors:
            anchors = set()
            break
        anchors.update(pattern_anchors)
    compiled._anchors = anchors
    return compiled


def compile_rules(rules: Sequence[SemgrepRule]) -> CompiledSemgrepRuleSet:
    seen: set[str] = set()
    compiled_rules = []
    for rule in rules:
        if rule.id in seen:
            raise SemgrepRuleError("duplicate rule id", rule_id=rule.id)
        seen.add(rule.id)
        compiled_rules.append(compile_rule(rule))
    return CompiledSemgrepRuleSet(compiled_rules)


def compile_yaml(text: str) -> CompiledSemgrepRuleSet:
    """Parse and compile a Semgrep YAML document."""
    return compile_rules(load_rules_yaml(text))


def try_compile(text: str) -> tuple[CompiledSemgrepRuleSet | None, str | None]:
    """Compile YAML, returning ``(ruleset, None)`` or ``(None, error_message)``."""
    try:
        return compile_yaml(text), None
    except Exception as exc:
        return None, str(exc)
