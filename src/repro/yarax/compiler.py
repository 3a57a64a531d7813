"""Compilation of parsed YARA rules into executable matchers.

Compilation performs the semantic checks real YARA performs -- undefined
string references, unreferenced strings, missing conditions, duplicate rule
names, invalid regular expressions and hex strings -- and raises
:class:`~repro.yarax.errors.YaraCompilationError` with ``yarac``-style
messages.  Those messages are exactly what the alignment agent feeds back to
the LLM (paper Section IV-C, Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.yarax import ast_nodes as ast
from repro.yarax.errors import YaraCompilationError
from repro.yarax.matcher import CompiledString, ConditionEvaluator, RuleMatch
from repro.yarax.parser import parse_source


@dataclass
class CompiledRule:
    """One rule compiled into executable string matchers plus a condition."""

    ast: ast.RuleAst
    strings: list[CompiledString] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.ast.name

    @property
    def meta(self) -> dict[str, object]:
        return self.ast.meta

    @property
    def tags(self) -> tuple[str, ...]:
        return self.ast.tags

    def match(self, data: str) -> RuleMatch | None:
        """Scan ``data`` and return a :class:`RuleMatch` if the rule fires."""
        matches_by_id = {cs.identifier: cs.find(data) for cs in self.strings}
        evaluator = ConditionEvaluator(
            matches_by_id=matches_by_id,
            all_identifiers=[cs.identifier for cs in self.strings],
            data_length=len(data),
        )
        if not evaluator.evaluate(self.ast.condition):
            return None
        string_matches = [m for matches in matches_by_id.values() for m in matches]
        return RuleMatch(
            rule_name=self.name,
            tags=self.tags,
            meta=dict(self.meta),
            string_matches=string_matches,
        )


@dataclass
class CompiledRuleSet:
    """A collection of compiled rules scanned together."""

    rules: list[CompiledRule] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def rule(self, name: str) -> CompiledRule | None:
        for compiled in self.rules:
            if compiled.name == name:
                return compiled
        return None

    def rule_names(self) -> list[str]:
        return [compiled.name for compiled in self.rules]

    def match(self, data: str) -> list[RuleMatch]:
        """Return the matches of every rule that fires on ``data``."""
        results = []
        for compiled in self.rules:
            found = compiled.match(data)
            if found is not None:
                results.append(found)
        return results

    def extend(self, other: "CompiledRuleSet") -> "CompiledRuleSet":
        """Return a new rule set containing this set's rules plus ``other``'s."""
        merged = CompiledRuleSet(list(self.rules))
        existing = set(merged.rule_names())
        for compiled in other.rules:
            if compiled.name in existing:
                raise YaraCompilationError(f"duplicated rule name \"{compiled.name}\"")
            merged.rules.append(compiled)
            existing.add(compiled.name)
        return merged


def compile_rules(rule_asts: Sequence[ast.RuleAst]) -> CompiledRuleSet:
    """Compile already-parsed rules, running all semantic checks."""
    seen_names: set[str] = set()
    compiled_rules: list[CompiledRule] = []
    for rule_ast in rule_asts:
        if rule_ast.name in seen_names:
            raise YaraCompilationError(f"duplicated rule identifier \"{rule_ast.name}\"")
        seen_names.add(rule_ast.name)
        compiled_rules.append(_compile_one(rule_ast))
    return CompiledRuleSet(compiled_rules)


def compile_source(source: str) -> CompiledRuleSet:
    """Parse and compile YARA source text."""
    return compile_rules(parse_source(source))


def _compile_one(rule_ast: ast.RuleAst) -> CompiledRule:
    name = rule_ast.name
    if rule_ast.condition is None:
        raise YaraCompilationError("missing condition section", rule_name=name)
    if not rule_ast.strings and _condition_needs_strings(rule_ast.condition):
        raise YaraCompilationError("missing strings section", rule_name=name)

    identifiers = rule_ast.string_identifiers()
    duplicates = {i for i in identifiers if identifiers.count(i) > 1}
    if duplicates:
        raise YaraCompilationError(
            f"duplicated string identifier \"{sorted(duplicates)[0]}\"", rule_name=name
        )

    referenced = ast.referenced_strings(rule_ast.condition)
    defined = set(identifiers)
    undefined = sorted(referenced - defined)
    if undefined:
        raise YaraCompilationError(
            f"undefined string \"{undefined[0]}\" in condition", rule_name=name
        )
    for prefix in sorted(ast.wildcard_references(rule_ast.condition)):
        if not any(identifier.startswith(prefix) for identifier in defined):
            raise YaraCompilationError(
                f"undefined string \"{prefix}*\" in condition", rule_name=name
            )
    if defined and not referenced and not ast.has_of_expression(rule_ast.condition):
        unused = sorted(defined)[0]
        raise YaraCompilationError(
            f"unreferenced string \"{unused}\" (no string is used by the condition)",
            rule_name=name,
        )

    compiled_strings = [CompiledString(definition, name) for definition in rule_ast.strings]
    return CompiledRule(ast=rule_ast, strings=compiled_strings)


def _condition_needs_strings(condition: ast.Expression) -> bool:
    """True when the condition references strings (directly or via 'of them')."""
    if ast.referenced_strings(condition):
        return True
    return ast.uses_them(condition)


def try_compile(source: str) -> tuple[CompiledRuleSet | None, str | None]:
    """Compile source, returning ``(ruleset, None)`` or ``(None, error_message)``.

    This is the "tool interface" the alignment agent calls (paper Figure 4):
    a successful compilation returns the rule set; a failure returns the
    compiler's error message for the LLM to act on.
    """
    try:
        return compile_source(source), None
    except Exception as exc:  # YaraError subclasses carry the message
        return None, str(exc)
