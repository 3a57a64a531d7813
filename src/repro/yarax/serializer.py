"""Serialisation of YARA rules back to source text, plus a builder API.

The simulated LLM composes rules programmatically with
:class:`YaraRuleBuilder` and then *serialises them to text*, because the
pipeline's contract (and the paper's) is that rules are plain ``.yar`` files
deployable in existing tools.  The serialised text is what gets compiled,
aligned, stored and evaluated -- keeping the round trip honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.yarax import ast_nodes as ast
from repro.utils.text import safe_identifier


def _escape_text(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return escaped


def _serialize_meta_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f'"{_escape_text(str(value))}"'


def _serialize_expression(expr: ast.Expression) -> str:
    if isinstance(expr, ast.BoolLiteral):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.IntLiteral):
        return str(expr.value)
    if isinstance(expr, ast.Filesize):
        return "filesize"
    if isinstance(expr, ast.StringRef):
        return expr.identifier
    if isinstance(expr, ast.StringCount):
        return "#" + expr.identifier[1:]
    if isinstance(expr, ast.NotExpr):
        return f"not ({_serialize_expression(expr.operand)})"
    if isinstance(expr, ast.AndExpr):
        return " and ".join(_wrap(op) for op in expr.operands)
    if isinstance(expr, ast.OrExpr):
        return " or ".join(_wrap(op) for op in expr.operands)
    if isinstance(expr, ast.Comparison):
        return f"{_serialize_expression(expr.left)} {expr.op} {_serialize_expression(expr.right)}"
    if isinstance(expr, ast.OfExpr):
        quantifier = str(expr.quantifier)
        if expr.string_set.them:
            return f"{quantifier} of them"
        members = ", ".join(expr.string_set.members)
        return f"{quantifier} of ({members})"
    raise TypeError(f"cannot serialise expression node {type(expr).__name__}")


def _wrap(expr: ast.Expression) -> str:
    text = _serialize_expression(expr)
    if isinstance(expr, (ast.AndExpr, ast.OrExpr)):
        return f"({text})"
    return text


def serialize_rule(rule: ast.RuleAst) -> str:
    """Render a rule AST as canonical YARA source text."""
    lines: list[str] = []
    header = f"rule {rule.name}"
    if rule.tags:
        header += " : " + " ".join(rule.tags)
    lines.append(header)
    lines.append("{")
    if rule.meta:
        lines.append("    meta:")
        for key, value in rule.meta.items():
            lines.append(f"        {key} = {_serialize_meta_value(value)}")
    if rule.strings:
        lines.append("    strings:")
        for definition in rule.strings:
            lines.append("        " + _serialize_string(definition))
    condition_text = _serialize_expression(rule.condition) if rule.condition is not None else ""
    lines.append("    condition:")
    lines.append(f"        {condition_text}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _serialize_string(definition: ast.StringDef) -> str:
    if definition.kind == ast.TEXT:
        value = f'"{_escape_text(definition.value)}"'
    elif definition.kind == ast.REGEX:
        value = f"/{definition.value}/"
    else:
        value = "{ " + definition.value + " }"
    modifiers = (" " + " ".join(definition.modifiers)) if definition.modifiers else ""
    return f"{definition.identifier} = {value}{modifiers}"


@dataclass
class YaraRuleBuilder:
    """Fluent builder used by the rule-synthesis stage."""

    name: str
    tags: list[str] = field(default_factory=list)
    _meta: dict[str, object] = field(default_factory=dict)
    _strings: list[ast.StringDef] = field(default_factory=list)
    _condition: ast.Expression | None = None

    def __post_init__(self) -> None:
        self.name = safe_identifier(self.name)

    # -- meta -----------------------------------------------------------------
    def meta(self, key: str, value: object) -> "YaraRuleBuilder":
        self._meta[key] = value
        return self

    # -- strings ----------------------------------------------------------------
    def _next_identifier(self, prefix: str) -> str:
        return f"${prefix}{len(self._strings)}"

    def text_string(self, value: str, prefix: str = "s", nocase: bool = False,
                    fullword: bool = False) -> "YaraRuleBuilder":
        modifiers = tuple(
            modifier for modifier, enabled in (("nocase", nocase), ("fullword", fullword)) if enabled
        )
        self._strings.append(
            ast.StringDef(self._next_identifier(prefix), ast.TEXT, value, modifiers)
        )
        return self

    def regex_string(self, pattern: str, prefix: str = "re") -> "YaraRuleBuilder":
        self._strings.append(ast.StringDef(self._next_identifier(prefix), ast.REGEX, pattern))
        return self

    def hex_string(self, body: str, prefix: str = "h") -> "YaraRuleBuilder":
        self._strings.append(ast.StringDef(self._next_identifier(prefix), ast.HEX, body))
        return self

    @property
    def string_identifiers(self) -> list[str]:
        return [definition.identifier for definition in self._strings]

    @property
    def string_count(self) -> int:
        return len(self._strings)

    # -- condition ---------------------------------------------------------------
    def condition_any_of_them(self) -> "YaraRuleBuilder":
        self._condition = ast.OfExpr("any", ast.StringSet(them=True))
        return self

    def condition_n_of_them(self, n: int) -> "YaraRuleBuilder":
        self._condition = ast.OfExpr(int(n), ast.StringSet(them=True))
        return self

    # -- output -------------------------------------------------------------------
    def build_ast(self) -> ast.RuleAst:
        condition = self._condition
        if condition is None:
            condition = ast.OfExpr("any", ast.StringSet(them=True))
        return ast.RuleAst(
            name=self.name,
            tags=tuple(self.tags),
            meta=dict(self._meta),
            strings=list(self._strings),
            condition=condition,
        )

    def to_source(self) -> str:
        return serialize_rule(self.build_ast())
