"""Abstract syntax tree for YARA rules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

# -- string definitions -------------------------------------------------------

TEXT = "text"
REGEX = "regex"
HEX = "hex"

_VALID_MODIFIERS = {"nocase", "wide", "ascii", "fullword"}


@dataclass
class StringDef:
    """One entry of a rule's ``strings:`` section."""

    identifier: str
    kind: str
    value: str
    modifiers: tuple[str, ...] = ()
    line: int | None = None

    def __post_init__(self) -> None:
        if not self.identifier.startswith("$"):
            raise ValueError(f"string identifier must start with '$': {self.identifier}")
        if self.kind not in (TEXT, REGEX, HEX):
            raise ValueError(f"unknown string kind: {self.kind}")
        unknown = set(self.modifiers) - _VALID_MODIFIERS
        if unknown:
            raise ValueError(f"unknown string modifiers: {sorted(unknown)}")


# -- condition expression nodes ------------------------------------------------

@dataclass
class StringRef:
    """``$a`` -- true when the string has at least one match."""

    identifier: str


@dataclass
class StringCount:
    """``#a`` -- the number of matches of string ``$a``."""

    identifier: str


@dataclass
class IntLiteral:
    value: int


@dataclass
class Filesize:
    """``filesize`` -- length of the scanned data in bytes."""


@dataclass
class BoolLiteral:
    value: bool


@dataclass
class Comparison:
    """Integer comparison, e.g. ``#a > 2`` or ``filesize < 10000``."""

    left: "Expression"
    op: str
    right: "Expression"


@dataclass
class NotExpr:
    operand: "Expression"


@dataclass
class AndExpr:
    operands: list["Expression"] = field(default_factory=list)


@dataclass
class OrExpr:
    operands: list["Expression"] = field(default_factory=list)


@dataclass
class StringSet:
    """A string set: ``them`` or ``($a, $b*, ...)``."""

    them: bool = False
    members: tuple[str, ...] = ()  # identifiers, possibly ending with '*'


@dataclass
class OfExpr:
    """``any of them``, ``all of them``, ``2 of ($a*)`` ..."""

    quantifier: Union[int, str]  # int, "any" or "all"
    string_set: StringSet = field(default_factory=lambda: StringSet(them=True))


Expression = Union[
    StringRef,
    StringCount,
    IntLiteral,
    Filesize,
    BoolLiteral,
    Comparison,
    NotExpr,
    AndExpr,
    OrExpr,
    OfExpr,
]


# -- rule ------------------------------------------------------------------------

@dataclass
class RuleAst:
    """A parsed YARA rule."""

    name: str
    tags: tuple[str, ...] = ()
    meta: dict[str, object] = field(default_factory=dict)
    strings: list[StringDef] = field(default_factory=list)
    condition: Expression | None = None
    line: int | None = None

    def string(self, identifier: str) -> StringDef | None:
        for entry in self.strings:
            if entry.identifier == identifier:
                return entry
        return None

    def string_identifiers(self) -> list[str]:
        return [entry.identifier for entry in self.strings]


def walk_expression(expr: Expression):
    """Yield every node of a condition expression tree (pre-order)."""
    yield expr
    if isinstance(expr, (AndExpr, OrExpr)):
        for operand in expr.operands:
            yield from walk_expression(operand)
    elif isinstance(expr, NotExpr):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, Comparison):
        yield from walk_expression(expr.left)
        yield from walk_expression(expr.right)


def referenced_strings(expr: Expression) -> set[str]:
    """Return the identifiers of all strings referenced *exactly* by a condition.

    Wildcard members of an ``of`` string set (``$net*``) are not returned
    here; they are validated separately because they refer to a prefix, not a
    single definition.
    """
    referenced: set[str] = set()
    for node in walk_expression(expr):
        if isinstance(node, (StringRef, StringCount)):
            referenced.add(node.identifier)
        elif isinstance(node, OfExpr) and not node.string_set.them:
            for member in node.string_set.members:
                if not member.endswith("*"):
                    referenced.add(member)
    return referenced


def wildcard_references(expr: Expression) -> set[str]:
    """Return the wildcard prefixes (without the ``*``) used in ``of`` sets."""
    prefixes: set[str] = set()
    for node in walk_expression(expr):
        if isinstance(node, OfExpr) and not node.string_set.them:
            for member in node.string_set.members:
                if member.endswith("*"):
                    prefixes.add(member[:-1])
    return prefixes


def uses_them(expr: Expression) -> bool:
    """Return True if the condition contains an ``of them`` expression."""
    return any(isinstance(node, OfExpr) and node.string_set.them for node in walk_expression(expr))


def has_of_expression(expr: Expression) -> bool:
    """Return True if the condition contains any ``of`` expression."""
    return any(isinstance(node, OfExpr) for node in walk_expression(expr))
