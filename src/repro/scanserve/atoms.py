"""Literal-atom extraction from compiled rules.

Real YARA achieves registry-scale throughput by never running most rules:
it extracts short literal *atoms* from every string, feeds them to an
Aho–Corasick automaton, and only evaluates a rule when one of its atoms
appeared in the scanned data.  This module computes the equivalent atoms for
the two in-repo engines:

* **yarax** — a rule is indexable when its condition provably requires at
  least one string match (:func:`guaranteed_identifiers`) and every string
  that could satisfy that requirement exposes a required literal
  (:meth:`repro.yarax.matcher.CompiledString.atoms`);
* **semgrepx** — a rule is indexable through its pattern anchors (the same
  literals ``match_target`` already prefilters on), or through the required
  literals of a ``pattern-regex``-only rule.

The contract is *soundness*: if a rule would fire on some text, at least one
of its atoms occurs in that text (case-insensitively — the index casefolds
both atoms and haystacks).  Rules for which no such guarantee can be proven
are reported non-indexable and scanned unconditionally in a fallback lane,
so indexed scanning is always bit-for-bit identical to naive scanning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.semgrepx.compiler import CompiledSemgrepRule
from repro.yarax import ast_nodes as ast
from repro.yarax.compiler import CompiledRule
from repro.yarax.matcher import required_literal_runs

YARA = "yara"
SEMGREP = "semgrep"

DEFAULT_MIN_ATOM_LENGTH = 3


@dataclass(frozen=True)
class RuleAtoms:
    """The prefilter atoms of one rule (or the reason it has none).

    ``atoms`` drives candidacy (any-of: a rule becomes a candidate when one
    of its atoms occurs).  ``required_sets`` refines candidacy with all-of
    semantics: the rule can only fire when, for at least one set, *every*
    member occurs in the scanned text.  Each set is one way the rule can
    fire (a ``pattern-either`` alternative, the ``patterns`` conjunction, a
    ``pattern-regex``), so the disjunction over the sets is sound.  Empty
    ``required_sets`` means "no all-of refinement available"."""

    engine: str
    rule_key: str
    atoms: tuple[str, ...] = ()  # casefolded
    indexable: bool = False
    reason: str = ""
    required_sets: tuple[tuple[str, ...], ...] = ()  # casefolded, all-of each


def _resolve_of_identifiers(of_expr: ast.OfExpr, all_identifiers: list[str]) -> list[str]:
    if of_expr.string_set.them:
        return list(all_identifiers)
    resolved: list[str] = []
    for member in of_expr.string_set.members:
        if member.endswith("*"):
            prefix = member[:-1]
            resolved.extend(i for i in all_identifiers if i.startswith(prefix))
        else:
            resolved.append(member)
    return resolved


def _count_comparison_identifier(expr: ast.Comparison) -> Optional[str]:
    """``#a OP k`` forms that imply at least one match of ``$a``, else None."""
    count, literal, op = None, None, expr.op
    if isinstance(expr.left, ast.StringCount) and isinstance(expr.right, ast.IntLiteral):
        count, literal = expr.left, expr.right
    elif isinstance(expr.left, ast.IntLiteral) and isinstance(expr.right, ast.StringCount):
        count, literal = expr.right, expr.left
        op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
    if count is None or literal is None:
        return None
    k = literal.value
    if (op == ">" and k >= 0) or (op == ">=" and k >= 1) or (op == "==" and k >= 1):
        return count.identifier
    return None


def guaranteed_identifiers(
    expr: ast.Expression, all_identifiers: list[str]
) -> Optional[set[str]]:
    """A set of strings of which at least one must match for ``expr`` to hold.

    Returns ``None`` when no such set can be proven (e.g. the condition
    contains ``not``, ``filesize`` arithmetic, or a bare boolean) — those
    rules can fire with zero string matches and must bypass the prefilter.
    """
    if isinstance(expr, ast.StringRef):
        return {expr.identifier}
    if isinstance(expr, ast.AndExpr):
        candidates = [
            s for s in (guaranteed_identifiers(op, all_identifiers) for op in expr.operands)
            if s is not None
        ]
        if not candidates:
            return None
        return min(candidates, key=len)  # any operand's guarantee suffices
    if isinstance(expr, ast.OrExpr):
        union: set[str] = set()
        for operand in expr.operands:
            guaranteed = guaranteed_identifiers(operand, all_identifiers)
            if guaranteed is None:
                return None  # one branch can fire without strings
            union |= guaranteed
        return union or None
    if isinstance(expr, ast.OfExpr):
        if isinstance(expr.quantifier, int) and expr.quantifier < 1:
            return None  # '0 of them' is vacuously true
        identifiers = _resolve_of_identifiers(expr, all_identifiers)
        return set(identifiers) or None
    if isinstance(expr, ast.Comparison):
        identifier = _count_comparison_identifier(expr)
        return {identifier} if identifier is not None else None
    # BoolLiteral / IntLiteral / Filesize / NotExpr / unknown: no guarantee
    return None


def yara_rule_atoms(
    rule: CompiledRule,
    min_length: int = DEFAULT_MIN_ATOM_LENGTH,
    string_atoms: Optional[dict[str, tuple[str, ...]]] = None,
) -> RuleAtoms:
    """Extract the prefilter atoms of one compiled YARA rule.

    ``string_atoms`` maps identifiers to ``CompiledString.atoms(min_length)``
    when the caller already has them, so no string's atoms are derived twice.
    """
    identifiers = [cs.identifier for cs in rule.strings]
    if rule.ast.condition is None:  # pragma: no cover - compiler rejects this
        return RuleAtoms(YARA, rule.name, reason="rule has no condition")
    guaranteed = guaranteed_identifiers(rule.ast.condition, identifiers)
    if guaranteed is None:
        return RuleAtoms(
            YARA, rule.name, reason="condition can hold without any string match"
        )
    by_identifier = {cs.identifier: cs for cs in rule.strings}
    atoms: set[str] = set()
    for identifier in sorted(guaranteed):
        compiled_string = by_identifier.get(identifier)
        if compiled_string is None:  # pragma: no cover - compiler rejects this
            return RuleAtoms(YARA, rule.name, reason=f"undefined string {identifier}")
        if string_atoms is not None:
            literals = string_atoms[identifier]
        else:
            literals = compiled_string.atoms(min_length)
        if not literals:
            return RuleAtoms(
                YARA,
                rule.name,
                reason=f"string {identifier} has no literal atom of length >= {min_length}",
            )
        # one atom per string suffices for the guarantee; keeping the longest
        # (most selective) literal keeps the automaton small
        atoms.add(max(literals, key=len).casefold())
    if not atoms:
        return RuleAtoms(YARA, rule.name, reason="no guaranteed strings")
    return RuleAtoms(YARA, rule.name, atoms=tuple(sorted(atoms)), indexable=True)


def semgrep_rule_atoms(
    rule: CompiledSemgrepRule, min_length: int = DEFAULT_MIN_ATOM_LENGTH
) -> RuleAtoms:
    """Extract the prefilter atoms of one compiled Semgrep rule.

    A rule produces findings through independent firing modes — any single
    ``pattern``/``pattern-either`` alternative, the ``patterns`` conjunction,
    or ``pattern-regex`` — and each mode carries a *required anchor set*:
    literals that must all be present for that mode to match.  Only
    *identifier* anchors (:meth:`~repro.semgrepx.pattern.Pattern.identifier_anchors`)
    and a regex's required literal runs qualify as all-of members — a
    string-constant anchor can be escape-spelled in matching source, so it
    is sound only under the matcher's own any-of prefilter.  A mode with no
    identifier anchors degrades the whole rule to that any-of semantics
    (one singleton set per anchor), mirroring ``match_target`` exactly.

    The rule is indexable when every mode yields a set; one representative
    atom per set (the longest, most selective literal) feeds the automaton,
    and the full sets power the index's all-of gate, which skips structural
    matching on files where no mode's set is fully present.  Anchors keep
    whatever length they have — dropping a short one would break the
    soundness guarantee.
    """
    required: list[tuple[str, ...]] = []
    degraded = False  # some mode has anchors but no sound all-of members
    for pattern in rule.either_patterns:
        if not pattern.anchors():
            return RuleAtoms(
                SEMGREP, rule.id, reason="a pattern alternative exposes no anchors"
            )
        identifiers = pattern.identifier_anchors()
        if identifiers:
            required.append(tuple(sorted({a.casefold() for a in identifiers})))
        else:
            degraded = True
    if rule.all_patterns:
        union_anchors: set[str] = set()
        union_identifiers: set[str] = set()
        for pattern in rule.all_patterns:
            union_anchors.update(pattern.anchors())
            union_identifiers.update(pattern.identifier_anchors())
        if not union_anchors:
            return RuleAtoms(
                SEMGREP, rule.id, reason="'patterns' conjunction exposes no anchors"
            )
        if union_identifiers:
            required.append(tuple(sorted({a.casefold() for a in union_identifiers})))
        else:
            degraded = True
    if rule.rule.pattern_regex:
        runs = [r for r in required_literal_runs(rule.rule.pattern_regex) if r]
        # the longest run becomes the automaton atom, so it must clear
        # min_length; the shorter runs still join the all-of gate for free
        if runs and len(max(runs, key=len)) >= min_length:
            required.append(tuple(sorted({r.casefold() for r in runs})))
        elif rule.anchors:
            degraded = True
        else:
            return RuleAtoms(
                SEMGREP,
                rule.id,
                reason=f"pattern-regex has no required literal of length >= {min_length}",
            )
    if degraded:
        # an ungated mode can fire whenever match_target's own any-of anchor
        # prefilter lets the rule through, so the strongest sound gate left
        # is exactly that prefilter: one singleton set per anchor
        if not rule.anchors:
            return RuleAtoms(SEMGREP, rule.id, reason="patterns expose no anchors")
        required = [(a.casefold(),) for a in sorted(rule.anchors)]
    if not required:
        return RuleAtoms(SEMGREP, rule.id, reason="patterns expose no anchors")
    atoms = tuple(sorted({max(alternative, key=len) for alternative in required}))
    return RuleAtoms(
        SEMGREP,
        rule.id,
        atoms=atoms,
        indexable=True,
        required_sets=tuple(required),
    )
