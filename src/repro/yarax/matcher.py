"""String matching and condition evaluation for compiled YARA rules."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.yarax import ast_nodes as ast
from repro.yarax.errors import YaraCompilationError

# escapes that stand for a character class / anchor rather than one literal char
_NONLITERAL_ESCAPES = set("dDwWsSbBAZ0123456789")
_CONTROL_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", "f": "\f", "v": "\v", "a": "\a"}

# a hex-string jump without its brackets and blanks: ``n``, ``n-m``, ``n-`` or ``-``
_JUMP = re.compile(r"([0-9]+)|([0-9]*)-([0-9]*)")


def _parse_quantifier(pattern: str, index: int) -> tuple[int, int] | None:
    """If a quantifier starts at ``index``, return ``(min_repeats, end_index)``."""
    if index >= len(pattern):
        return None
    char = pattern[index]
    if char in "?*+":
        end = index + 1
        if end < len(pattern) and pattern[end] == "?":  # non-greedy
            end += 1
        return (1 if char == "+" else 0), end
    if char == "{":
        closing = pattern.find("}", index)
        if closing == -1:
            return None
        body = pattern[index + 1 : closing].split(",")[0].strip()
        low = int(body) if body.isdigit() else 0
        end = closing + 1
        if end < len(pattern) and pattern[end] == "?":  # non-greedy
            end += 1
        return low, end
    return None


def _skip_group(pattern: str, index: int) -> int:
    """Return the index just past the group opened at ``pattern[index] == '('``."""
    depth = 0
    while index < len(pattern):
        char = pattern[index]
        if char == "\\":
            index += 2
            continue
        if char == "[":
            index = _skip_class(pattern, index)
            continue
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                return index + 1
        index += 1
    return index


def _skip_class(pattern: str, index: int) -> int:
    """Return the index just past the character class at ``pattern[index] == '['``."""
    index += 1
    if index < len(pattern) and pattern[index] == "^":
        index += 1
    if index < len(pattern) and pattern[index] == "]":  # literal ']' first
        index += 1
    while index < len(pattern):
        char = pattern[index]
        if char == "\\":
            index += 2
            continue
        if char == "]":
            return index + 1
        index += 1
    return index


def required_literal_runs(pattern: str) -> list[str]:
    """Best-effort list of literal substrings every match of ``pattern`` contains.

    This drives atom extraction for the prefilter index
    (:mod:`repro.scanserve`): only *top-level* concatenation is inspected, so
    a returned run is provably present in any match.  Alternation at the top
    level, or a pattern made only of classes/groups/wildcards, yields ``[]``
    ("no guaranteed literal").  Soundness over completeness: an empty answer
    is always safe because callers fall back to unconditional evaluation.
    """
    runs: list[str] = []
    current: list[str] = []

    def flush() -> None:
        if current:
            runs.append("".join(current))
            current.clear()

    index = 0
    length = len(pattern)
    while index < length:
        char = pattern[index]
        if char == "|":  # top-level alternation: nothing is required
            return []
        if char == "(":
            index = _skip_group(pattern, index)
            quant = _parse_quantifier(pattern, index)
            if quant is not None:
                index = quant[1]
            flush()
            continue
        if char == "[":
            index = _skip_class(pattern, index)
            quant = _parse_quantifier(pattern, index)
            if quant is not None:
                index = quant[1]
            flush()
            continue
        if char in ".^$":
            index += 1
            quant = _parse_quantifier(pattern, index)
            if quant is not None:
                index = quant[1]
            flush()
            continue
        literal: str | None
        if char == "\\":
            if index + 1 >= length:
                return []
            escape = pattern[index + 1]
            if escape == "x" and index + 3 < length:
                try:
                    literal = chr(int(pattern[index + 2 : index + 4], 16))
                except ValueError:
                    literal = None
                index += 4
            elif escape in _CONTROL_ESCAPES:
                literal = _CONTROL_ESCAPES[escape]
                index += 2
            elif escape in _NONLITERAL_ESCAPES:
                literal = None
                index += 2
            else:
                literal = escape
                index += 2
        else:
            literal = char
            index += 1
        quant = _parse_quantifier(pattern, index)
        if quant is not None:
            min_repeats, index = quant
            if min_repeats == 0:
                flush()  # optional char: keep what came before, drop the char
                continue
            if literal is not None:
                current.append(literal)
            flush()  # repetition count unknown past the first occurrence
            continue
        if literal is None:
            flush()
        else:
            current.append(literal)
    flush()
    return [run for run in runs if run]


@dataclass(frozen=True)
class StringMatch:
    """One occurrence of one string definition in the scanned data."""

    identifier: str
    offset: int
    matched: str


@dataclass
class RuleMatch:
    """The result of one rule matching the scanned data."""

    rule_name: str
    tags: tuple[str, ...] = ()
    meta: dict[str, object] = field(default_factory=dict)
    string_matches: list[StringMatch] = field(default_factory=list)

    @property
    def matched_identifiers(self) -> set[str]:
        return {m.identifier for m in self.string_matches}


class CompiledString:
    """A string definition compiled into an executable matcher.

    The matcher keeps its pattern's source and flags and compiles the
    ``re.Pattern`` on the first :meth:`search` or :meth:`find`.  Pickling
    carries the source, never the compiled pattern, so a recovered registry
    compiles nothing until a scan probes a string.  Construction still
    compiles, and so validates, regex and hex strings; a text string's
    ``re.escape``-built pattern cannot fail, so it waits for its first probe.
    """

    __slots__ = (
        "definition", "identifier", "_rule_name", "_source", "_flags",
        "_plain_value", "_regex",
    )

    def __init__(self, definition: ast.StringDef, rule_name: str) -> None:
        self.definition = definition
        self.identifier = definition.identifier
        self._rule_name = rule_name
        self._source, self._flags = self._build_pattern(definition)
        self._regex: re.Pattern[str] | None = None
        if definition.kind != ast.TEXT:
            self._compile()
        # a plain text string (no modifiers) matches iff its value occurs as
        # a substring, so existence checks can use C-speed ``in``
        self._plain_value = (
            definition.value
            if definition.kind == ast.TEXT
            and not (set(definition.modifiers) - {"ascii"})
            else None
        )

    # -- pickling ------------------------------------------------------------------
    def __getstate__(self):
        return (self.definition, self._rule_name, self._source, self._flags, self._plain_value)

    def __setstate__(self, state) -> None:
        regex = None
        if isinstance(state, dict):
            # the layout before lazy compilation: an instance ``__dict__``
            # whose ``_regex`` the unpickler has already compiled
            regex = state["_regex"]
            state = (
                state["definition"],
                state["_rule_name"],
                regex.pattern,
                regex.flags,
                state["_plain_value"],
            )
        self.definition, self._rule_name, self._source, self._flags, self._plain_value = state
        self.identifier = self.definition.identifier
        self._regex = regex

    # -- compilation -----------------------------------------------------------
    def _build_pattern(self, definition: ast.StringDef) -> tuple[str, int]:
        """The regex source and flags that implement ``definition``."""
        flags = re.IGNORECASE if "nocase" in definition.modifiers else 0
        if definition.kind == ast.TEXT:
            if definition.value == "":
                raise YaraCompilationError(
                    f"string {definition.identifier} has an empty value", rule_name=self._rule_name
                )
            pattern = re.escape(definition.value)
            if "fullword" in definition.modifiers:
                pattern = rf"(?<!\w){pattern}(?!\w)"
            if "wide" in definition.modifiers and "ascii" not in definition.modifiers:
                # wide strings are UTF-16LE: interleave NUL bytes
                pattern = "\x00?".join(re.escape(ch) for ch in definition.value)
        elif definition.kind == ast.REGEX:
            pattern = definition.value
            if not pattern:
                raise YaraCompilationError(
                    f"string {definition.identifier} has an empty regular expression",
                    rule_name=self._rule_name,
                )
        elif definition.kind == ast.HEX:
            pattern = self._hex_to_regex(definition.value)
        else:  # pragma: no cover - StringDef validates kinds
            raise YaraCompilationError(f"unsupported string kind {definition.kind}")
        return pattern, flags | re.DOTALL

    def _compile(self) -> re.Pattern[str]:
        """The compiled pattern, built into its slot on first use."""
        regex = self._regex
        if regex is None:
            try:
                regex = self._regex = re.compile(self._source, self._flags)
            except (re.error, OverflowError) as exc:
                raise YaraCompilationError(
                    f"invalid regular expression in string {self.identifier}: {exc}",
                    rule_name=self._rule_name,
                ) from exc
        return regex

    def _hex_to_regex(self, hex_body: str) -> str:
        """Translate a hex string body (``AB ?? C? [2-4] [3-]``) into a regex."""
        parts: list[str] = []
        tokens = hex_body.replace("[", " [ ").replace("]", " ] ").split()
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token == "[":
                # jump: [n], [n-m], [n-] or [-]
                try:
                    closing = tokens.index("]", index)
                except ValueError as exc:
                    raise YaraCompilationError(
                        f"unterminated jump in hex string {self.identifier}",
                        rule_name=self._rule_name,
                    ) from exc
                parts.append(self._jump_to_regex("".join(tokens[index + 1 : closing])))
                index = closing + 1
                continue
            if token == "??":
                parts.append(".")
            elif len(token) == 2 and all(c in "0123456789abcdefABCDEF?" for c in token):
                if token[0] == "?":  # ?N: the 16 bytes whose low nibble is N
                    members = "".join(f"\\x{high:x}{token[1]}" for high in range(16))
                    parts.append(f"[{members}]")
                elif token[1] == "?":  # N?: the 16 bytes whose high nibble is N
                    parts.append(f"[\\x{token[0]}0-\\x{token[0]}f]")
                else:
                    parts.append(re.escape(chr(int(token, 16))))
            else:
                raise YaraCompilationError(
                    f"invalid byte {token!r} in hex string {self.identifier}",
                    rule_name=self._rule_name,
                )
            index += 1
        if not parts:
            raise YaraCompilationError(
                f"empty hex string {self.identifier}", rule_name=self._rule_name
            )
        return "".join(parts)

    def _jump_to_regex(self, jump: str) -> str:
        """``n`` -> ``.{n}``, ``n-m`` -> ``.{n,m}``, ``n-`` -> ``.{n,}``, ``-`` -> ``.*``."""
        found = _JUMP.fullmatch(jump)
        if found is not None:
            exact, low, high = found.groups()
            if exact is not None:
                return f".{{{int(exact)}}}"
            if not low and not high:
                return ".*"
            if low and not high:
                return f".{{{int(low)},}}"
            if low and int(low) <= int(high):
                return f".{{{int(low)},{int(high)}}}"
        raise YaraCompilationError(
            f"invalid jump in hex string {self.identifier}", rule_name=self._rule_name
        )

    # -- atoms -------------------------------------------------------------------
    @property
    def case_insensitive(self) -> bool:
        return bool(self._flags & re.IGNORECASE)

    def atoms(self, min_length: int = 3) -> tuple[str, ...]:
        """Literal substrings guaranteed to occur in any match of this string.

        YARA proper extracts short "atoms" from every string and feeds them to
        an Aho–Corasick prefilter; this is the equivalent hook for
        :mod:`repro.scanserve`.  Atoms shorter than ``min_length`` are
        discarded (too unselective to be worth indexing); an empty result
        means "no usable atom — evaluate this string unconditionally".
        """
        runs = required_literal_runs(self._source)
        return tuple(run for run in runs if len(run) >= min_length)

    # -- matching ----------------------------------------------------------------
    def search(self, data: str) -> bool:
        """Whether the string occurs at all (early-exit; no match collection)."""
        if self._plain_value is not None:
            return self._plain_value in data
        return self._compile().search(data) is not None

    def find(self, data: str, max_matches: int = 1000) -> list[StringMatch]:
        matches: list[StringMatch] = []
        for found in self._compile().finditer(data):
            matches.append(StringMatch(self.identifier, found.start(), found.group(0)))
            if len(matches) >= max_matches:
                break
        return matches


class ConditionEvaluator:
    """Evaluate a rule condition given per-string match results."""

    def __init__(
        self,
        matches_by_id: dict[str, list[StringMatch]],
        all_identifiers: list[str],
        data_length: int,
    ) -> None:
        self.matches_by_id = matches_by_id
        self.all_identifiers = all_identifiers
        self.data_length = data_length

    def evaluate(self, expr: ast.Expression) -> bool:
        return bool(self._eval(expr))

    # -- recursive evaluation ------------------------------------------------------
    def _eval(self, expr: ast.Expression):
        if isinstance(expr, ast.BoolLiteral):
            return expr.value
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.Filesize):
            return self.data_length
        if isinstance(expr, ast.StringRef):
            return len(self.matches_by_id.get(expr.identifier, [])) > 0
        if isinstance(expr, ast.StringCount):
            return len(self.matches_by_id.get(expr.identifier, []))
        if isinstance(expr, ast.NotExpr):
            return not self._truthy(self._eval(expr.operand))
        if isinstance(expr, ast.AndExpr):
            return all(self._truthy(self._eval(op)) for op in expr.operands)
        if isinstance(expr, ast.OrExpr):
            return any(self._truthy(self._eval(op)) for op in expr.operands)
        if isinstance(expr, ast.Comparison):
            return self._compare(expr)
        if isinstance(expr, ast.OfExpr):
            return self._eval_of(expr)
        raise YaraCompilationError(f"cannot evaluate expression node {type(expr).__name__}")

    @staticmethod
    def _truthy(value) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value != 0
        return bool(value)

    def _compare(self, expr: ast.Comparison) -> bool:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        left = int(left) if isinstance(left, bool) else left
        right = int(right) if isinstance(right, bool) else right
        if expr.op == "<":
            return left < right
        if expr.op == ">":
            return left > right
        if expr.op == "<=":
            return left <= right
        if expr.op == ">=":
            return left >= right
        if expr.op == "==":
            return left == right
        if expr.op == "!=":
            return left != right
        raise YaraCompilationError(f"unknown comparison operator {expr.op!r}")

    def _eval_of(self, expr: ast.OfExpr) -> bool:
        if expr.string_set.them:
            identifiers = list(self.all_identifiers)
        else:
            identifiers = []
            for member in expr.string_set.members:
                if member.endswith("*"):
                    prefix = member[:-1]
                    identifiers.extend(i for i in self.all_identifiers if i.startswith(prefix))
                else:
                    identifiers.append(member)
        matched = sum(1 for identifier in identifiers if self.matches_by_id.get(identifier))
        total = len(identifiers)
        if expr.quantifier == "any":
            return matched >= 1
        if expr.quantifier == "all":
            return total > 0 and matched == total
        return matched >= int(expr.quantifier)
