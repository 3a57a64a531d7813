"""The Semgrep-lite pattern language.

A pattern is a fragment of Python source that may contain *metavariables*
(``$X``, ``$CMD``) and the *ellipsis* operator (``...``).  Matching is
structural against the target's AST:

* a metavariable matches any expression node; repeated occurrences of the
  same metavariable must bind to structurally identical subtrees;
* ``...`` inside a call's arguments matches any (possibly empty) run of
  arguments; as a standalone expression it matches anything;
* literals, names and attribute chains must match exactly;
* keyword arguments present in the pattern must be present in the target
  (the target may carry extra keywords, as in Semgrep).

An expression pattern matches any expression node anywhere in the file; a
statement pattern matches statements.  ``anchors()`` exposes the dotted call
names and string literals a match necessarily requires, which the matcher
uses to skip files that cannot possibly match.

Matching runs over a :class:`TreeIndex`: one ``ast.walk`` of a parsed file
groups its calls by callee, and a ``Call`` pattern with a concrete callee
visits only the calls to that callee.
"""

from __future__ import annotations

import ast
import re
import threading
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.semgrepx.errors import SemgrepPatternError

_METAVAR_RE = re.compile(r"\$([A-Z][A-Z0-9_]*)")
_MV_PREFIX = "__semgrep_mv_"
_ELLIPSIS_NAME = "__semgrep_ellipsis__"
_ELLIPSIS_KWARGS = "__semgrep_ellipsis_kwargs__"

# CPython 3.11's AST converter keeps its recursion-depth counter in
# process-wide state, and a garbage collection in the middle of a conversion
# can switch threads, so two threads inside ast.parse at once can fail with
# "SystemError: AST constructor recursion depth mismatch".  The lock is
# process-wide because the state it guards is.
_AST_PARSE_LOCK = threading.Lock()


def parse_python(source: str) -> ast.Module:
    """``ast.parse`` serialised across threads (see ``_AST_PARSE_LOCK``)."""
    with _AST_PARSE_LOCK:
        return ast.parse(source)


def _encode_pattern_text(text: str) -> str:
    """Rewrite metavariables and ellipses into parseable placeholders."""
    encoded = _METAVAR_RE.sub(lambda m: _MV_PREFIX + m.group(1), text)
    return encoded


def _encode_trailing_call_ellipsis(text: str) -> str:
    """Fallback encoding for ``f(kw=$X, ...)`` style patterns.

    Python forbids a positional argument after keyword arguments, so a
    trailing ``...`` in that position cannot be parsed directly.  Semgrep
    permits it (meaning "and any further arguments"), which we model by
    rewriting it into a ``**kwargs``-style wildcard the matcher understands.
    """
    return re.sub(r"\.\.\.(\s*[,)])", rf"**{_ELLIPSIS_KWARGS}\1", text)


def _is_metavar(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name) and node.id.startswith(_MV_PREFIX):
        return node.id[len(_MV_PREFIX):]
    return None


def _is_ellipsis(node: ast.AST) -> bool:
    if isinstance(node, ast.Expr):
        node = node.value
    return isinstance(node, ast.Constant) and node.value is Ellipsis


def _callee_name(func: ast.AST) -> Optional[str]:
    """The last name segment of a call's callee: ``f`` or ``post`` of ``requests.post``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class TreeIndex:
    """The nodes of one parsed file, grouped by one ``ast.walk``.

    ``expressions`` holds every expression node, ``calls_by_callee`` the
    ``Call`` nodes by :func:`_callee_name`, and ``blocks`` every statement
    list (module and function bodies, ``else``/``finally`` branches).  Every
    list keeps ``ast.walk`` order, so a pattern that scans only the group its
    root can match finds the same matches, in the same order, as a walk of
    the tree.
    """

    __slots__ = ("expressions", "calls_by_callee", "blocks")

    def __init__(self, tree: ast.AST) -> None:
        self.expressions: list[ast.expr] = []
        self.calls_by_callee: dict[str, list[ast.expr]] = {}
        self.blocks: list[list[ast.stmt]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.expr):
                self.expressions.append(node)
                if type(node) is ast.Call:
                    callee = _callee_name(node.func)
                    if callee is not None:
                        self.calls_by_callee.setdefault(callee, []).append(node)
                continue
            # no expression node holds a statement list
            for field_name in ("body", "orelse", "finalbody"):
                block = getattr(node, field_name, None)
                if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                    self.blocks.append(block)


@dataclass
class MatchResult:
    """A successful pattern match with its metavariable bindings."""

    bindings: dict[str, str] = field(default_factory=dict)
    node: ast.AST | None = None

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


class Pattern:
    """A compiled Semgrep-lite pattern."""

    def __init__(self, text: str) -> None:
        self.text = text
        if not text or not text.strip():
            raise SemgrepPatternError("pattern is empty", pattern=text)
        encoded = _encode_pattern_text(text.strip())
        self._nodes = self._parse(encoded)
        self.is_expression = len(self._nodes) == 1 and isinstance(self._nodes[0], ast.Expr)

    # -- parsing -----------------------------------------------------------------
    def _parse(self, encoded: str) -> list[ast.stmt]:
        try:
            module = parse_python(encoded)
        except SyntaxError as first_error:
            # Retry with Semgrep's "trailing ellipsis after keyword arguments"
            # form rewritten into a parseable wildcard.
            retry = _encode_trailing_call_ellipsis(encoded)
            if retry != encoded:
                try:
                    module = parse_python(retry)
                except SyntaxError:
                    module = None
            else:
                module = None
            if module is None:
                raise SemgrepPatternError(
                    f"pattern is not valid Python syntax ({first_error.msg})", pattern=self.text
                ) from first_error
        if not module.body:
            raise SemgrepPatternError("pattern contains no statements", pattern=self.text)
        return module.body

    # -- anchors --------------------------------------------------------------------
    def anchors(self) -> set[str]:
        """Names/attribute-paths/strings that any match must contain.

        Used as a fast pre-filter: if none of a pattern's anchors appear in a
        file's text, structural matching cannot succeed and is skipped.
        Patterns made only of metavariables/ellipses return an empty set
        (meaning "no cheap pre-filter available").
        """
        found = self.identifier_anchors()
        for root in self._nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    # "$URL" is a wildcard, not text the file must contain
                    if len(node.value) >= 4 and not node.value.startswith(_MV_PREFIX):
                        found.add(node.value)
        return found

    def identifier_anchors(self) -> set[str]:
        """The anchors guaranteed to appear *literally* in matching source.

        Identifiers (names, attribute segments) are spelled out wherever
        they are used, so each one is individually required in the text of
        any match — safe for all-of prefilter gates.  String constants are
        excluded: a source file can spell ``"evil"`` as ``"\\x65vil"`` and
        still match the pattern's AST, so a string anchor is only sound
        under the any-of semantics of :meth:`anchors`.
        """
        found: set[str] = set()
        for root in self._nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Attribute):
                    dotted = _dotted_name(node)
                    if dotted and not dotted.startswith(_MV_PREFIX):
                        found.add(dotted.split(".")[-1])
                elif isinstance(node, ast.Name):
                    if not node.id.startswith(_MV_PREFIX) and node.id != _ELLIPSIS_NAME:
                        found.add(node.id)
        return found

    # -- matching ----------------------------------------------------------------------
    def match_tree(
        self, tree: Union[ast.AST, TreeIndex], max_matches: int = 200
    ) -> list[MatchResult]:
        """Match this pattern against every candidate node of a parsed file.

        ``tree`` is the file's :class:`TreeIndex`, or a bare tree to index.
        """
        index = tree if isinstance(tree, TreeIndex) else TreeIndex(tree)
        results: list[MatchResult] = []
        if self.is_expression:
            pattern_expr = self._nodes[0].value  # type: ignore[attr-defined]
            for node in self._candidates(pattern_expr, index):
                bindings: dict[str, str] = {}
                if self._match_node(pattern_expr, node, bindings):
                    results.append(MatchResult(bindings=bindings, node=node))
                    if len(results) >= max_matches:
                        return results
        else:
            # statement (or multi-statement) pattern: try to match the sequence
            # starting at every statement position of every block.
            for block in index.blocks:
                for start in range(len(block)):
                    bindings = {}
                    if self._match_statements(self._nodes, block[start:], bindings):
                        results.append(MatchResult(bindings=bindings, node=block[start]))
                        if len(results) >= max_matches:
                            return results
        return results

    def matches(self, tree: Union[ast.AST, TreeIndex]) -> bool:
        return bool(self.match_tree(tree, max_matches=1))

    @staticmethod
    def _candidates(root: ast.expr, index: TreeIndex) -> list[ast.expr]:
        """The nodes of ``index`` that ``_match_node(root, ...)`` may accept.

        A ``Call`` with a concrete callee can match only calls to that
        callee; every other root is tried against every expression.
        """
        if isinstance(root, ast.Call) and _is_metavar(root.func) is None:
            callee = _callee_name(root.func)
            if callee is not None:
                return index.calls_by_callee.get(callee, [])
        return index.expressions

    # -- node-level matching --------------------------------------------------------------
    def _match_statements(self, pattern_stmts: list[ast.stmt], target_stmts: list[ast.stmt],
                          bindings: dict[str, str]) -> bool:
        if not pattern_stmts:
            return True
        head, *rest = pattern_stmts
        if _is_ellipsis(head):
            # ellipsis statement: skip any number of target statements
            for skip in range(len(target_stmts) + 1):
                trial = dict(bindings)
                if self._match_statements(rest, target_stmts[skip:], trial):
                    bindings.update(trial)
                    return True
            return False
        if not target_stmts:
            return False
        trial = dict(bindings)
        if self._match_node(head, target_stmts[0], trial):
            if self._match_statements(rest, target_stmts[1:], trial):
                bindings.update(trial)
                return True
        return False

    def _match_node(self, pattern: ast.AST, target: ast.AST, bindings: dict[str, str]) -> bool:
        # metavariable: bind to anything (consistently)
        metavar = _is_metavar(pattern)
        if metavar is not None:
            rendered = ast.dump(target)
            if metavar in bindings:
                return bindings[metavar] == rendered
            bindings[metavar] = rendered
            return True
        # ellipsis as an expression matches anything
        if isinstance(pattern, ast.Constant) and pattern.value is Ellipsis:
            return True
        # string-literal wildcards: "$URL" binds to any string, "..." matches any string
        if isinstance(pattern, ast.Constant) and isinstance(pattern.value, str):
            if pattern.value.startswith(_MV_PREFIX):
                if isinstance(target, ast.Constant) and isinstance(target.value, str):
                    metavar_name = pattern.value[len(_MV_PREFIX):]
                    if metavar_name in bindings:
                        return bindings[metavar_name] == target.value
                    bindings[metavar_name] = target.value
                    return True
                return False
            if pattern.value == "...":
                return isinstance(target, ast.Constant) and isinstance(target.value, str)
        # Expr wrappers: unwrap so expression patterns match expression statements
        if isinstance(pattern, ast.Expr) and isinstance(target, ast.Expr):
            return self._match_node(pattern.value, target.value, bindings)
        if type(pattern) is not type(target):
            return False
        if isinstance(pattern, ast.Call):
            return self._match_call(pattern, target, bindings)
        if isinstance(pattern, ast.Attribute):
            return (pattern.attr == target.attr
                    and self._match_node(pattern.value, target.value, bindings))
        if isinstance(pattern, ast.Name):
            return pattern.id == target.id
        if isinstance(pattern, ast.Constant):
            return pattern.value == target.value
        if isinstance(pattern, ast.Assign):
            if len(pattern.targets) != len(target.targets):
                return False
            return all(
                self._match_node(p, t, bindings)
                for p, t in zip(pattern.targets, target.targets)
            ) and self._match_node(pattern.value, target.value, bindings)
        if isinstance(pattern, (ast.Import, ast.ImportFrom)):
            return self._match_import(pattern, target)
        # generic structural comparison over child fields
        return self._match_generic(pattern, target, bindings)

    def _match_call(self, pattern: ast.Call, target: ast.Call, bindings: dict[str, str]) -> bool:
        if not self._match_node(pattern.func, target.func, bindings):
            return False
        # a '**__semgrep_ellipsis_kwargs__' wildcard permits any extra arguments
        keywords = list(pattern.keywords)
        open_ended = False
        for index, keyword in enumerate(keywords):
            if keyword.arg is None and isinstance(keyword.value, ast.Name) \
                    and keyword.value.id == _ELLIPSIS_KWARGS:
                open_ended = True
                keywords.pop(index)
                break
        if open_ended:
            args_pattern = list(pattern.args) + [ast.Constant(value=Ellipsis)]
        else:
            args_pattern = list(pattern.args)
        if not self._match_arg_list(args_pattern, target.args, bindings):
            return False
        # every pattern keyword must appear in the target (extra target kwargs allowed)
        for pattern_kw in keywords:
            for target_kw in target.keywords:
                if pattern_kw.arg != target_kw.arg:
                    continue
                trial = dict(bindings)
                if self._match_node(pattern_kw.value, target_kw.value, trial):
                    bindings.update(trial)
                    break
            else:
                return False
        return True

    def _match_arg_list(self, pattern_args: list[ast.expr], target_args: list[ast.expr],
                        bindings: dict[str, str]) -> bool:
        if not pattern_args:
            return not target_args
        head, *rest = pattern_args
        if isinstance(head, ast.Constant) and head.value is Ellipsis:
            for skip in range(len(target_args) + 1):
                trial = dict(bindings)
                if self._match_arg_list(rest, target_args[skip:], trial):
                    bindings.update(trial)
                    return True
            return False
        if not target_args:
            return False
        trial = dict(bindings)
        if self._match_node(head, target_args[0], trial) and self._match_arg_list(
            rest, target_args[1:], trial
        ):
            bindings.update(trial)
            return True
        return False

    @staticmethod
    def _match_import(pattern: ast.AST, target: ast.AST) -> bool:
        if isinstance(pattern, ast.Import) and isinstance(target, ast.Import):
            pattern_names = {alias.name for alias in pattern.names}
            target_names = {alias.name for alias in target.names}
            return pattern_names.issubset(target_names)
        if isinstance(pattern, ast.ImportFrom) and isinstance(target, ast.ImportFrom):
            if pattern.module != target.module:
                return False
            pattern_names = {alias.name for alias in pattern.names}
            target_names = {alias.name for alias in target.names}
            return pattern_names.issubset(target_names)
        return False

    def _match_generic(self, pattern: ast.AST, target: ast.AST, bindings: dict[str, str]) -> bool:
        for field_name, pattern_value in ast.iter_fields(pattern):
            if field_name in ("lineno", "col_offset", "end_lineno", "end_col_offset", "ctx",
                              "type_comment"):
                continue
            target_value = getattr(target, field_name, None)
            if isinstance(pattern_value, ast.AST):
                if not isinstance(target_value, ast.AST):
                    return False
                if not self._match_node(pattern_value, target_value, bindings):
                    return False
            elif isinstance(pattern_value, list):
                if not isinstance(target_value, list):
                    return False
                if any(isinstance(item, ast.stmt) for item in pattern_value):
                    if not self._match_statements(pattern_value, target_value, bindings):
                        return False
                else:
                    if len(pattern_value) != len(target_value):
                        return False
                    for p_item, t_item in zip(pattern_value, target_value):
                        if isinstance(p_item, ast.AST):
                            if not self._match_node(p_item, t_item, bindings):
                                return False
                        elif p_item != t_item:
                            return False
            else:
                if pattern_value != target_value:
                    return False
        return True


def _dotted_name(node: ast.AST) -> str:
    """Render an attribute chain like ``requests.post`` (empty if not simple)."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""
