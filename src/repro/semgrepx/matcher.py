"""Scanning targets and findings for the Semgrep-lite engine.

A :class:`ScanTarget` wraps one package (or an arbitrary set of source
files), parses every Python file once, and builds a cheap text index used to
skip rules whose anchors cannot possibly be present.  Each parsed file also
indexes its tree (:class:`~repro.semgrepx.pattern.TreeIndex`) on first use,
shared by every pattern of every rule.  Rule sets then match
against the target; results are :class:`SemgrepFinding` records.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.corpus.package import Package
from repro.semgrepx.pattern import TreeIndex, parse_python


@dataclass(frozen=True)
class SemgrepFinding:
    """One rule firing at one location."""

    rule_id: str
    path: str
    line: int
    message: str
    severity: str = "WARNING"
    metavariables: tuple[tuple[str, str], ...] = ()


@dataclass
class ParsedFile:
    """A source file parsed for structural matching."""

    path: str
    source: str
    tree: Optional[ast.AST]
    _index: Optional[TreeIndex] = field(default=None, repr=False, compare=False)

    @property
    def index(self) -> TreeIndex:
        """The parsed tree's node index, built by one walk on first use."""
        if self._index is None:
            self._index = TreeIndex(self.tree)
        return self._index

    def __getstate__(self) -> dict:
        # process shards receive prepared packages pickled; the index only
        # regroups the tree's nodes, so it is rebuilt there, not shipped
        return {**self.__dict__, "_index": None}


@dataclass
class ScanTarget:
    """A set of source files prepared for repeated rule matching."""

    name: str
    files: list[ParsedFile] = field(default_factory=list)
    _haystack: str = ""
    _folded: Optional[str] = None
    _parsed: Optional[list[ParsedFile]] = None

    @classmethod
    def from_files(cls, name: str, files: Iterable[tuple[str, str]]) -> "ScanTarget":
        parsed: list[ParsedFile] = []
        texts: list[str] = []
        for path, source in files:
            tree: Optional[ast.AST]
            try:
                tree = parse_python(source)
            except (SyntaxError, ValueError):
                tree = None
            parsed.append(ParsedFile(path=path, source=source, tree=tree))
            texts.append(source)
        return cls(name=name, files=parsed, _haystack="\n".join(texts))

    @classmethod
    def from_package(cls, package: Package) -> "ScanTarget":
        """Build a target from a package's Python source files."""
        return cls.from_files(
            package.identifier,
            ((f.path, f.content) for f in package.files if f.is_python),
        )

    # -- pre-filtering ------------------------------------------------------------
    def contains_any(self, anchors: Iterable[str]) -> bool:
        """True when at least one anchor substring occurs in the target's text."""
        anchors = list(anchors)
        if not anchors:
            return True
        return any(anchor in self._haystack for anchor in anchors)

    @property
    def parsed_files(self) -> list[ParsedFile]:
        """The files that parsed, listed once and shared by every rule."""
        if self._parsed is None:
            self._parsed = [f for f in self.files if f.tree is not None]
        return self._parsed

    @property
    def text(self) -> str:
        return self._haystack

    @property
    def folded_text(self) -> str:
        """``text.casefold()``, computed once — the prefilter's haystack."""
        if self._folded is None:
            self._folded = self._haystack.casefold()
        return self._folded
