"""Scanning targets and findings for the Semgrep-lite engine.

A :class:`ScanTarget` wraps one package (or an arbitrary set of source
files), parses every Python file, and builds a cheap text index used to skip
rules whose anchors cannot possibly be present.  Rule sets then match
against the target; results are :class:`SemgrepFinding` records.

A file's parse lives in a :class:`ParsedSource` entry: the tree and its
:class:`~repro.semgrepx.pattern.TreeIndex` (built on first use, shared by
every pattern of every rule).  Each compiled rule keeps its findings per
entry, so a target built through a :class:`ParseMemo`, which shares the
entry of every text the memo already holds, neither parses nor matches a
file that repeats an earlier one again; each occurrence gets the findings
with its own path.  The memo holds entries weakly: an entry lives only while
some :class:`ParsedFile` uses it, so the memo needs no bound and keeps
nothing alive.  ``ScanService`` keeps one memo per service; a target built
without one gives each file its own entry.
"""

from __future__ import annotations

import ast
import threading
import weakref
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


class ParsedSource:
    """One source text parsed, shared by every file that holds the text.

    ``tree`` is ``None`` when the text does not parse.  Compiled rules key
    their findings on the entry itself (held weakly), so it compares by
    identity.
    """

    __slots__ = ("tree", "_index", "__weakref__")

    def __init__(self, source: str) -> None:
        self.tree: Optional[ast.AST]
        try:
            self.tree = parse_python(source)
        except (SyntaxError, ValueError):
            self.tree = None
        self._index: Optional[TreeIndex] = None

    @property
    def index(self) -> TreeIndex:
        """The parsed tree's node index, built by one walk on first use."""
        if self._index is None:
            self._index = TreeIndex(self.tree)
        return self._index


class ParseMemo:
    """Parsed sources keyed by their exact text, held weakly.

    Threads may share a memo: a text is parsed outside the lock and inserted
    under it, so two threads that parse the same new text at once both get
    the entry that was inserted first.  A memo pickles empty, so one never
    crosses a process boundary with its entries.
    """

    def __init__(self) -> None:
        self._entries: "weakref.WeakValueDictionary[str, ParsedSource]" = (
            weakref.WeakValueDictionary()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __reduce__(self):
        return ParseMemo, ()

    def entry(self, source: str) -> ParsedSource:
        """The entry of ``source``, parsed now unless a live one exists."""
        entry = self._entries.get(source)
        if entry is None:
            parsed = ParsedSource(source)
            with self._lock:
                entry = self._entries.setdefault(source, parsed)
        return entry


class ParsedFile:
    """A source file parsed for structural matching.

    Its tree and index are read through its :class:`ParsedSource` entry,
    and rules key their findings on that entry.  A pickled file carries
    only its path and source; unpickling parses the source into a fresh
    entry.
    """

    __slots__ = ("path", "source", "entry")

    def __init__(
        self, path: str, source: str, entry: Optional[ParsedSource] = None
    ) -> None:
        self.path = path
        self.source = source
        self.entry = entry if entry is not None else ParsedSource(source)

    @property
    def tree(self) -> Optional[ast.AST]:
        return self.entry.tree

    @property
    def index(self) -> TreeIndex:
        return self.entry.index

    def __reduce__(self):
        return ParsedFile, (self.path, self.source)


@dataclass
class ScanTarget:
    """A set of source files prepared for repeated rule matching."""

    name: str
    files: list[ParsedFile] = field(default_factory=list)
    _haystack: str = ""
    _folded: Optional[str] = None
    _parsed: Optional[list[ParsedFile]] = None

    @classmethod
    def from_files(
        cls,
        name: str,
        files: Iterable[tuple[str, str]],
        parses: Optional[ParseMemo] = None,
    ) -> "ScanTarget":
        """Parse ``(path, source)`` pairs, through ``parses`` when given."""
        entry = ParsedSource if parses is None else parses.entry
        parsed: list[ParsedFile] = []
        texts: list[str] = []
        for path, source in files:
            parsed.append(ParsedFile(path, source, entry(source)))
            texts.append(source)
        return cls(name=name, files=parsed, _haystack="\n".join(texts))

    @classmethod
    def from_package(
        cls, package: Package, parses: Optional[ParseMemo] = None
    ) -> "ScanTarget":
        """Build a target from a package's Python source files."""
        return cls.from_files(
            package.identifier,
            ((f.path, f.content) for f in package.files if f.is_python),
            parses,
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
