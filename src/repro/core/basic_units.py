"""Basic-unit extraction (paper Section IV-A).

A *basic unit* is a self-contained block of code -- a module-level region, a
function body or a class definition -- small enough for the LLM to analyse.
The paper's procedure, reproduced here:

1. use a regex to find lines starting a block (``def``, ``class``, ``if``,
   ``for``, ``while``, ``try:``, ``with``);
2. accumulate following lines into the current unit;
3. start a new unit at the next top-level block start;
4. additionally split when a unit exceeds 4,000 characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.corpus.package import Package

#: Default size cap fixed by the paper.
MAX_UNIT_CHARS = 4000

_BLOCK_START_RE = re.compile(
    r"^(async\s+def\s|def\s|class\s|if\s|for\s|while\s|try:|with\s|@)"
)


@dataclass(frozen=True)
class BasicUnit:
    """One self-contained block of code attributed to its origin."""

    package: str
    path: str
    index: int
    text: str

    @property
    def size(self) -> int:
        return len(self.text)


def split_basic_units(source: str, max_chars: int = MAX_UNIT_CHARS) -> list[str]:
    """Split one source file into basic-unit texts."""
    if max_chars < 200:
        raise ValueError("max_chars must be >= 200")
    if not source.strip():
        return []

    units: list[str] = []
    current: list[str] = []

    def flush() -> None:
        block = "\n".join(current).strip("\n")
        if block.strip():
            units.append(block)
        current.clear()

    for line in source.splitlines():
        starts_block = bool(_BLOCK_START_RE.match(line)) and not line[:1].isspace()
        if starts_block and current:
            flush()
        current.append(line)
        if sum(len(item) + 1 for item in current) >= max_chars:
            flush()
    flush()

    # Enforce the size cap strictly (a single enormous literal, e.g. an
    # obfuscated base64 blob, can exceed it within one block).
    bounded: list[str] = []
    for unit in units:
        if len(unit) <= max_chars:
            bounded.append(unit)
        else:
            for start in range(0, len(unit), max_chars):
                piece = unit[start : start + max_chars]
                if piece.strip():
                    bounded.append(piece)
    return bounded


def extract_basic_units(package: Package, max_chars: int = MAX_UNIT_CHARS) -> list[BasicUnit]:
    """Extract the basic units of every Python source file in a package."""
    units: list[BasicUnit] = []
    for source in package.source_files:
        for index, text in enumerate(split_basic_units(source.content, max_chars)):
            units.append(BasicUnit(package=package.identifier, path=source.path,
                                   index=index, text=text))
    return units
