"""Small text-manipulation helpers shared across the pipeline."""

from __future__ import annotations

import re
import textwrap


def dedent_code(code: str) -> str:
    """Dedent a triple-quoted code template and strip leading blank lines."""
    return textwrap.dedent(code).lstrip("\n")


def count_loc(text: str) -> int:
    """Count non-blank, non-comment lines of Python code."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            count += 1
    return count


def safe_identifier(name: str) -> str:
    """Convert an arbitrary string into a valid Python/YARA identifier."""
    cleaned = re.sub(r"[^0-9A-Za-z_]", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned
