"""Code segmentation (paper Section III-B).

The paper splits each source file into fixed-length segments (threshold 512
characters) before embedding; ``split_segments`` performs that split.
"""

from __future__ import annotations

#: Fixed segment length used by the paper when splitting source code.
SEGMENT_LENGTH = 512


def split_segments(text: str, segment_length: int = SEGMENT_LENGTH) -> list[str]:
    """Split ``text`` into consecutive segments of at most ``segment_length``.

    Splits are nudged to the nearest newline after the threshold so that a
    statement is rarely cut mid-line (a small fidelity improvement over a
    blind character split that keeps tokenisation stable).
    """
    if segment_length <= 0:
        raise ValueError("segment_length must be positive")
    segments: list[str] = []
    position = 0
    length = len(text)
    while position < length:
        end = position + segment_length
        if end < length:
            newline = text.find("\n", end)
            if newline != -1 and newline - end < 120:
                end = newline + 1
        segments.append(text[position:end])
        position = end
    return segments
