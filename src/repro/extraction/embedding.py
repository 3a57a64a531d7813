"""Code embedding (CodeBERT substitute).

The paper embeds 512-character code segments with CodeBERT and concatenates
the segment vectors.  CodeBERT cannot be shipped offline, so we substitute a
deterministic *lexical feature-hashing embedder*: code is tokenised, token
unigrams and bigrams are hashed into a fixed number of buckets, and the
resulting count vector is L2-normalised.

The property the downstream pipeline relies on -- *near-identical code maps
to nearby vectors, unrelated code maps to distant vectors* -- is preserved:
variants of the same malware family share almost all their tokens and land in
the same K-Means cluster, which is all Section III-B requires.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

import numpy as np

from repro.corpus.package import Package
from repro.extraction.snippets import SEGMENT_LENGTH, split_segments
from repro.utils.hashing import stable_hash

_FALLBACK_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[^\sA-Za-z0-9_]")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Configuration of the hashing embedder."""

    dimensions: int = 256
    segment_length: int = SEGMENT_LENGTH
    use_bigrams: bool = True
    lowercase: bool = True

    def __post_init__(self) -> None:
        if self.dimensions < 8:
            raise ValueError("dimensions must be >= 8")
        if self.segment_length <= 0:
            raise ValueError("segment_length must be positive")


def tokenize_code(text: str) -> list[str]:
    """Tokenise Python source, falling back to a regex lexer on errors.

    The paper uses the ``tokenize`` library for the same purpose; malformed
    or obfuscated code falls back to a liberal regex split so embedding never
    fails.
    """
    tokens: list[str] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING):
                continue
            value = token.string.strip()
            if value:
                tokens.append(value)
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        tokens = []
    if not tokens:
        tokens = _FALLBACK_TOKEN_RE.findall(text)
    return tokens


class CodeEmbedder:
    """Deterministic hashing embedder for source code.

    The embedder holds only its config.  Each call embeds through a fresh
    :class:`_EmbeddingPass`, whose memo is dropped when the call returns.
    """

    def __init__(self, config: EmbeddingConfig | None = None) -> None:
        self.config = config or EmbeddingConfig()

    def embed(self, text: str) -> np.ndarray:
        """Embed one code segment into a unit-norm vector."""
        return _EmbeddingPass(self.config).segment(text)

    def embed_document(self, text: str) -> np.ndarray:
        """Embed a whole document as the mean of its segment vectors.

        The paper concatenates segment vectors; clustering, however, needs a
        fixed dimensionality, so we aggregate by averaging.  Averaging keeps
        near-duplicate documents near-identical, which is the property
        K-Means grouping depends on.
        """
        return _EmbeddingPass(self.config).document(text)

    def embed_packages(self, packages: list[Package]) -> np.ndarray:
        """Embed the concatenated source of each package (matrix of rows).

        One pass serves the whole call, so a segment or token that many
        packages share is tokenised or hashed once.
        """
        if not packages:
            return np.zeros((0, self.config.dimensions))
        embedding = _EmbeddingPass(self.config)
        return np.vstack(
            [embedding.document(package.source_text or package.all_text) for package in packages]
        )


class _EmbeddingPass:
    """The memo of one embedding call.

    ``buckets`` maps each distinct token or bigram key to its bucket, so
    ``stable_hash`` runs once per key; ``segments`` maps each distinct
    segment to its vector, so ``tokenize_code`` runs once per segment.
    Bucket counts are small integers plus halves, which float64 sums
    exactly, so ``np.bincount`` gives the same vector as adding each
    occurrence in turn.
    """

    def __init__(self, config: EmbeddingConfig) -> None:
        self.config = config
        self.buckets: dict[str, int] = {}
        self.segments: dict[str, np.ndarray] = {}

    def document(self, text: str) -> np.ndarray:
        segments = split_segments(text, self.config.segment_length) or [""]
        vector = np.vstack([self.segment(segment) for segment in segments]).mean(axis=0)
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector = vector / norm
        return vector

    def segment(self, text: str) -> np.ndarray:
        vector = self.segments.get(text)
        if vector is None:
            vector = self.segments[text] = self._embed_segment(text)
        return vector

    def _embed_segment(self, text: str) -> np.ndarray:
        dims = self.config.dimensions
        tokens = tokenize_code(text)
        if self.config.lowercase:
            tokens = [token.lower() for token in tokens]
        if not tokens:
            return np.zeros(dims, dtype=np.float64)
        vector = np.bincount(self._buckets(tokens), minlength=dims).astype(np.float64)
        if self.config.use_bigrams:
            bigrams = [first + "\x00" + second for first, second in zip(tokens, tokens[1:])]
            vector += 0.5 * np.bincount(self._buckets(bigrams), minlength=dims)
        vector /= np.linalg.norm(vector)
        return vector

    def _buckets(self, keys: list[str]) -> list[int]:
        memo = self.buckets
        dims = self.config.dimensions
        buckets = []
        for key in keys:
            bucket = memo.get(key)
            if bucket is None:
                bucket = memo[key] = stable_hash(key, bits=32) % dims
            buckets.append(bucket)
        return buckets
