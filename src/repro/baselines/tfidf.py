"""TF-IDF scoring over package "strings" for the score-based baseline."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence


class TfIdfScorer:
    """Classic TF-IDF over documents that are bags of extracted strings."""

    def __init__(self) -> None:
        self._document_frequency: Counter[str] = Counter()
        self._documents = 0

    def fit(self, documents: Sequence[Iterable[str]]) -> "TfIdfScorer":
        self._document_frequency = Counter()
        self._documents = len(documents)
        for document in documents:
            for term in set(document):
                self._document_frequency[term] += 1
        return self

    def idf(self, term: str) -> float:
        if self._documents == 0:
            return 0.0
        frequency = self._document_frequency.get(term, 0)
        return math.log((1 + self._documents) / (1 + frequency)) + 1.0

    def score_document(self, document: Iterable[str]) -> dict[str, float]:
        """TF-IDF score of every term in one document."""
        terms = list(document)
        if not terms:
            return {}
        counts = Counter(terms)
        total = len(terms)
        return {term: (count / total) * self.idf(term) for term, count in counts.items()}

    def score_term_in_corpus(self, term: str, documents: Sequence[Iterable[str]]) -> float:
        """Average TF-IDF of ``term`` across the documents that contain it."""
        scores = []
        for document in documents:
            document_scores = self.score_document(document)
            if term in document_scores:
                scores.append(document_scores[term])
        return sum(scores) / len(scores) if scores else 0.0
