"""Score-based rule generation baseline (paper Section V-A).

No prior tool generates rules for OSS malware directly, so the paper adapts
score-based signature generation: candidate strings are extracted from
malware code, scored with three signals -- isolation-forest anomaly score
(weight 1.2), TF-IDF (weight 1.0) and information entropy (weight 0.8) --
contrasted against a legitimate-package group, and strings whose combined
score clears a 0.9 threshold are dropped into a YARA rule template.

The baseline inherits the known weaknesses the paper observes: the scores
prefer strings that are *frequent and unusual-looking* rather than
*semantically malicious*, so rules pick up boilerplate shared by malware and
benign packages alike (decent accuracy, poor precision).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.entropy import normalized_entropy
from repro.baselines.isolation_forest import IsolationForest
from repro.baselines.tfidf import TfIdfScorer
from repro.corpus.package import Package
from repro.extraction.clustering import cluster_packages
from repro.utils.text import safe_identifier
from repro.yarax import CompiledRuleSet, compile_source
from repro.yarax.serializer import YaraRuleBuilder

_STRING_LITERAL_RE = re.compile(r"[\"']([^\"'\n]{6,120})[\"']")
_CALL_RE = re.compile(r"\b([a-zA-Z_][\w.]{3,40})\(")

#: Hyper-parameters fixed by the paper's description.
ISOLATION_WEIGHT = 1.2
TFIDF_WEIGHT = 1.0
ENTROPY_WEIGHT = 0.8
SCORE_THRESHOLD = 0.9
MAX_STRINGS_PER_RULE = 6
MIN_STRING_LENGTH = 6
#: One malware group per this many packages.
CLUSTERS_HINT = 4


@dataclass
class ScoredString:
    """One candidate string with its component and combined scores."""

    value: str
    isolation: float = 0.0
    tfidf: float = 0.0
    entropy: float = 0.0
    combined: float = 0.0


@dataclass
class ScoreBasedResult:
    """Output of the score-based generator."""

    rule_sources: list[str] = field(default_factory=list)
    scored_strings: list[ScoredString] = field(default_factory=list)

    def compile(self) -> CompiledRuleSet:
        if not self.rule_sources:
            return CompiledRuleSet()
        return compile_source("\n\n".join(self.rule_sources))


class ScoreBasedRuleGenerator:
    """Generate YARA rules by scoring strings against a benign contrast group."""

    # -- feature extraction -----------------------------------------------------
    def extract_strings(self, package: Package) -> list[str]:
        """Pull candidate strings (literals and call names) from a package."""
        candidates: list[str] = []
        text = package.source_text
        for match in _STRING_LITERAL_RE.finditer(text):
            value = match.group(1).strip()
            if len(value) >= MIN_STRING_LENGTH:
                candidates.append(value)
        for match in _CALL_RE.finditer(text):
            name = match.group(1)
            if "." in name and len(name) >= MIN_STRING_LENGTH:
                candidates.append(name + "(")
        return candidates

    # -- scoring --------------------------------------------------------------------
    def score_strings(self, malware_group: list[Package],
                      benign_group: list[Package]) -> list[ScoredString]:
        """Score the strings of one malware group against one benign group."""
        malware_docs = [self.extract_strings(pkg) for pkg in malware_group]
        benign_docs = [self.extract_strings(pkg) for pkg in benign_group]
        malware_terms = sorted({term for doc in malware_docs for term in doc})
        if not malware_terms:
            return []

        tfidf = TfIdfScorer().fit(malware_docs + benign_docs)
        features = np.array(
            [[len(term), normalized_entropy(term), sum(term in doc for doc in malware_docs)]
             for term in malware_terms],
            dtype=np.float64,
        )
        forest = IsolationForest().fit(features)
        isolation_scores = forest.score(features)

        scored: list[ScoredString] = []
        for index, term in enumerate(malware_terms):
            tfidf_score = tfidf.score_term_in_corpus(term, malware_docs)
            entropy_score = normalized_entropy(term)
            combined = (
                ISOLATION_WEIGHT * float(isolation_scores[index])
                + TFIDF_WEIGHT * min(tfidf_score, 1.0)
                + ENTROPY_WEIGHT * entropy_score
            ) / (ISOLATION_WEIGHT + TFIDF_WEIGHT + ENTROPY_WEIGHT)
            # NOTE: the scores measure statistical unusualness, not maliciousness --
            # strings that also occur in legitimate packages are *not* excluded,
            # which is exactly why the paper reports low precision for this baseline.
            scored.append(ScoredString(term, float(isolation_scores[index]),
                                       tfidf_score, entropy_score, combined))
        scored.sort(key=lambda item: -item.combined)
        return scored

    # -- rule assembly ------------------------------------------------------------------
    def generate(self, malware: list[Package], benign: list[Package]) -> ScoreBasedResult:
        """Cluster both corpora and emit one template rule per malware group."""
        result = ScoreBasedResult()
        if not malware:
            return result
        malware_clusters = cluster_packages(
            malware, n_clusters=max(1, len(malware) // CLUSTERS_HINT)
        )
        benign_groups = [benign] if benign else [[]]

        for cluster_index, group in enumerate(malware_clusters.clusters):
            benign_group = benign_groups[cluster_index % len(benign_groups)]
            scored = self.score_strings(group, benign_group)
            result.scored_strings.extend(scored[:20])
            # Only strings clearing the paper's 0.9 score threshold (applied to the
            # group-normalised combined score) make it into a rule; groups where
            # nothing clears the bar get no rule -- one of the reasons the
            # baseline's recall trails RuleLLM's.
            selected = self._select_above_threshold(scored)
            selected = selected[:MAX_STRINGS_PER_RULE]
            if not selected:
                continue
            builder = YaraRuleBuilder(f"SCORE_based_group_{cluster_index}")
            builder.meta("description", "score-based signature (isolation forest + tfidf + entropy)")
            builder.meta("generator", "score-based-baseline")
            for item in selected:
                builder.text_string(self._sanitize(item.value))
            builder.condition_any_of_them()
            result.rule_sources.append(builder.to_source())
        return result

    def _select_above_threshold(self, scored: list[ScoredString]) -> list[ScoredString]:
        """Apply the 0.9 threshold to min-max-normalised combined scores."""
        if not scored:
            return []
        values = [item.combined for item in scored]
        low, high = min(values), max(values)
        if high - low <= 1e-9:
            return []
        return [item for item in scored
                if (item.combined - low) / (high - low) >= SCORE_THRESHOLD]

    @staticmethod
    def _sanitize(value: str) -> str:
        cleaned = value.replace("\\", "\\\\").replace('"', "'")
        return cleaned[:80] if cleaned else safe_identifier(value)[:80]
