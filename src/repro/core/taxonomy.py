"""Rule taxonomy (paper Section V-D, Table XII and Figure 11).

The paper manually categorises the generated rules into 11 categories and 38
subcategories; categories are *not* mutually exclusive (a rule about a
malicious ``setup.py`` that downloads a payload belongs to both "Setup Code"
and "Network Related").  This module automates that categorisation with the
same signal a human reviewer uses: the strings/patterns a rule matches on and
the descriptions in its metadata.

The mapping from textual cues to subcategories reuses the indicator
catalogue (each indicator already knows its subcategory) plus a small set of
metadata-specific cues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.categories import OTHER, TaxonomyLabel, category_of
from repro.core.rules import GeneratedRule
from repro.llm.knowledge import INDICATOR_CATALOG
from repro.llm.rule_synthesis import HALLUCINATED_STRINGS

#: Extra textual cues (substring -> subcategory) beyond the indicator catalogue.
_EXTRA_CUES: tuple[tuple[str, str], ...] = (
    ('"version"', "Version Number Deception"),
    ("0.0.0", "Version Number Deception"),
    ('"name"', "Package Metadata Manipulation"),
    ("typosquat", "Author Information Spoofing"),
    ("suspicious dependency", "Fake Dependency Metadata"),
    ("author_email", "Author Information Spoofing"),
    ("typosquatting", "Author Information Spoofing"),
    ("setup.py", "Malicious Setup Scripts"),
    ("setuptools", "Malicious Setup Scripts"),
    ("install)", "Installation Hook Abuse"),
    ("webhook", "Messaging Platform Abuse"),
    ("telegram", "Messaging Platform Abuse"),
    ("boto3", "Cloud Service Misuse"),
    ("git credential", "Development Tool Abuse"),
    ("docker/config.json", "Development Tool Abuse"),
    ("wallet", "Sensitive Data Harvesting"),
    ("screenshot", "UI/Graphics Library Abuse"),
    ("ImageGrab", "UI/Graphics Library Abuse"),
    ("clipboard", "UI/Graphics Library Abuse"),
    ("Fernet", "Crypto Library Exploitation"),
    ("AES.new", "Crypto Library Exploitation"),
    ("urllib3", "Network Library Misuse"),
    ("requests.post", "Data Exfiltration Channels"),
    ("reverse shell", "Backdoor Families"),
    ("stealer", "Known Trojan Families"),
    ("leveldb", "Known Trojan Families"),
)


@dataclass
class RuleClassification:
    """Taxonomy labels assigned to one rule."""

    rule_name: str
    labels: list[TaxonomyLabel] = field(default_factory=list)

    @property
    def categories(self) -> list[str]:
        return sorted({label.category for label in self.labels})


class RuleTaxonomyClassifier:
    """Assign Table XII categories/subcategories to generated rules."""

    def __init__(self) -> None:
        cues: list[tuple[str, str]] = []
        for indicator in INDICATOR_CATALOG:
            signature = indicator.signature.strip('"')
            if signature:
                cues.append((signature, indicator.subcategory))
        cues.extend(_EXTRA_CUES)
        # longest cues first so specific ones win their prefix battles
        self._cues = sorted(set(cues), key=lambda item: -len(item[0]))

    def classify(self, rule: GeneratedRule) -> RuleClassification:
        """Classify one rule from its text and provenance."""
        haystack = rule.text + "\n" + rule.analysis_text
        labels: set[TaxonomyLabel] = set()
        for cue, subcategory in self._cues:
            if cue and cue in haystack:
                labels.add(TaxonomyLabel(category_of(subcategory), subcategory))
        if rule.origin == "metadata":
            labels.add(TaxonomyLabel("Metadata Related", "Package Metadata Manipulation"))
        if any(invented in haystack for invented in HALLUCINATED_STRINGS):
            labels.add(TaxonomyLabel(OTHER, "Unknown or Undetermined"))
        if not labels:
            labels.add(TaxonomyLabel(OTHER, "Unknown or Undetermined"))
        ordered = sorted(labels, key=lambda label: (label.category_index, label.subcategory))
        return RuleClassification(rule_name=rule.name, labels=ordered)

    def classify_all(self, rules: list[GeneratedRule]) -> list[RuleClassification]:
        return [self.classify(rule) for rule in rules]

    # -- aggregation (Table XII / Figure 11 inputs) ----------------------------------
    def subcategory_counts(self, rules: list[GeneratedRule]) -> dict[str, dict[str, int]]:
        """Count rules per category/subcategory (non-exclusive, as in the paper)."""
        counts: dict[str, dict[str, int]] = {}
        for classification in self.classify_all(rules):
            for label in classification.labels:
                bucket = counts.setdefault(label.category, {})
                bucket[label.subcategory] = bucket.get(label.subcategory, 0) + 1
        return counts

    def category_overlap_matrix(self, rules: list[GeneratedRule]) -> list[list[int]]:
        """Pairwise count of rules sharing two categories (Figure 11 heatmap)."""
        from repro.categories import CATEGORIES

        size = len(CATEGORIES)
        matrix = [[0] * size for _ in range(size)]
        for classification in self.classify_all(rules):
            indices = sorted({label.category_index for label in classification.labels})
            for i in indices:
                for j in indices:
                    if i != j:
                        matrix[i][j] += 1
        return matrix
