"""Shared rule-taxonomy vocabulary (paper Table XII).

The paper groups generated rules into 11 categories and 38 subcategories.
The same vocabulary is used in three places in this reproduction:

* the synthetic corpus injects behaviours tagged with these subcategories,
* the rule-taxonomy classifier (:mod:`repro.core.taxonomy`) assigns generated
  rules to them, and
* the Table XII / Figure 11 experiments aggregate over them.

Keeping the constants in one top-level module avoids circular imports between
the corpus substrate and the core pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- category names (Table XII, left column) --------------------------------
METADATA_RELATED = "Metadata Related"
MALICIOUS_BEHAVIOR = "Malicious Behavior"
DEPENDENCY_LIBRARY = "Dependency Library"
SETUP_CODE = "Setup Code"
NETWORK_RELATED = "Network Related"
OBFUSCATION = "Obfuscation & Anti-Detection"
DATA_EXFILTRATION = "Data Exfiltration"
CODE_EXECUTION = "Code Execution"
APPLICATION = "Application"
MALWARE_FAMILY = "Malware Family"
OTHER = "Other Rules"

#: Category display order matches the paper's numbering 0-10.
CATEGORIES: tuple[str, ...] = (
    METADATA_RELATED,
    MALICIOUS_BEHAVIOR,
    DEPENDENCY_LIBRARY,
    SETUP_CODE,
    NETWORK_RELATED,
    OBFUSCATION,
    DATA_EXFILTRATION,
    CODE_EXECUTION,
    APPLICATION,
    MALWARE_FAMILY,
    OTHER,
)

#: Subcategories per category (Table XII, middle column).
SUBCATEGORIES: dict[str, tuple[str, ...]] = {
    METADATA_RELATED: (
        "Package Metadata Manipulation",
        "Version Number Deception",
        "Fake Dependency Metadata",
        "Author Information Spoofing",
    ),
    MALICIOUS_BEHAVIOR: (
        "Privilege Escalation",
        "Process Manipulation",
        "System Configuration Changes",
        "Persistence Mechanisms",
    ),
    DEPENDENCY_LIBRARY: (
        "System Library Abuse",
        "Network Library Misuse",
        "Crypto Library Exploitation",
        "UI/Graphics Library Abuse",
    ),
    SETUP_CODE: (
        "Malicious Setup Scripts",
        "Build Process Manipulation",
        "Installation Hook Abuse",
        "Configuration Tampering",
    ),
    NETWORK_RELATED: (
        "C2 Communication",
        "Data Exfiltration Channels",
        "Malicious Downloads",
        "DNS/Protocol Abuse",
    ),
    OBFUSCATION: (
        "Code Obfuscation",
        "Anti-Analysis Techniques",
        "Sandbox Evasion",
        "String/Pattern Hiding",
    ),
    DATA_EXFILTRATION: (
        "Credential Theft",
        "Environment Data Stealing",
        "Configuration File Extraction",
        "Sensitive Data Harvesting",
    ),
    CODE_EXECUTION: (
        "Shell Command Execution",
        "Script Injection",
        "Process Creation",
    ),
    APPLICATION: (
        "Messaging Platform Abuse",
        "Social Media API Exploitation",
        "Cloud Service Misuse",
        "Development Tool Abuse",
    ),
    MALWARE_FAMILY: (
        "Known Trojan Families",
        "Backdoor Families",
    ),
    OTHER: (
        "Unknown or Undetermined",
    ),
}

#: Rule counts per subcategory reported in the paper's Table XII.  Used by the
#: Table XII experiment for side-by-side comparison and by the corpus
#: generator as relative behaviour weights.
PAPER_TABLE_XII_COUNTS: dict[str, dict[str, int]] = {
    METADATA_RELATED: {
        "Package Metadata Manipulation": 92,
        "Version Number Deception": 17,
        "Fake Dependency Metadata": 18,
        "Author Information Spoofing": 29,
    },
    MALICIOUS_BEHAVIOR: {
        "Privilege Escalation": 21,
        "Process Manipulation": 25,
        "System Configuration Changes": 70,
        "Persistence Mechanisms": 87,
    },
    DEPENDENCY_LIBRARY: {
        "System Library Abuse": 25,
        "Network Library Misuse": 43,
        "Crypto Library Exploitation": 7,
        "UI/Graphics Library Abuse": 8,
    },
    SETUP_CODE: {
        "Malicious Setup Scripts": 56,
        "Build Process Manipulation": 11,
        "Installation Hook Abuse": 39,
        "Configuration Tampering": 28,
    },
    NETWORK_RELATED: {
        "C2 Communication": 66,
        "Data Exfiltration Channels": 51,
        "Malicious Downloads": 61,
        "DNS/Protocol Abuse": 15,
    },
    OBFUSCATION: {
        "Code Obfuscation": 72,
        "Anti-Analysis Techniques": 67,
        "Sandbox Evasion": 9,
        "String/Pattern Hiding": 35,
    },
    DATA_EXFILTRATION: {
        "Credential Theft": 8,
        "Environment Data Stealing": 31,
        "Configuration File Extraction": 2,
        "Sensitive Data Harvesting": 53,
    },
    CODE_EXECUTION: {
        "Shell Command Execution": 54,
        "Script Injection": 29,
        "Process Creation": 1,
    },
    APPLICATION: {
        "Messaging Platform Abuse": 35,
        "Social Media API Exploitation": 2,
        "Cloud Service Misuse": 18,
        "Development Tool Abuse": 5,
    },
    MALWARE_FAMILY: {
        "Known Trojan Families": 12,
        "Backdoor Families": 2,
    },
    OTHER: {
        "Unknown or Undetermined": 13,
    },
}


@dataclass(frozen=True)
class TaxonomyLabel:
    """A (category, subcategory) pair."""

    category: str
    subcategory: str

    def __post_init__(self) -> None:
        if self.category not in SUBCATEGORIES:
            raise ValueError(f"unknown category: {self.category!r}")
        if self.subcategory not in SUBCATEGORIES[self.category]:
            raise ValueError(
                f"unknown subcategory {self.subcategory!r} for category {self.category!r}"
            )

    @property
    def category_index(self) -> int:
        return CATEGORIES.index(self.category)


def category_of(subcategory: str) -> str:
    """Return the category owning ``subcategory`` (raises if unknown)."""
    for category, subs in SUBCATEGORIES.items():
        if subcategory in subs:
            return category
    raise KeyError(f"unknown subcategory: {subcategory!r}")
