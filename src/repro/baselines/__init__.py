"""Baselines the paper compares RuleLLM against (Section V-A, Table VII).

* **Existing rules from SOTA tools** -- stand-in corpora for the community
  YARA rule set (4,574 rules, 46 OSS-related) and the community Semgrep rule
  set (2,841 rules, 334 OSS-related).  Only the OSS-relevant fraction can
  ever fire on a Python package; a handful of overly generic rules provide
  the false positives those scanners are known for.
* **Score-based approach** -- an adaptation of signature-generation work to
  OSS malware: strings are scored with an isolation forest, information
  entropy and TF-IDF (weights 1.2 / 0.8 / 1.0), and high-scoring strings are
  assembled into YARA rules through a template.
* **Diverse LLMs** -- obtained by running the RuleLLM pipeline with different
  model profiles (see :mod:`repro.llm.profiles`), not re-implemented here.
"""

from repro.baselines.community_rules import (
    CommunityRuleSet,
    build_semgrep_scanner,
    build_yara_scanner,
)
from repro.baselines.score_based import ScoreBasedRuleGenerator
from repro.baselines.isolation_forest import IsolationForest
from repro.baselines.tfidf import TfIdfScorer
from repro.baselines.entropy import shannon_entropy, normalized_entropy

__all__ = [
    "CommunityRuleSet",
    "build_yara_scanner",
    "build_semgrep_scanner",
    "ScoreBasedRuleGenerator",
    "IsolationForest",
    "TfIdfScorer",
    "shannon_entropy",
    "normalized_entropy",
]
