"""Scoring policies: fold scan batches into per-rule verdicts.

A rule's raw material is its :class:`~repro.evaluation.per_rule.PerRuleStats`
over one arena round — how often it fired on malicious vs benign traffic.
What that is *worth* is policy: a registry gating publishes wants benign
matches punished hard, a research harness wants silent rules held at a
neutral prior instead of executed on sight.  Policies are plain functions
``(stats, context) -> float in [0, 1]`` registered under a name with the
:func:`scoring_policy` decorator, so deployments add their own without
touching the arena:

    @scoring_policy("paranoid")
    def paranoid(stats, context):
        return 0.0 if stats.benign_matches else strict(stats, context)

Built-in policies:

``strict``
    Precision, nothing else.  Silent rules score 0 — a rule that never
    fires earns nothing.
``lenient``
    Laplace-smoothed precision ``(mal + 1) / (total + 2)``.  Silent rules
    sit at the 0.5 prior; one benign match cannot zero a rule out.
``weighted``
    Precision damped by saturating coverage ``c / (c + k)`` — a rule must
    be both right *and* reach to score, which is the default the arena
    ranks by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.evaluation.per_rule import (
    PerRuleStats,
    merge_per_rule_stats,
    per_rule_statistics,
)

#: Policy signature: per-rule stats + round context -> score in [0, 1].
ScoringPolicy = Callable[[PerRuleStats, "ScoringContext"], float]

#: The decorator-registered policy table.
SCORING_POLICIES: Dict[str, ScoringPolicy] = {}

#: ``weighted``'s half-saturation point ``k``: a rule covering this many
#: malicious packages earns half of the full coverage credit.
COVERAGE_SATURATION = 3


def scoring_policy(name: str) -> Callable[[ScoringPolicy], ScoringPolicy]:
    """Register a scoring policy under ``name`` (last registration wins)."""

    def register(policy: ScoringPolicy) -> ScoringPolicy:
        SCORING_POLICIES[name] = policy
        policy.policy_name = name  # type: ignore[attr-defined]
        return policy

    return register


def get_policy(name: str) -> ScoringPolicy:
    try:
        return SCORING_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(SCORING_POLICIES)) or "none"
        raise LookupError(
            f"unknown scoring policy {name!r} (registered: {known})"
        ) from None


@dataclass(frozen=True)
class ScoringContext:
    """What one round looked like, for policies that normalise against it."""

    malicious_packages: int = 0
    benign_packages: int = 0
    round_index: int = 0


@dataclass
class RuleScore:
    """One rule's verdict for one round."""

    rule: str
    score: float
    precision: float
    coverage: int
    malicious_matches: int
    benign_matches: int
    policy: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "score": round(self.score, 6),
            "precision": round(self.precision, 6),
            "coverage": self.coverage,
            "malicious_matches": self.malicious_matches,
            "benign_matches": self.benign_matches,
            "policy": self.policy,
        }

    def describe(self) -> str:
        return (
            f"{self.rule}: {self.score:.3f} "
            f"(precision {self.precision:.2f}, coverage {self.coverage}, "
            f"{self.benign_matches} benign)"
        )


# -- built-in policies --------------------------------------------------------------
@scoring_policy("strict")
def strict(stats: PerRuleStats, context: ScoringContext) -> float:
    """Precision alone; silent rules earn nothing."""
    if stats.total_matches == 0:
        return 0.0
    return stats.precision


@scoring_policy("lenient")
def lenient(stats: PerRuleStats, context: ScoringContext) -> float:
    """Laplace-smoothed precision; silent rules sit at the 0.5 prior."""
    return (stats.malicious_matches + 1) / (stats.total_matches + 2)


@scoring_policy("weighted")
def weighted(stats: PerRuleStats, context: ScoringContext) -> float:
    """Precision damped by saturating coverage: right *and* reaching."""
    if stats.total_matches == 0:
        return 0.0
    reach = stats.coverage / (stats.coverage + COVERAGE_SATURATION)
    return stats.precision * reach


# -- folding batches into verdicts ---------------------------------------------------
def fold_batches(batches: Sequence, rule_names: Iterable[str]) -> List[PerRuleStats]:
    """Aggregate per-rule stats across many ``BatchScanResult`` s.

    Each batch is scored independently (:func:`per_rule_statistics` over
    its ``result``) and the counts are merged — no package is re-scanned.
    ``rule_names`` should list every rule of the scanned version so silent
    rules keep their zero-count entries.
    """
    names = list(rule_names)
    return merge_per_rule_stats(
        per_rule_statistics(batch.result, names) for batch in batches
    )


def context_for_batches(batches: Sequence, round_index: int = 0) -> ScoringContext:
    """Build the round context (traffic composition) from scanned batches."""
    malicious = benign = 0
    for batch in batches:
        for detection in batch.result.detections:
            if detection.actual_malicious:
                malicious += 1
            else:
                benign += 1
    return ScoringContext(
        malicious_packages=malicious,
        benign_packages=benign,
        round_index=round_index,
    )


def score_rules(
    stats: Iterable[PerRuleStats],
    policy: str = "weighted",
    context: Optional[ScoringContext] = None,
) -> List[RuleScore]:
    """Apply one policy to every rule's stats.

    Returns verdicts in leaderboard order — score descending, ties broken
    by rule name — so equal scores always rank identically.
    """
    chosen = get_policy(policy)
    context = context or ScoringContext()
    scores = [
        RuleScore(
            rule=entry.rule,
            score=max(0.0, min(1.0, chosen(entry, context))),
            precision=entry.precision,
            coverage=entry.coverage,
            malicious_matches=entry.malicious_matches,
            benign_matches=entry.benign_matches,
            policy=policy,
        )
        for entry in stats
    ]
    scores.sort(key=lambda s: (-round(s.score, 9), s.rule))
    return scores


__all__ = [
    "COVERAGE_SATURATION",
    "SCORING_POLICIES",
    "RuleScore",
    "ScoringContext",
    "ScoringPolicy",
    "context_for_batches",
    "fold_batches",
    "get_policy",
    "score_rules",
    "scoring_policy",
]
