"""Per-rule leaderboard with trend history and rank deltas.

The leaderboard is the arena's memory: every round folds its
``(rule, score)`` verdicts in, entries keyed by
``(registry namespace, rule name)`` so multi-tenant gateways share one
board without collisions.  Each entry keeps a bounded score trend (the
last :data:`TREND_LIMIT` rounds), its best score, the round it last
competed in, and its rank before/after the latest fold — the rank delta is
what a human watches to spot decay before the lifecycle policy acts.

Ranking is deterministic: score descending, ties broken by rule name then
namespace, scores compared at 9 decimal places so float noise cannot make
two runs disagree.

The board is derived data: it lives in memory, and what makes it durable
is the store.  An :class:`~repro.arena.runner.ArenaRunner` on a
:class:`~repro.store.RuleStore` journals each round's exact scores and
lifecycle statuses, and folding those records back through
:meth:`Leaderboard.record_round` rebuilds the board exactly where it stood.
Compaction folds the rounds it carries into one exact
:meth:`Leaderboard.state` dump, which :meth:`Leaderboard.restore` reads
back, so a compacted journal holds the board once instead of every
round's scores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, List, Optional, Tuple

#: Score-trend entries each rule keeps (the newest win).
TREND_LIMIT = 32

#: Entry statuses mirrored from the lifecycle tracker.
ACTIVE = "active"
FLAGGED = "flagged"
QUARANTINED = "quarantined"
RETIRED = "retired"


@dataclass
class LeaderboardEntry:
    """One rule's standing on the board."""

    namespace: str
    rule: str
    score: float = 0.0
    best_score: float = 0.0
    rounds: int = 0
    rank: int = 0
    previous_rank: int = 0  # 0: never ranked before
    status: str = ACTIVE
    last_round: int = -1
    trend: List[float] = field(default_factory=list)

    @property
    def rank_delta(self) -> int:
        """Positive = climbed since the previous round, negative = dropped."""
        if not self.previous_rank or not self.rank:
            return 0
        return self.previous_rank - self.rank

    def to_dict(self) -> dict:
        return {
            "namespace": self.namespace,
            "rule": self.rule,
            "score": round(self.score, 6),
            "best_score": round(self.best_score, 6),
            "rounds": self.rounds,
            "rank": self.rank,
            "previous_rank": self.previous_rank,
            "rank_delta": self.rank_delta,
            "status": self.status,
            "last_round": self.last_round,
            "trend": [round(value, 6) for value in self.trend],
        }

    def describe(self) -> str:
        delta = self.rank_delta
        arrow = "=" if not delta else (f"+{delta}" if delta > 0 else str(delta))
        where = f"{self.namespace}/" if self.namespace else ""
        flag = f" [{self.status}]" if self.status != ACTIVE else ""
        trend = " ".join(f"{value:.2f}" for value in self.trend[-4:])
        return (
            f"#{self.rank} ({arrow}) {where}{self.rule}: "
            f"{self.score:.3f} (best {self.best_score:.3f}, "
            f"{self.rounds} rounds, trend {trend}){flag}"
        )


class Leaderboard:
    """In-memory board; rebuilt from journaled rounds after a restart."""

    def __init__(self) -> None:
        self.rounds_recorded = 0
        self._entries: dict[Tuple[str, str], LeaderboardEntry] = {}

    # -- folding --------------------------------------------------------------------
    def record_round(
        self,
        scores: Iterable[Tuple[str, float]],
        round_index: int,
        namespace: str = "",
        statuses: Iterable[Tuple[str, str]] = (),
    ) -> List[LeaderboardEntry]:
        """Fold one round's ``(rule, score)`` pairs in, re-rank, then apply
        its ``(rule, status)`` lifecycle changes.

        Entries not covered by ``scores`` (rules of other namespaces or of
        retired versions) keep their standing and are re-ranked against
        the fresh scores.  Returns the full board in rank order.
        """
        for rule, score in scores:
            key = (namespace, rule)
            entry = self._entries.get(key)
            if entry is None:
                entry = LeaderboardEntry(namespace=namespace, rule=rule)
                self._entries[key] = entry
            entry.score = score
            entry.best_score = max(entry.best_score, score)
            entry.rounds += 1
            entry.last_round = round_index
            entry.trend.append(score)
            del entry.trend[:-TREND_LIMIT]
        self.rounds_recorded += 1
        self._rerank()
        for rule, status in statuses:  # lifecycle actions name scored rules
            self._entries[(namespace, rule)].status = status
        return self.rankings()

    def state(self) -> dict:
        """Exact, unrounded dump of the board (:meth:`to_dict` rounds for
        display); :meth:`restore` reads it back."""
        return {
            "rounds_recorded": self.rounds_recorded,
            "entries": [asdict(entry) for entry in self._entries.values()],
        }

    def restore(self, state: dict) -> None:
        """Replace the whole board with a :meth:`state` dump."""
        self.rounds_recorded = state["rounds_recorded"]
        self._entries = {}
        for fields in state["entries"]:
            entry = LeaderboardEntry(**fields)
            self._entries[(entry.namespace, entry.rule)] = entry

    def _rerank(self) -> None:
        ordered = sorted(
            self._entries.values(),
            key=lambda e: (-round(e.score, 9), e.rule, e.namespace),
        )
        for position, entry in enumerate(ordered, start=1):
            entry.previous_rank = entry.rank
            entry.rank = position

    # -- lookups --------------------------------------------------------------------
    def entry(self, namespace: str, rule: str) -> Optional[LeaderboardEntry]:
        return self._entries.get((namespace, rule))

    def rankings(
        self, namespace: Optional[str] = None, limit: Optional[int] = None
    ) -> List[LeaderboardEntry]:
        ordered = sorted(self._entries.values(), key=lambda e: e.rank)
        if namespace is not None:
            ordered = [e for e in ordered if e.namespace == namespace]
        return ordered[:limit] if limit is not None else ordered

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self, limit: int = 10) -> str:
        lines = [entry.describe() for entry in self.rankings(limit=limit)]
        return "\n".join(lines) if lines else "(empty leaderboard)"

    def to_dict(self) -> dict:
        return {
            "rounds_recorded": self.rounds_recorded,
            "entries": [entry.to_dict() for entry in self.rankings()],
        }


__all__ = [
    "ACTIVE",
    "FLAGGED",
    "Leaderboard",
    "LeaderboardEntry",
    "QUARANTINED",
    "RETIRED",
    "TREND_LIMIT",
]
