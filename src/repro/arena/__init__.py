"""repro.arena — continuous rule-quality arena.

Replays seeded adversarial + benign traffic against published ruleset
versions, scores every rule under a pluggable policy, ranks them on a
leaderboard, walks decayed rules through flag → quarantine → retire, and
feeds the misses back through a generation session so the successor
version out-scores what it replaced.  With a store every round is
journaled, and a restarted runner rebuilds its leaderboard from them.

    from repro.arena import ArenaRunner, ReplayTraffic, TrafficConfig
    from repro.store import open_store

    store, _ = open_store(path)
    traffic = ReplayTraffic(malware, TrafficConfig(seed=7, obfuscation_step=0.5))
    runner = ArenaRunner(service, traffic, store=store)
    runner.register_sources(version.version, rule_set)
    record = runner.run_round()          # or runner.start() for auto mode
"""

from repro.arena.leaderboard import Leaderboard, LeaderboardEntry
from repro.arena.lifecycle import (
    LifecycleAction,
    LifecyclePolicy,
    LifecycleTracker,
    RefinementCorpus,
    RuleHealth,
    refine_rules,
)
from repro.arena.runner import ArenaConfig, ArenaRound, ArenaRunner, replay_rounds
from repro.arena.scoring import (
    SCORING_POLICIES,
    RuleScore,
    ScoringContext,
    fold_batches,
    get_policy,
    score_rules,
    scoring_policy,
)
from repro.arena.traffic import (
    ReplayTraffic,
    TrafficConfig,
    mutate_package,
    obfuscate_source,
)

__all__ = [
    "ArenaConfig",
    "ArenaRound",
    "ArenaRunner",
    "Leaderboard",
    "LeaderboardEntry",
    "LifecycleAction",
    "LifecyclePolicy",
    "LifecycleTracker",
    "RefinementCorpus",
    "ReplayTraffic",
    "RuleHealth",
    "RuleScore",
    "SCORING_POLICIES",
    "ScoringContext",
    "TrafficConfig",
    "fold_batches",
    "get_policy",
    "mutate_package",
    "obfuscate_source",
    "refine_rules",
    "replay_rounds",
    "score_rules",
    "scoring_policy",
]
