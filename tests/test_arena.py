"""Unit coverage of the arena building blocks: replay traffic determinism,
scoring-policy edge cases (silent rules, benign-only traffic, tie-break
stability), cross-batch stat merging, leaderboard ranks, deltas and trend
bound, and the lifecycle escalation walk with its refinement corpus."""

from __future__ import annotations

import pytest

from repro.arena import leaderboard as leaderboard_module
from repro.arena.leaderboard import Leaderboard
from repro.arena.lifecycle import (
    ACTIVE,
    FLAG,
    FLAGGED,
    QUARANTINE,
    QUARANTINED,
    RECOVER,
    RETIRE,
    RETIRED,
    LifecyclePolicy,
    LifecycleTracker,
    RefinementCorpus,
)
from repro.arena.scoring import (
    SCORING_POLICIES,
    RuleScore,
    ScoringContext,
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
from repro.corpus.package import BENIGN, MALWARE, Package, PackageFile, PackageMetadata
from repro.evaluation.per_rule import (
    PerRuleStats,
    merge_per_rule_stats,
    precision_histogram,
)
from repro.utils.seeding import DeterministicRandom


def _malware(name: str, payload: str) -> Package:
    return Package(
        name=name,
        version="1.0",
        metadata=PackageMetadata(name=name),
        files=[PackageFile(path=f"{name}.py", content=payload)],
        label=MALWARE,
        family="arena-test",
    )


@pytest.fixture()
def seed_malware():
    return [
        _malware("mal-a", "import os\nos.system('curl evil')"),
        _malware("mal-b", "exec(bytes.fromhex('41'))"),
        _malware("mal-c", "import socket\nsocket.create_connection(('c2', 80))"),
    ]


# -- traffic ------------------------------------------------------------------------
class TestReplayTraffic:
    def test_same_config_streams_identical_rounds(self, seed_malware):
        config = TrafficConfig(seed=7, packages_per_round=12, obfuscation_step=0.5)
        one = ReplayTraffic(seed_malware, config)
        two = ReplayTraffic(seed_malware, config)
        for round_index in range(3):
            left = one.round_packages(round_index)
            right = two.round_packages(round_index)
            assert [p.identifier for p in left] == [p.identifier for p in right]
            assert [p.signature for p in left] == [p.signature for p in right]

    def test_different_rounds_differ(self, seed_malware):
        traffic = ReplayTraffic(seed_malware, TrafficConfig(seed=7))
        first = [p.signature for p in traffic.round_packages(0)]
        second = [p.signature for p in traffic.round_packages(1)]
        assert first != second

    def test_malicious_ratio_respected_roughly(self, seed_malware):
        traffic = ReplayTraffic(
            seed_malware,
            TrafficConfig(seed=11, packages_per_round=80, malicious_ratio=0.5),
        )
        packages = traffic.round_packages(0)
        malicious = sum(1 for p in packages if p.is_malicious)
        assert 0.3 <= malicious / len(packages) <= 0.7

    def test_benign_only_traffic(self, seed_malware):
        traffic = ReplayTraffic([], TrafficConfig(seed=3, malicious_ratio=0.0))
        packages = traffic.round_packages(0)
        assert packages and all(p.label == BENIGN for p in packages)

    def test_empty_malware_with_ratio_rejected(self):
        with pytest.raises(ValueError):
            ReplayTraffic([], TrafficConfig(malicious_ratio=0.5))

    def test_chunking_covers_the_round(self, seed_malware):
        traffic = ReplayTraffic(
            seed_malware, TrafficConfig(seed=5, packages_per_round=10, chunk_size=4)
        )
        chunks = list(traffic.round_chunks(0))
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_obfuscation_probability_escalates_and_clamps(self, seed_malware):
        traffic = ReplayTraffic(
            seed_malware,
            TrafficConfig(seed=5, obfuscation_base=0.25, obfuscation_step=0.5),
        )
        assert traffic.obfuscation_probability(0) == 0.25
        assert traffic.obfuscation_probability(1) == 0.75
        assert traffic.obfuscation_probability(5) == 1.0

    def test_wrap_hides_payload_but_is_reproducible(self, seed_malware):
        base = seed_malware[0]
        rng = DeterministicRandom(1, "t")
        wrapped = mutate_package(base, rng, wrap=True)
        assert "os.system" not in wrapped.all_text
        assert "base64" in wrapped.all_text
        # same base content -> byte-identical blob, regardless of rng state
        again = obfuscate_source(base.files[0].content)
        assert wrapped.files[0].content == again

    def test_plain_reupload_keeps_content(self, seed_malware):
        base = seed_malware[0]
        plain = mutate_package(base, DeterministicRandom(1, "t"), wrap=False)
        assert [f.content for f in plain.files] == [f.content for f in base.files]
        assert plain.is_malicious


# -- scoring ------------------------------------------------------------------------
class TestScoringPolicies:
    def test_policy_table_has_builtins(self):
        assert {"strict", "lenient", "weighted"} <= set(SCORING_POLICIES)

    def test_unknown_policy_is_lookup_error(self):
        with pytest.raises(LookupError, match="unknown scoring policy"):
            get_policy("nope")

    def test_decorator_registers_custom_policy(self):
        @scoring_policy("test-only-paranoid")
        def paranoid(stats, context):
            return 0.0 if stats.benign_matches else 1.0

        try:
            assert get_policy("test-only-paranoid") is paranoid
            assert paranoid.policy_name == "test-only-paranoid"
        finally:
            del SCORING_POLICIES["test-only-paranoid"]

    def test_silent_rule_scores(self):
        silent = PerRuleStats(rule="quiet")
        context = ScoringContext()
        assert get_policy("strict")(silent, context) == 0.0
        assert get_policy("weighted")(silent, context) == 0.0
        assert get_policy("lenient")(silent, context) == 0.5  # neutral prior

    def test_benign_only_matches(self):
        noisy = PerRuleStats(rule="noisy", benign_matches=4)
        context = ScoringContext(benign_packages=4)
        assert get_policy("strict")(noisy, context) == 0.0
        assert get_policy("weighted")(noisy, context) == 0.0
        assert get_policy("lenient")(noisy, context) == pytest.approx(1 / 6)

    def test_weighted_rewards_coverage(self):
        narrow = PerRuleStats(rule="narrow", malicious_matches=1)
        broad = PerRuleStats(rule="broad", malicious_matches=9)
        context = ScoringContext()
        weighted = get_policy("weighted")
        assert weighted(broad, context) > weighted(narrow, context)
        assert weighted(broad, context) == pytest.approx(9 / 12)

    def test_score_rules_tie_break_is_stable(self):
        stats = [
            PerRuleStats(rule=name, malicious_matches=2)
            for name in ("zeta", "alpha", "mid")
        ]
        first = score_rules(stats, policy="strict")
        second = score_rules(list(reversed(stats)), policy="strict")
        assert [s.rule for s in first] == ["alpha", "mid", "zeta"]
        assert [s.rule for s in first] == [s.rule for s in second]

    def test_scores_clamped_to_unit_interval(self):
        @scoring_policy("test-only-wild")
        def wild(stats, context):
            return 7.5

        try:
            verdicts = score_rules(
                [PerRuleStats(rule="r", malicious_matches=1)], policy="test-only-wild"
            )
            assert verdicts[0].score == 1.0
        finally:
            del SCORING_POLICIES["test-only-wild"]


# -- per-rule merging (evaluation satellite) ----------------------------------------
class TestMergePerRuleStats:
    def test_counts_sum_across_groups(self):
        merged = merge_per_rule_stats([
            [PerRuleStats("a", malicious_matches=2, benign_matches=1)],
            [
                PerRuleStats("a", malicious_matches=3),
                PerRuleStats("b", benign_matches=4),
            ],
        ])
        assert [(s.rule, s.malicious_matches, s.benign_matches) for s in merged] == [
            ("a", 5, 1),
            ("b", 0, 4),
        ]

    def test_empty_input(self):
        assert merge_per_rule_stats([]) == []
        assert merge_per_rule_stats([[], []]) == []

    def test_result_sorted_by_rule_name(self):
        merged = merge_per_rule_stats([
            [PerRuleStats("z"), PerRuleStats("a")],
            [PerRuleStats("m")],
        ])
        assert [s.rule for s in merged] == ["a", "m", "z"]

    def test_histogram_guards(self):
        empty = precision_histogram([])
        assert empty.counts == [0] * 10
        assert empty.zero_match_rules == 0
        with pytest.raises(ValueError):
            precision_histogram([], bins=0)


# -- leaderboard --------------------------------------------------------------------
def _verdict(rule: str, score: float) -> RuleScore:
    return RuleScore(
        rule=rule,
        score=score,
        precision=score,
        coverage=1,
        malicious_matches=1,
        benign_matches=0,
        policy="strict",
    )


class TestLeaderboard:
    def test_record_round_ranks_and_deltas(self):
        board = Leaderboard()
        board.record_round([("a", 0.9), ("b", 0.5)], 0)
        board.record_round([("a", 0.1), ("b", 0.8)], 1)
        a, b = board.entry("", "a"), board.entry("", "b")
        assert (b.rank, b.previous_rank, b.rank_delta) == (1, 2, 1)
        assert (a.rank, a.previous_rank, a.rank_delta) == (2, 1, -1)
        assert a.trend == [0.9, 0.1]
        assert a.best_score == 0.9

    def test_tie_break_by_rule_then_namespace(self):
        board = Leaderboard()
        board.record_round([("b", 0.5), ("a", 0.5)], 0)
        assert [e.rule for e in board.rankings()] == ["a", "b"]

    def test_trend_is_bounded(self, monkeypatch):
        monkeypatch.setattr(leaderboard_module, "TREND_LIMIT", 3)
        board = Leaderboard()
        for round_index in range(6):
            board.record_round([("a", round_index / 10)], round_index)
        assert board.entry("", "a").trend == [0.3, 0.4, 0.5]

    def test_namespace_filter(self):
        board = Leaderboard()
        board.record_round([("a", 0.5)], 0, namespace="t1")
        board.record_round([("a", 0.9)], 1, namespace="t2")
        assert [e.namespace for e in board.rankings(namespace="t1")] == ["t1"]
        assert len(board) == 2


# -- lifecycle ----------------------------------------------------------------------
class TestLifecycle:
    def test_escalation_walk(self):
        tracker = LifecycleTracker(
            LifecyclePolicy(decay_threshold=0.4, flag_after=1,
                            quarantine_after=2, retire_after=3)
        )
        observed = []
        for round_index in range(4):
            observed.extend(
                a.action for a in tracker.observe([_verdict("r", 0.1)], round_index)
            )
        assert observed == [FLAG, QUARANTINE, RETIRE]
        assert tracker.health("r").status == RETIRED
        assert tracker.retired_rules() == ["r"]

    def test_recovery_resets_the_walk(self):
        tracker = LifecycleTracker(LifecyclePolicy(retire_after=3))
        tracker.observe([_verdict("r", 0.1)], 0)  # flagged
        actions = tracker.observe([_verdict("r", 0.9)], 1)
        assert [a.action for a in actions] == [RECOVER]
        assert tracker.health("r").status == ACTIVE
        assert tracker.health("r").consecutive_decays == 0

    def test_retirement_is_terminal(self):
        tracker = LifecycleTracker(
            LifecyclePolicy(flag_after=1, quarantine_after=1, retire_after=1)
        )
        assert [a.action for a in tracker.observe([_verdict("r", 0.0)], 0)] == [RETIRE]
        assert tracker.observe([_verdict("r", 1.0)], 1) == []
        assert tracker.health("r").status == RETIRED

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            LifecyclePolicy(flag_after=3, quarantine_after=2, retire_after=4)
        with pytest.raises(ValueError):
            LifecyclePolicy(decay_threshold=1.5)

    def test_status_for_thresholds(self):
        policy = LifecyclePolicy(flag_after=1, quarantine_after=2, retire_after=3)
        assert policy.status_for(0) == ACTIVE
        assert policy.status_for(1) == FLAGGED
        assert policy.status_for(2) == QUARANTINED
        assert policy.status_for(99) == RETIRED


class TestRefinementCorpus:
    def test_dedup_by_signature(self, seed_malware):
        corpus = RefinementCorpus()
        assert corpus.add(seed_malware[0]) is True
        assert corpus.add(seed_malware[0]) is False
        assert len(corpus) == 1

    def test_fifo_bound(self, seed_malware):
        corpus = RefinementCorpus(limit=2)
        for package in seed_malware:
            corpus.add(package)
        names = [p.name for p in corpus.packages()]
        assert names == ["mal-b", "mal-c"]

    def test_drain_resets(self, seed_malware):
        corpus = RefinementCorpus()
        corpus.add(seed_malware[0])
        drained = corpus.drain()
        assert [p.name for p in drained] == ["mal-a"]
        assert len(corpus) == 0
