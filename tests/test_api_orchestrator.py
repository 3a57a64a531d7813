"""Sharded generation fleets: shard plans, merge/stack publish semantics,
the registry event bus and the scan service's live re-scan."""

import pytest

from repro.api import (
    BehaviorShardPlan,
    ClusterShardPlan,
    GenerationOrchestrator,
    GeneratedRule,
    GeneratedRuleSet,
    PresetGroupsStage,
    RoundRobinShardPlan,
    RuleLLMConfig,
    RulesetRegistry,
    ScanService,
    ScanServiceConfig,
    StageContext,
    merge_shard_rulesets,
)
from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.extraction.embedding import CodeEmbedder
from repro.llm.simulated import SimulatedAnalystLLM
from repro.scanserve.registry import PublishEvent
from repro.yarax import compile_source


def _pkg(name: str, content: str, family: str | None = None) -> Package:
    return Package(
        name=name,
        version="1.0",
        metadata=PackageMetadata(name=name),
        files=[PackageFile(path=f"{name}.py", content=content)],
        label="malware",
        family=family,
    )


def _yara_rule(name: str, needle: str, cluster_id: int = 0) -> GeneratedRule:
    return GeneratedRule(
        format="yara",
        name=name,
        text=f'rule {name} {{ strings: $a = "{needle}" condition: $a }}',
        cluster_id=cluster_id,
    )


def _ruleset(*rules: GeneratedRule) -> GeneratedRuleSet:
    rule_set = GeneratedRuleSet(model="test")
    for rule in rules:
        rule_set.add(rule)
    return rule_set


def _texts(rule_set) -> list[tuple[str, str, str]]:
    return [(r.format, r.name, r.text) for r in rule_set.rules]


# -- shard plans --------------------------------------------------------------------


class TestShardPlans:
    config = RuleLLMConfig.full()

    def test_round_robin_deals_everything_out(self, malware_packages):
        shards = RoundRobinShardPlan(3).partition(
            list(malware_packages), self.config, CodeEmbedder()
        )
        assert 1 <= len(shards) <= 3
        dealt = [p for shard in shards for p in shard.packages]
        assert sorted(p.identifier for p in dealt) == sorted(
            p.identifier for p in malware_packages
        )
        again = RoundRobinShardPlan(3).partition(
            list(malware_packages), self.config, CodeEmbedder()
        )
        assert [s.label for s in again] == [s.label for s in shards]

    def test_round_robin_rejects_bad_count(self):
        with pytest.raises(ValueError):
            RoundRobinShardPlan(0)

    def test_behavior_plan_keeps_families_whole(self):
        packages = [
            _pkg("a1", "x", family="alpha"),
            _pkg("a2", "x", family="alpha"),
            _pkg("b1", "x", family="beta"),
            _pkg("c1", "x", family="gamma"),
        ]
        shards = BehaviorShardPlan().partition(packages, self.config, CodeEmbedder())
        assert len(shards) == 3  # one shard per family
        by_family = {shard.label: {p.name for p in shard.packages} for shard in shards}
        assert by_family["alpha"] == {"a1", "a2"}

    def test_behavior_plan_caps_and_balances(self):
        packages = [
            _pkg(f"{family}{i}", "x", family=family)
            for family in ("alpha", "beta", "gamma", "delta")
            for i in range(2)
        ]
        shards = BehaviorShardPlan(max_shards=2).partition(
            packages, self.config, CodeEmbedder()
        )
        assert len(shards) == 2
        assert sum(len(shard) for shard in shards) == len(packages)
        # families are never split across shards
        for shard in shards:
            for family in {p.family for p in shard.packages}:
                owners = [s for s in shards if family in {p.family for p in s.packages}]
                assert owners == [shard]

    def test_cluster_plan_deals_whole_clusters_with_global_ids(
        self, malware_packages
    ):
        shards = ClusterShardPlan(3).partition(
            list(malware_packages), self.config, CodeEmbedder()
        )
        assert shards, "expected at least one shard"
        seen_ids: set[int] = set()
        for shard in shards:
            assert shard.stages is not None
            preset = shard.stages[0]
            assert isinstance(preset, PresetGroupsStage)
            group_ids = {cluster_id for cluster_id, _ in preset.groups}
            assert not (group_ids & seen_ids), "cluster split across shards"
            seen_ids |= group_ids
            # the shard's package list is exactly its clusters' members
            assert [p.identifier for p in shard.packages] == [
                p.identifier
                for _, members in sorted(preset.groups, key=lambda g: g[0])
                for p in members
            ]


# -- merge semantics ----------------------------------------------------------------


class TestMergeShardRulesets:
    def test_true_duplicates_are_deduplicated(self):
        rule = _yara_rule("shared", "needle", cluster_id=1)
        merged, provenance = merge_shard_rulesets(
            [("s1", _ruleset(rule)), ("s2", _ruleset(rule))]
        )
        assert len(merged.rules) == 1
        assert provenance[1].deduplicated == 1
        assert provenance[1].rules == []

    def test_same_rule_in_different_clusters_is_kept(self):
        merged, _ = merge_shard_rulesets(
            [
                ("s1", _ruleset(_yara_rule("shared", "needle", cluster_id=1))),
                ("s2", _ruleset(_yara_rule("shared", "needle", cluster_id=2))),
            ]
        )
        # a single session keeps both too (compilers dedupe names positionally)
        assert len(merged.rules) == 2
        assert len(merged.compile_yara().rules) == 2

    def test_name_collisions_are_renamed_not_dropped(self):
        merged, provenance = merge_shard_rulesets(
            [
                ("s1", _ruleset(_yara_rule("dup", "needle_one"))),
                ("s-2", _ruleset(_yara_rule("dup", "needle_two"))),
            ]
        )
        names = [rule.name for rule in merged.rules]
        assert "dup" in names and "dup__s_2" in names
        renamed = next(rule for rule in merged.rules if rule.name == "dup__s_2")
        assert "rule dup__s_2" in renamed.text  # identifier rewritten in source
        assert provenance[1].renamed == ["dup__s_2"]
        compiled = merged.compile_yara()
        assert sorted(r.name for r in compiled.rules) == ["dup", "dup__s_2"]

    def test_merged_order_is_cluster_then_format(self):
        merged, _ = merge_shard_rulesets(
            [
                ("s1", _ruleset(_yara_rule("late", "aaa", cluster_id=5))),
                ("s2", _ruleset(_yara_rule("early", "bbb", cluster_id=1))),
            ]
        )
        assert [rule.name for rule in merged.rules] == ["early", "late"]


# -- registry fleet publishes -------------------------------------------------------


class TestRegistryFleetPublish:
    def test_publish_merged_records_provenance(self):
        registry = RulesetRegistry()
        merged, provenance = merge_shard_rulesets(
            [
                ("s1", _ruleset(_yara_rule("r1", "needle_one", 0))),
                ("s2", _ruleset(_yara_rule("r2", "needle_two", 1))),
            ]
        )
        version = registry.publish_merged_set(merged, provenance, label="fleet")
        assert version.rule_count == 2
        assert [p.shard for p in version.provenance] == ["s1", "s2"]
        assert registry.current_version() == version.version
        assert "2 shards" in version.describe()

    def test_publish_merged_requires_rules(self):
        registry = RulesetRegistry()
        for shards in ([], [("s1", _ruleset())]):
            merged, provenance = merge_shard_rulesets(shards)
            with pytest.raises(ValueError):
                registry.publish_merged_set(merged, provenance)
        assert registry.versions() == []

    def test_publish_stacked_builds_a_parent_chain(self):
        registry = RulesetRegistry()
        base = registry.publish(yara=compile_source(
            'rule base { strings: $a = "base_needle" condition: $a }'
        ))
        layers = registry.publish_stacked(
            [
                ("s1", _ruleset(_yara_rule("r1", "needle_one", 0))),
                ("s2", _ruleset(_yara_rule("r2", "needle_two", 1))),
                ("s3", _ruleset(_yara_rule("r3", "needle_three", 2))),
            ],
            label="stack",
            parent=base.version,
        )
        assert [layer.parent for layer in layers] == [
            base.version, layers[0].version, layers[1].version,
        ]
        assert len({layer.stack_id for layer in layers}) == 1
        # layers are cumulative; only the top is live
        assert [layer.rule_count for layer in layers] == [1, 2, 3]
        assert registry.current_version() == layers[-1].version
        # peeling one shard off is just activating the parent
        registry.activate(layers[-1].parent)
        assert registry.current().rule_count == 2


# -- event bus ----------------------------------------------------------------------


class TestRegistryEventBus:
    def test_publish_and_activate_events(self):
        registry = RulesetRegistry()
        events: list[PublishEvent] = []
        registry.subscribe(events.append)
        first = registry.publish(yara=compile_source(
            'rule a { strings: $a = "needle_a" condition: $a }'
        ))
        registry.publish(
            yara=compile_source(
                'rule b { strings: $b = "needle_b" condition: $b }'
            ),
            activate=False,
        )
        registry.activate(first.version)  # no-op: already current
        registry.activate(2)

        kinds = [(e.kind, e.activated) for e in events]
        assert kinds == [("publish", True), ("publish", False), ("activate", True)]
        assert events[0].previous_version is None
        assert events[2].previous_version == first.version

    def test_unsubscribe_stops_delivery(self):
        registry = RulesetRegistry()
        events = []
        token = registry.subscribe(events.append)
        assert registry.unsubscribe(token)
        assert not registry.unsubscribe(token)  # idempotent
        registry.publish(yara=compile_source(
            'rule a { strings: $a = "needle_a" condition: $a }'
        ))
        assert events == []

    def test_broken_subscriber_does_not_break_publish(self):
        registry = RulesetRegistry()

        def explode(event):
            raise RuntimeError("subscriber bug")

        seen = []
        registry.subscribe(explode)
        registry.subscribe(seen.append)
        version = registry.publish(yara=compile_source(
            'rule a { strings: $a = "needle_a" condition: $a }'
        ))
        assert version.version == 1
        assert len(seen) == 1  # later subscribers still notified
        assert any("subscriber bug" in err for err in registry.subscriber_errors)


# -- live re-scan -------------------------------------------------------------------


class TestLiveRescan:
    def _service(self, window: int = 8) -> ScanService:
        return ScanService(
            config=ScanServiceConfig(
                mode="inprocess", recency_window=window, live_rescan=True
            )
        )

    def _corpus(self) -> list[Package]:
        return [
            _pkg("alpha", "alpha_token lives here"),
            _pkg("beta", "beta_token lives here"),
            _pkg("clean", "nothing suspicious"),
        ]

    def test_ring_is_bounded_and_most_recent(self):
        service = self._service(window=2)
        service.publish(yara=compile_source(
            'rule r { strings: $a = "alpha_token" condition: $a }'
        ))
        service.scan_batch(self._corpus())
        assert len(service.recency_window) == 2  # oldest fingerprint dropped

    def test_publish_triggers_rescan_with_delta(self):
        service = self._service()
        service.publish(
            yara=compile_source(
                'rule weak { strings: $a = "alpha_token" condition: $a }'
            ),
            label="v1",
        )
        service.scan_batch(self._corpus())
        assert service.last_rescan is None  # nothing new yet

        service.publish(
            yara=compile_source(
                'rule weak2 { strings: $a = "alpha_token" condition: $a }\n'
                'rule fresh { strings: $b = "beta_token" condition: $b }'
            ),
            label="v2",
        )
        delta = service.last_rescan
        assert delta is not None
        assert (delta.from_version, delta.to_version) == (1, 2)
        assert delta.scanned == 3
        assert delta.new == ["beta==1.0"]  # beta_token newly matched
        assert delta.changed == ["alpha==1.0"]  # weak -> weak2
        assert delta.cleared == []
        assert delta.unchanged == 1  # the clean package
        assert delta.has_changes and "re-scan v1 -> v2" in delta.describe()
        assert len(service.rescans) == 1

    def test_rules_dropped_from_the_new_version_clear_detections(self):
        service = self._service()
        service.publish(yara=compile_source(
            'rule weak { strings: $a = "alpha_token" condition: $a }'
        ))
        service.scan_batch(self._corpus())
        service.publish(yara=compile_source(
            'rule other { strings: $a = "beta_token" condition: $a }'
        ))
        delta = service.last_rescan
        assert delta.cleared == ["alpha==1.0"]
        assert delta.new == ["beta==1.0"]

    def test_inactive_publish_does_not_rescan(self):
        service = self._service()
        service.publish(yara=compile_source(
            'rule weak { strings: $a = "alpha_token" condition: $a }'
        ))
        service.scan_batch(self._corpus())
        service.registry.publish(
            yara=compile_source(
                'rule staged { strings: $a = "beta_token" condition: $a }'
            ),
            activate=False,
        )
        assert service.last_rescan is None
        # ... but activating it later re-scans
        service.registry.activate(2)
        assert service.last_rescan is not None
        assert service.last_rescan.to_version == 2

    def test_consecutive_publishes_diff_against_latest(self):
        service = self._service()
        service.publish(yara=compile_source(
            'rule a { strings: $a = "alpha_token" condition: $a }'
        ))
        service.scan_batch(self._corpus())
        service.publish(yara=compile_source(
            'rule a { strings: $a = "alpha_token" condition: $a }\n'
            'rule b { strings: $b = "beta_token" condition: $b }'
        ))
        service.publish(yara=compile_source(
            'rule a { strings: $a = "alpha_token" condition: $a }\n'
            'rule b { strings: $b = "beta_token" condition: $b }\n'
            'rule c { strings: $c = "nothing suspicious" condition: $c }'
        ))
        assert len(service.rescans) == 2
        second = service.rescans[-1]
        assert (second.from_version, second.to_version) == (2, 3)
        assert second.new == ["clean==1.0"]  # only the v3 novelty, not v2's

    def test_rescan_recent_is_noop_when_ring_already_current(self):
        service = self._service()
        service.publish(yara=compile_source(
            'rule a { strings: $a = "alpha_token" condition: $a }'
        ))
        service.scan_batch(self._corpus())
        assert service.rescan_recent() is None

    def test_record_recency_false_keeps_ring_untouched(self):
        service = self._service()
        service.publish(yara=compile_source(
            'rule a { strings: $a = "alpha_token" condition: $a }'
        ))
        service.scan_batch(self._corpus(), record_recency=False)
        assert service.recency_window == []

    def test_live_rescan_without_cache_or_window_is_rejected(self):
        with pytest.raises(ValueError, match="cache"):
            ScanService(
                config=ScanServiceConfig(enable_cache=False, live_rescan=True)
            )
        with pytest.raises(ValueError, match="recency_window"):
            ScanService(
                config=ScanServiceConfig(recency_window=0, live_rescan=True)
            )


# -- the orchestrator ---------------------------------------------------------------


class TestGenerationOrchestrator:
    def test_merged_fleet_matches_single_session_bit_for_bit(
        self, malware_packages, generated_rules, small_dataset, detection_result
    ):
        """The acceptance property: cluster-sharded fleet -> merged publish
        == one monolithic session, down to identical detections."""
        service = ScanService(config=ScanServiceConfig(mode="inprocess"))
        orchestrator = GenerationOrchestrator(
            config=RuleLLMConfig.full(),
            plan=ClusterShardPlan(shards=3),
            registry=service.registry,
            max_workers=3,
        )
        fleet = orchestrator.run(list(malware_packages), publish="merged")
        assert fleet.shard_count >= 2
        assert fleet.published and fleet.version.provenance
        assert _texts(fleet.rule_set) == _texts(generated_rules)

        batch = service.scan_batch(small_dataset.packages)
        assert [
            (d.package, d.yara_rules, d.semgrep_rules) for d in batch.detections
        ] == [
            (d.package, d.yara_rules, d.semgrep_rules)
            for d in detection_result.detections
        ]

    def test_sequential_fallback_matches_threaded(self, malware_packages):
        threaded = GenerationOrchestrator(
            config=RuleLLMConfig.full(), plan=ClusterShardPlan(3), max_workers=3
        ).run(list(malware_packages), publish="none")
        sequential = GenerationOrchestrator(
            config=RuleLLMConfig.full(), plan=ClusterShardPlan(3), max_workers=1
        ).run(list(malware_packages), publish="none")
        assert _texts(sequential.rule_set) == _texts(threaded.rule_set)
        assert sequential.workers == 1 and threaded.workers == 3

    def test_stacked_publish_through_orchestrator(self, malware_packages):
        service = ScanService(config=ScanServiceConfig(mode="inprocess"))
        orchestrator = GenerationOrchestrator(
            config=RuleLLMConfig.full(),
            plan=ClusterShardPlan(2),
            registry=service.registry,
            max_workers=1,
        )
        fleet = orchestrator.run(list(malware_packages), publish="stacked")
        assert fleet.layers and fleet.version is fleet.layers[-1]
        assert service.registry.current_version() == fleet.version.version
        counts = [layer.rule_count for layer in fleet.layers]
        assert counts == sorted(counts)  # layers are cumulative

    def test_publish_none_leaves_registry_untouched(self, malware_packages):
        registry = RulesetRegistry()
        fleet = GenerationOrchestrator(
            config=RuleLLMConfig.full(),
            plan=RoundRobinShardPlan(2),
            registry=registry,
            max_workers=1,
        ).run(list(malware_packages[:6]), publish="none")
        assert fleet.rule_set.rules and fleet.version is None
        assert len(registry) == 0

    def test_rejects_unknown_publish_mode(self, malware_packages):
        orchestrator = GenerationOrchestrator(config=RuleLLMConfig.full())
        with pytest.raises(ValueError):
            orchestrator.run(list(malware_packages[:2]), publish="bogus")

    def test_shard_labels_flow_into_session_results(self, malware_packages):
        fleet = GenerationOrchestrator(
            config=RuleLLMConfig.full(), plan=RoundRobinShardPlan(2), max_workers=1
        ).run(list(malware_packages[:6]), publish="none")
        for run in fleet.shard_runs:
            assert run.result.shard_label == run.label
            assert run.label in run.result.describe()
        assert fleet.describe().startswith("fleet[round-robin]")
        report = fleet.to_dict()
        assert report["shards"] and report["version"] is None


# -- stage plumbing -----------------------------------------------------------------


class TestPresetGroupsStage:
    def test_adopts_groups_verbatim(self, malware_packages):
        groups = [(4, list(malware_packages[:2])), (7, list(malware_packages[2:3]))]
        stage = PresetGroupsStage(groups)
        context = StageContext(
            config=RuleLLMConfig.full(),
            provider=SimulatedAnalystLLM(),
            embedder=CodeEmbedder(),
            packages=list(malware_packages[:3]),
            shard_label="shard-x",
        )
        stage.run(context)
        assert [cluster_id for cluster_id, _ in context.cluster_groups] == [4, 7]
        assert context.info.cluster_count == 2
        assert context.shard_label == "shard-x"
