"""The repro.api facade: sessions, stages, streaming feed, auto-publish."""

import threading

import pytest

from repro.api import (
    AlignStage,
    BoundedQueue,
    CraftStage,
    GenerationSession,
    PresetClusterStage,
    RefineStage,
    RuleLLMConfig,
    ScanService,
    ScanServiceConfig,
)
from repro.core import RuleLLM
from repro.evaluation.detector import RuleScanner
from repro.evaluation.experiments import ExperimentSuite
from repro.corpus import DatasetConfig


def _rule_texts(rule_set):
    return [(rule.format, rule.name, rule.text) for rule in rule_set.rules]


# -- incremental generation ---------------------------------------------------------


class TestGenerationSession:
    def test_batched_feed_matches_one_shot(self, malware_packages, generated_rules):
        """Feeding in several batches changes nothing about the output."""
        session = GenerationSession(RuleLLMConfig.full())
        half = len(malware_packages) // 2
        assert session.add_batch(malware_packages[:half]) == 1
        assert session.add_batch(malware_packages[half:]) == 2
        assert session.pending_count == len(malware_packages)
        result = session.generate()
        assert result.batch_sizes == [half, len(malware_packages) - half]
        assert _rule_texts(result.rule_set) == _rule_texts(generated_rules)

    def test_failed_generate_restores_the_feed(self, malware_packages):
        """A stage crash must not lose the packages fed so far."""

        class Boom(Exception):
            pass

        class ExplodingStage:
            name = "boom"

            def run(self, context):
                raise Boom()

        session = GenerationSession(RuleLLMConfig.full(), stages=[ExplodingStage()])
        session.add_batch(malware_packages[:2])
        session.add_batch(malware_packages[2:5])
        with pytest.raises(Boom):
            session.generate()
        assert session.pending_count == 5
        assert session.pending_batches == 2

    def test_generate_clears_pending_feed(self, malware_packages):
        session = GenerationSession(RuleLLMConfig.full())
        session.add_batch(malware_packages[:2])
        session.generate()
        assert session.pending_count == 0
        empty = session.generate()
        assert len(empty.rule_set) == 0
        assert empty.info.package_count == 0

    def test_empty_batches_are_ignored(self):
        session = GenerationSession(RuleLLMConfig.full())
        assert session.add_batch([]) == 0
        assert session.pending_batches == 0

    def test_stage_timings_recorded(self, malware_packages):
        session = GenerationSession(RuleLLMConfig.full())
        session.add_batch(malware_packages[:4])
        result = session.generate()
        assert set(result.stage_seconds) == {"cluster", "craft", "refine", "align"}
        assert all(seconds >= 0 for seconds in result.stage_seconds.values())
        assert result.total_seconds > 0
        assert "packages" in result.describe()

    def test_results_history(self, malware_packages):
        """Each generate returns its own result, over the packages fed
        since the previous call."""
        session = GenerationSession(RuleLLMConfig.full())
        session.add_batch(malware_packages[:2])
        first = session.generate()
        session.add_batch(malware_packages[2:5])
        second = session.generate()
        assert first is not second
        assert (first.info.package_count, first.batch_sizes) == (2, [2])
        assert (second.info.package_count, second.batch_sizes) == (3, [3])


# -- streaming feed -----------------------------------------------------------------


class TestQueueFeed:
    def test_consume_drains_until_closed(self, malware_packages):
        queue = BoundedQueue(max_items=4)  # smaller than the feed: backpressure
        session = GenerationSession(RuleLLMConfig.full())
        packages = malware_packages[:10]

        def feed() -> None:
            for package in packages:
                queue.put(package)
            queue.close()

        feeder = threading.Thread(target=feed)
        feeder.start()
        consumed = session.consume(queue, batch_size=3)
        feeder.join()
        assert consumed == len(packages)
        assert session.pending_count == len(packages)
        assert session.pending_batches >= 4  # 10 packages in batches of <= 3

    def test_consume_on_closed_empty_queue(self):
        queue = BoundedQueue()
        queue.close()
        session = GenerationSession(RuleLLMConfig.full())
        assert session.consume(queue) == 0

    def test_consume_drains_items_already_behind_a_close(self, malware_packages):
        """Items put just before close() must not be dropped."""
        queue = BoundedQueue()
        for package in malware_packages[:3]:
            queue.put(package)
        queue.close()
        session = GenerationSession(RuleLLMConfig.full())
        assert session.consume(queue, batch_size=2) == 3
        assert session.pending_count == 3

    def test_consume_rejects_bad_batch_size(self):
        session = GenerationSession(RuleLLMConfig.full())
        with pytest.raises(ValueError):
            session.consume(BoundedQueue(), batch_size=0)

    def test_bounded_queue_closed_property(self):
        queue = BoundedQueue()
        assert not queue.closed
        queue.close()
        assert queue.closed


# -- pluggable stages ---------------------------------------------------------------


class TestPluggableStages:
    def test_group_stages_match_legacy_group_api(self, malware_packages):
        packages = malware_packages[:2]
        legacy = RuleLLM(RuleLLMConfig.full()).generate_rules_for_group(
            packages, cluster_id=7
        )
        session = GenerationSession(RuleLLMConfig.full(), stages=[
            PresetClusterStage(7), CraftStage(), RefineStage(), AlignStage(),
        ])
        session.add_batch(packages)
        assert _rule_texts(session.generate().rule_set) == _rule_texts(legacy)

    def test_custom_stage_list_can_drop_stages(self, malware_packages):
        """A session runs whatever chain it is given (here: no refinement)."""
        stages = [PresetClusterStage(0), CraftStage(), RefineStage(), AlignStage()]
        session = GenerationSession(RuleLLMConfig.full(), stages=stages)
        session.add_batch(malware_packages[:2])
        result = session.generate()
        assert result.info.coarse_rule_count > 0
        assert result.info.alignment.total == result.info.refined_rule_count


# -- auto-publish into the scan registry --------------------------------------------


class TestAutoPublish:
    def test_incremental_batches_publish_and_scan_without_glue(
        self, malware_packages, small_dataset
    ):
        """The acceptance loop: >=2 incremental batches -> auto-publish ->
        the scan service picks the fresh version up with no manual registry
        call."""
        service = ScanService(config=ScanServiceConfig(mode="inprocess"))
        session = GenerationSession(
            RuleLLMConfig.full(), registry=service.registry, label="session"
        )
        assert service.registry.current_version() is None

        half = len(malware_packages) // 2
        session.add_batch(malware_packages[:half])
        session.add_batch(malware_packages[half:])
        assert session.pending_batches == 2
        result = session.generate(label="wave-1")

        assert result.published
        assert result.version.version == 1
        assert service.registry.current_version() == 1

        batch = service.scan_batch(small_dataset.packages)
        assert batch.ruleset_version == result.version.version
        naive = RuleScanner(
            yara_rules=result.rule_set.compile_yara(),
            semgrep_rules=result.rule_set.compile_semgrep(),
        ).scan(small_dataset.packages)
        assert [
            (d.package, d.yara_rules, d.semgrep_rules) for d in batch.detections
        ] == [(d.package, d.yara_rules, d.semgrep_rules) for d in naive.detections]

    def test_successive_generates_hot_swap_versions(self, malware_packages):
        service = ScanService(config=ScanServiceConfig(mode="inprocess"))
        session = GenerationSession(RuleLLMConfig.full(), registry=service.registry)
        session.add_batch(malware_packages[:3])
        first = session.generate()
        session.add_batch(malware_packages[3:6])
        second = session.generate()
        assert (first.version.version, second.version.version) == (1, 2)
        assert service.registry.current_version() == 2

    def test_no_publish_without_registry_or_rules(self, malware_packages):
        session = GenerationSession(RuleLLMConfig.full())
        session.add_batch(malware_packages[:2])
        assert session.generate().version is None
        bound = GenerationSession(
            RuleLLMConfig.full(),
            registry=ScanService().registry,
        )
        assert bound.generate().version is None  # nothing fed, nothing published


# -- back-compat --------------------------------------------------------------------


class TestBackCompat:
    def test_rulellm_wrapper_unchanged(self, malware_packages, generated_rules):
        """RuleLLM.generate_rules still yields the historical output."""
        rules = RuleLLM(RuleLLMConfig.full()).generate_rules(malware_packages)
        assert _rule_texts(rules) == _rule_texts(generated_rules)

    def test_experiment_suite_detections_identical(self, small_dataset, generated_rules):
        """experiments.py goes through the session API and detects identically."""
        suite = ExperimentSuite(DatasetConfig.small(), RuleLLMConfig.full())
        naive = RuleScanner(
            yara_rules=generated_rules.compile_yara(),
            semgrep_rules=generated_rules.compile_semgrep(),
        ).scan(small_dataset.packages)
        assert [
            (d.package, d.yara_rules, d.semgrep_rules) for d in suite.detection.detections
        ] == [(d.package, d.yara_rules, d.semgrep_rules) for d in naive.detections]
        assert suite.session_result.info.cluster_count > 0
