"""Store recovery tests: fsck via ``open_store``, registry snapshots,
crash injection mid-publish, and recovery without recompilation
(`repro.store.recovery`, `repro.store.snapshots`, the registry wiring)."""

from __future__ import annotations

import pytest

from repro.api import GeneratedRule, GeneratedRuleSet, RulesetRegistry
from repro.store import (
    BlobStore,
    CrashPoint,
    MissingBlob,
    SimulatedCrash,
    SnapshotManifest,
    blob_digest,
    open_store,
)


def _rule(name: str, needle: str) -> GeneratedRule:
    return GeneratedRule(
        format="yara",
        name=name,
        text=f'rule {name} {{ strings: $a = "{needle}" condition: $a }}',
    )


def _ruleset(*rules: GeneratedRule) -> GeneratedRuleSet:
    rule_set = GeneratedRuleSet(model="test")
    for rule in rules:
        rule_set.add(rule)
    return rule_set


def _store(tmp_path, name="store"):
    store, report = open_store(tmp_path / name, durable=False)
    return store, report


class TestBlobStore:
    def test_put_get_round_trip(self, tmp_path):
        blobs = BlobStore(tmp_path / "blobs")
        digest = blobs.put(b"payload")
        assert digest == blob_digest(b"payload")
        assert blobs.get(digest) == b"payload"
        assert digest in blobs

    def test_put_is_idempotent(self, tmp_path):
        blobs = BlobStore(tmp_path / "blobs")
        assert blobs.put(b"same") == blobs.put(b"same")
        assert blobs.stats()["blobs"] == 1

    def test_missing_blob_raises(self, tmp_path):
        blobs = BlobStore(tmp_path / "blobs")
        with pytest.raises(MissingBlob):
            blobs.get("0" * 64)

    def test_get_verified_rejects_decayed_content(self, tmp_path):
        blobs = BlobStore(tmp_path / "blobs")
        digest = blobs.put(b"original")
        # rot the blob on disk behind the store's back
        path = next((tmp_path / "blobs").glob("*/*.blob"))
        path.write_bytes(b"rotted!!")
        with pytest.raises(MissingBlob):
            blobs.get_verified(digest)


class TestOpenStore:
    def test_fresh_store_reports_created(self, tmp_path):
        store, report = _store(tmp_path)
        with store:
            assert report.created
            assert report.ok
            assert report.records == 0

    def test_reopen_reports_records_and_epochs(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            store.journal.append("publish", {"version": 1})
            store.journal.append("activate", {"version": 1})
        store, report = _store(tmp_path)
        with store:
            assert not report.created
            assert report.records == 2
            assert report.last_epoch == 2
            assert report.records_by_type == {"publish": 1, "activate": 1}

    def test_missing_store_with_create_false(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_store(tmp_path / "absent", create=False)

    def test_stray_scratch_files_are_swept(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            store.journal.append("publish", {"version": 1})
        stray = tmp_path / "store" / "blobs" / "aa" / "junk.blob.tmp"
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_bytes(b"torn blob write")
        store, report = _store(tmp_path)
        with store:
            assert report.stray_files_removed >= 1
            assert not stray.exists()

    def test_deep_fsck_spots_decayed_blob(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "evil")), label="v1")
            registry.snapshot()
        blob = next((tmp_path / "store" / "blobs").glob("*/*.blob"))
        blob.write_bytes(b"bitrot")
        store, report = open_store(tmp_path / "store", durable=False, deep=True)
        with store:
            assert not report.ok
            assert report.decayed_blobs


class TestRegistryRecovery:
    def test_registry_recovers_from_snapshot(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "evil_needle")), label="first")
            registry.publish_generated(_ruleset(_rule("r2", "other_needle")), label="second")
            registry.snapshot()

        store, report = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert report.ok
            assert recovered.versions() == [1, 2]
            assert recovered.current_version() == 2
            assert recovered.current().label == "second"
            # the recovered index actually matches
            assert recovered.current().rule_count == 1

    def test_recovery_replays_tail_past_snapshot(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "evil")), label="first")
            registry.snapshot()
            # journal-only state after the snapshot: a publish and a rollback
            registry.publish_generated(_ruleset(_rule("r2", "worse")), label="second")
            registry.activate(1)

        store, _ = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [1, 2]
            assert recovered.current_version() == 1

    def test_retire_survives_recovery(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "a")), label="first")
            registry.publish_generated(_ruleset(_rule("r2", "b")), label="second")
            registry.retire(1, reason="decayed", retired_by="arena")

        store, _ = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [2]
            tombstones = recovered.retirements()
            assert len(tombstones) == 1
            assert tombstones[0].reason == "decayed"

    def test_older_format_publish_blob_is_noted_not_fatal(self, tmp_path):
        """A publish blob in an older pickle layout (magic ``RSV1``) must not
        reach ``pickle.loads``: recovery notes it and keeps going."""
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            version = registry.publish_generated(
                _ruleset(_rule("r1", "needle")), label="current"
            )
            fresh = version.to_bytes()
            assert fresh.startswith(b"RSV2")
            old = store.blobs.put(b"RSV1" + fresh[len(b"RSV2"):])
            epoch = store.journal.append(
                "publish",
                {"version": 2, "blob": old, "label": "old", "activated": True},
            )

        store, _ = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [1]
            assert recovered.current().label == "current"
            assert len(recovered.recovery_notes) == 1
            assert recovered.recovery_notes[0].startswith(
                f"publish@{epoch} unrecoverable"
            )

    def test_recovery_never_recompiles(self, tmp_path, monkeypatch):
        """The acceptance criterion: snapshot blobs restore compiled versions
        byte-for-byte, so recovery must not touch either compiler."""
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(
                _ruleset(_rule("r1", "needle_one"), _rule("r2", "needle_two")),
                label="compiled-once",
            )
            registry.snapshot()

        import repro.semgrepx.compiler
        import repro.yarax.compiler

        def forbidden(*args, **kwargs):
            raise AssertionError("recovery must not recompile rules")

        monkeypatch.setattr(repro.yarax.compiler, "compile_source", forbidden)
        monkeypatch.setattr(repro.semgrepx.compiler, "compile_yaml", forbidden)

        store, _ = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert recovered.current().rule_count == 2
            # and the recovered version still *matches* — proof the compiled
            # matchers came back, not just metadata
            matched = recovered.current().yara.match("x = 'needle_one'")
            assert [m.rule_name for m in matched] == ["r1"]


class TestCrashInjection:
    def test_crash_mid_publish_serves_previous_version(self, tmp_path):
        """Kill the journal write partway through the publish record: the
        store must come back serving v1 as if v2 was never attempted."""
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "stable")), label="v1")
            registry.snapshot()

            with CrashPoint(store.journal, at_byte=40):
                with pytest.raises(SimulatedCrash):
                    registry.publish_generated(
                        _ruleset(_rule("r2", "doomed")), label="v2"
                    )
            # write-ahead ordering: the in-memory registry never swapped
            assert registry.versions() == [1]
            assert registry.current_version() == 1

        store, report = _store(tmp_path)
        with store:
            assert report.torn_bytes_truncated > 0
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [1]
            assert recovered.current_version() == 1
            assert recovered.current().label == "v1"

    @pytest.mark.parametrize("at_byte", [0, 1, 17, 63, 200])
    def test_crash_at_any_byte_never_serves_half_written_state(
        self, tmp_path, at_byte
    ):
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "stable")), label="v1")
            registry.snapshot()
            with CrashPoint(store.journal, at_byte=at_byte) as crash:
                try:
                    registry.publish_generated(
                        _ruleset(_rule("r2", "doomed")), label="v2"
                    )
                except SimulatedCrash:
                    pass
            assert crash.fired

        store, report = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            # all-or-nothing: either the publish record survived intact
            # (crash hit after the frame) or the version is gone entirely
            assert recovered.versions() in ([1], [1, 2])
            assert recovered.current_version() == 1
            assert recovered.current().label == "v1"
            assert not recovered.recovery_notes

    def test_crash_mid_checkpoint_keeps_journal_appendable(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            store.journal.append("fleet-start", {"run_key": "k"})
            with CrashPoint(store.journal, at_byte=10):
                with pytest.raises(SimulatedCrash):
                    store.journal.append(
                        "shard-complete", {"run_key": "k", "label": "s0"}
                    )

        store, report = _store(tmp_path)
        with store:
            assert report.ok
            assert report.torn_bytes_truncated > 0
            types = [r.type for r in store.journal.replay()]
            assert types == ["fleet-start"]
            # the truncated journal accepts fresh appends at the next epoch
            assert store.journal.append("shard-complete", {"run_key": "k"}) == 2


class TestCompaction:
    def test_compact_drops_prefix_and_preserves_state(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            for index in range(4):
                registry.publish_generated(
                    _ruleset(_rule(f"r{index}", f"needle{index}")),
                    label=f"v{index + 1}",
                )
            registry.retire(1, reason="old")
            outcome = store.compact(registry)
            assert outcome.snapshot_epoch > 0

        store, report = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert report.ok
            assert recovered.versions() == [2, 3, 4]
            assert recovered.current_version() == 4
            assert [t.version for t in recovered.retirements()] == [1]

    def test_compact_is_idempotent_for_carried_records(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "x")), label="v1")
            store.journal.append("fleet-start", {"run_key": "k", "shards": ["a"]})
            store.journal.append(
                "shard-complete", {"run_key": "k", "label": "a", "blob": ""}
            )
            store.journal.append("fleet-merge", {"run_key": "k", "version": 1})

            for _ in range(3):
                store.compact(registry)
            carried = [
                r.type for r in store.journal.replay()
                if r.type in ("fleet-start", "shard-complete", "fleet-merge")
            ]
            assert sorted(carried) == ["fleet-merge", "fleet-start", "shard-complete"]

    def test_compact_garbage_collects_unreferenced_blobs(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "a")), label="v1")
            registry.publish_generated(_ruleset(_rule("r2", "b")), label="v2")
            registry.retire(1, reason="superseded")
            outcome = store.compact(registry)
            assert outcome.blobs_collected >= 1

        store, _ = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [2]
            assert recovered.current().rule_count == 1


class TestSnapshotManifest:
    def test_round_trip(self):
        manifest = SnapshotManifest(
            epoch=7,
            registry_blob="a" * 64,
            version_blobs={1: "b" * 64, 2: "c" * 64},
            current_version=2,
            namespace="acme",
            created_at=123.0,
        )
        again = SnapshotManifest.from_dict(manifest.to_dict())
        assert again == manifest
        assert again.referenced_blobs() == {"a" * 64, "b" * 64, "c" * 64}
