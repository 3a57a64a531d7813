"""Store recovery tests: fsck via ``open_store``, registry snapshots,
crash injection mid-publish, and recovery without recompilation
(`repro.store.recovery`, `repro.store.snapshots`, the registry wiring)."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from repro.api import GeneratedRule, GeneratedRuleSet, RulesetRegistry
from repro.store import (
    BlobStore,
    CrashPoint,
    JournalCorruption,
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


def _semgrep_regex_rule(rule_id: str, regex: str) -> GeneratedRule:
    return GeneratedRule(
        format="semgrep",
        name=rule_id,
        text=(
            f"rules:\n  - id: {rule_id}\n    languages: [python]\n"
            f"    message: m\n    severity: WARNING\n    pattern-regex: {regex}\n"
        ),
    )


def _compiled_semgrep_regexes(version) -> set[str]:
    """Ids of the Semgrep rules whose ``pattern-regex`` has been compiled."""
    return {rule.id for rule in version.semgrep.rules if rule._regex is not None}


def _store(tmp_path, name="store"):
    store, report = open_store(tmp_path / name, durable=False)
    return store, report


def _compiled_strings(version) -> set[tuple[str, str]]:
    """``(rule, string)`` pairs whose regex has been compiled."""
    return {
        (rule.name, string.identifier)
        for rule in version.yara.rules
        for string in rule.strings
        if string._regex is not None
    }


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

    def test_torn_sealed_segment_is_reported_not_dropped(self, tmp_path):
        """Bit rot in a sealed segment's last frame is damage: fsck lists
        it and recovery refuses instead of serving only the later versions."""
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "a")), label="v1")
            sealed = store.journal.rotate()
            registry.publish_generated(_ruleset(_rule("r2", "b")), label="v2")
        blob = bytearray(sealed.read_bytes())
        blob[-1] ^= 0xFF
        sealed.write_bytes(bytes(blob))

        store, report = _store(tmp_path)
        with store:
            assert not report.ok
            assert report.torn_bytes_truncated == 0
            [damage] = report.corrupt_segments
            assert damage.startswith(f"{sealed.name}: ")
            assert "sealed segment" in damage
            with pytest.raises(JournalCorruption):
                RulesetRegistry.from_store(store)

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
        byte-for-byte, so recovery must not touch either compiler, and no
        YARA string or Semgrep ``pattern-regex`` compiles its pattern until a
        scan probes it."""
        from repro.api import RulesetVersion
        from repro.semgrepx.matcher import ScanTarget

        probed = GeneratedRule(
            format="yara",
            name="r3",
            text='rule r3 { strings: $a = /needle_[0-9]+/ $b = "needle_three" nocase '
            "condition: $a or $b }",
        )
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            published = registry.publish_generated(
                _ruleset(
                    _rule("r1", "needle_one"),
                    _rule("r2", "needle_two"),
                    probed,
                    _semgrep_regex_rule("sg-secret", "secret_[a-z]+_key"),
                    _semgrep_regex_rule("sg-domain", "evil[.]example"),
                ),
                label="compiled-once",
            )
            registry.snapshot()
        # publishing validated (so compiled) both Semgrep regexes
        assert _compiled_semgrep_regexes(published) == {"sg-secret", "sg-domain"}
        blob = published.to_bytes()

        import repro.semgrepx.compiler
        import repro.yarax.compiler

        def forbidden(*args, **kwargs):
            raise AssertionError("recovery must not recompile rules")

        monkeypatch.setattr(repro.yarax.compiler, "compile_source", forbidden)
        monkeypatch.setattr(repro.semgrepx.compiler, "compile_yaml", forbidden)

        # decoding a version blob compiles no regex at all
        compiles = []
        real_compile = re._compile

        def counting(*args, **kwargs):
            compiles.append(args[0])
            return real_compile(*args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(re, "_compile", counting)
            RulesetVersion.from_bytes(blob)
        assert compiles == []

        store, _ = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            version = recovered.current()
            assert version.rule_count == 5
            assert _compiled_strings(version) == set()
            assert _compiled_semgrep_regexes(version) == set()
            # one indexed scan: r1 and r3 are candidates; r1's plain string
            # is a substring check, r3's $b is blocked by its absent gate
            # literal, so only r3's regex compiles
            assert version.index.yara_rule_names("x = 'needle_one'") == ["r1"]
            assert _compiled_strings(version) == {("r3", "$a")}
            # and the recovered version still *matches* — proof the compiled
            # matchers came back, not just metadata
            matched = version.yara.match("x = 'needle_one'")
            assert [m.rule_name for m in matched] == ["r1"]
            # the index gates sg-domain out, so only sg-secret compiles
            target = ScanTarget.from_files("pkg", [("setup.py", "k = 'secret_abc_key'\n")])
            found = version.index.match_semgrep(target)
            assert [f.rule_id for f in found] == ["sg-secret"]
            assert _compiled_semgrep_regexes(version) == {"sg-secret"}

    def test_semgrep_rules_in_the_pre_lazy_layout_decode_and_match(self, monkeypatch):
        """Blobs written when a Semgrep rule pickled its compiled pattern
        under ``regex`` still decode, keep that pattern and match."""
        from repro.api import RulesetVersion
        from repro.semgrepx.compiler import CompiledSemgrepRule
        from repro.semgrepx.matcher import ScanTarget

        def old_layout(self):
            return {
                "rule": self.rule,
                "either_patterns": self.either_patterns,
                "all_patterns": self.all_patterns,
                "not_patterns": self.not_patterns,
                "regex": re.compile(self.rule.pattern_regex) if self.rule.pattern_regex else None,
                "_anchors": self._anchors,
            }

        registry = RulesetRegistry()
        published = registry.publish_generated(
            _ruleset(_rule("r1", "needle_one"), _semgrep_regex_rule("sg-secret", "secret_[a-z]+_key")),
            label="old",
        )
        with monkeypatch.context() as patched:
            patched.setattr(CompiledSemgrepRule, "__getstate__", old_layout)
            blob = published.to_bytes()
        version = RulesetVersion.from_bytes(blob)
        assert _compiled_semgrep_regexes(version) == {"sg-secret"}
        for text in ("token = 'secret_abc_key'\n", "token = 'secret_key'\n"):
            target = ScanTarget.from_files("pkg", [("setup.py", text)])
            assert [f.rule_id for f in version.semgrep.match_target(target)] == [
                f.rule_id for f in published.semgrep.match_target(target)
            ]
        # and it pickles back in the current layout, source only
        again = RulesetVersion.from_bytes(version.to_bytes())
        assert _compiled_semgrep_regexes(again) == set()

    def test_store_with_pre_lazy_string_layout_recovers(self, tmp_path, monkeypatch):
        """Version blobs written when each string pickled its compiled
        ``_regex`` in an instance ``__dict__`` still recover and match."""
        import repro.yarax.matcher as matcher

        def old_layout(self):
            return {
                "definition": self.definition,
                "identifier": self.identifier,
                "_rule_name": self._rule_name,
                "_regex": re.compile(self._source, self._flags),
                "_plain_value": self._plain_value,
            }

        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            with monkeypatch.context() as patched:
                patched.setattr(matcher.CompiledString, "__getstate__", old_layout)
                registry.publish_generated(_ruleset(_rule("r1", "needle_one")), label="old")
                registry.publish_generated(
                    _ruleset(_rule("r1", "needle_one"), _rule("r2", "Needle_Two")),
                    label="old",
                )
                registry.snapshot()

        store, _ = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [1, 2]
            assert recovered.recovery_notes == []
            for number in (1, 2):
                version = recovered.get(number)
                fresh = registry.get(number)
                # the older layout carried compiled patterns; they are kept
                assert len(_compiled_strings(version)) == number
                for text in ("x = 'needle_one'", "Needle_Two", "needle_two", ""):
                    assert version.index.yara_rule_names(text) == (
                        fresh.index.yara_rule_names(text)
                    )
                    assert [m.rule_name for m in version.yara.match(text)] == [
                        m.rule_name for m in fresh.yara.match(text)
                    ]


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


class TestSnapshotRecovery:
    """Snapshots list the version blobs publish wrote and carry the rest of
    the registry state as JSON; recovery rebuilds from them."""

    def test_snapshot_after_publish_and_scan_writes_no_blob(self, tmp_path):
        from repro.api import ScanService, ScanServiceConfig
        from repro.corpus.package import Package, PackageFile, PackageMetadata

        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "evil_needle")), label="first")
            registry.publish_generated(_ruleset(_rule("r2", "other_needle")), label="second")
            service = ScanService(
                registry=registry, config=ScanServiceConfig(mode="inprocess")
            )
            package = Package(
                name="pkg",
                version="1.0",
                metadata=PackageMetadata(name="pkg"),
                files=[PackageFile(path="setup.py", content="x = 'other_needle'")],
            )
            assert service.scan_batch([package]).detections[0].yara_rules == ["r2"]
            before = store.blobs.stats()
            manifest = registry.snapshot()
            assert store.blobs.stats() == before
            published = {
                r.data["version"]: r.data["blob"]
                for r in store.journal.replay() if r.type == "publish"
            }
            assert manifest.version_blobs == published

    def test_compacted_store_keeps_numbering_tombstones_and_config(self, tmp_path):
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(
                store=store, namespace="acme", min_atom_length=4
            )
            for number in (1, 2, 3):
                registry.publish_generated(
                    _ruleset(_rule(f"r{number}", f"needle{number}")),
                    label=f"v{number}",
                )
            registry.activate(2)
            registry.retire(3, reason="noisy", retired_by="arena")
            store.compact(registry)
            # the publish records are gone: only the manifest remembers
            assert not [r for r in store.journal.replay() if r.type == "publish"]

        store, report = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert report.ok
            assert recovered.versions() == [1, 2]
            assert recovered.current_version() == 2
            [tombstone] = recovered.retirements()
            assert (tombstone.version, tombstone.reason, tombstone.retired_by) == (
                3, "noisy", "arena",
            )
            assert tombstone.label == "v3" and tombstone.rule_count == 1
            assert recovered.namespace == "acme"
            assert recovered.min_atom_length == 4
            assert not recovered.recovery_notes
            again = recovered.publish_generated(_ruleset(_rule("r4", "needle4")))
            assert again.version == 4

    def test_undecodable_version_blob_is_noted_not_fatal(self, tmp_path):
        """A manifest entry whose blob carries an older pickle layout (magic
        ``RSV1``) is noted; the other versions still recover."""
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            first = registry.publish_generated(_ruleset(_rule("r1", "a")), label="first")
            registry.publish_generated(_ruleset(_rule("r2", "b")), label="second")
            manifest = registry.snapshot()
            fresh = first.to_bytes()
            old = store.blobs.put(b"RSV1" + fresh[len(b"RSV2"):])
            store.write_manifest(
                replace(manifest, version_blobs={**manifest.version_blobs, 1: old})
            )

        store, _ = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [2]
            assert recovered.current().label == "second"
            assert len(recovered.recovery_notes) == 1
            assert recovered.recovery_notes[0].startswith(
                f"snapshot@{manifest.epoch} v1 unrecoverable"
            )

    def test_older_manifest_layout_with_its_journal_replays_the_journal(
        self, tmp_path
    ):
        """While the journal still starts at epoch 1, a manifest that names
        a pickled whole-registry blob and lacks numbering/tombstones is
        bypassed: the whole journal replays, with no note."""
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "a")), label="first")
            registry.publish_generated(_ruleset(_rule("r2", "b")), label="second")
            registry.activate(1)
            _write_older_manifest(store, current_version=1)

        store, report = _store(tmp_path)
        with store:
            assert report.ok
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [1, 2]
            assert recovered.current_version() == 1
            assert recovered.current().label == "first"
            assert not recovered.recovery_notes
            assert recovered.publish_generated(_ruleset(_rule("r3", "c"))).version == 3

    def test_older_manifest_layout_keeps_the_journal_tombstones(self, tmp_path):
        """v1-v3 published, v2 activated, v3 retired, an older-layout
        manifest, no compaction: the retirement and the numbering survive."""
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store, namespace="acme")
            for number in (1, 2, 3):
                registry.publish_generated(
                    _ruleset(_rule(f"r{number}", f"needle{number}")),
                    label=f"v{number}",
                )
            registry.activate(2)
            registry.retire(3, reason="noisy", retired_by="arena")
            _write_older_manifest(store, current_version=2, namespace="acme")

        store, _ = _store(tmp_path)
        with store:
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [1, 2]
            assert recovered.current_version() == 2
            [tombstone] = recovered.retirements()
            assert (tombstone.version, tombstone.reason, tombstone.retired_by) == (
                3, "noisy", "arena",
            )
            assert recovered.namespace == "acme"
            assert not recovered.recovery_notes
            again = recovered.publish_generated(_ruleset(_rule("r4", "needle4")))
            assert again.version == 4

    def test_older_manifest_layout_recovers_versions_with_a_note(self, tmp_path):
        """Once compaction has dropped the journal prefix, an older-layout
        manifest recovers from its version blobs, with a note."""
        store, _ = _store(tmp_path)
        with store:
            registry = RulesetRegistry(store=store)
            registry.publish_generated(_ruleset(_rule("r1", "a")), label="first")
            registry.publish_generated(_ruleset(_rule("r2", "b")), label="second")
            registry.activate(1)
            epoch = _write_older_manifest(store, current_version=1)
            store.journal.rotate()
            store.journal.append("snapshot", {"epoch": epoch})
            assert store.journal.drop_segments_through(epoch)

        store, report = _store(tmp_path)
        with store:
            assert report.ok
            recovered = RulesetRegistry.from_store(store)
            assert recovered.versions() == [1, 2]
            assert recovered.current_version() == 1
            assert recovered.current().label == "first"
            assert len(recovered.recovery_notes) == 1
            note = recovered.recovery_notes[0]
            assert note.startswith(f"snapshot@{epoch}")
            assert "tombstones" in note and "numbering" in note
            assert recovered.publish_generated(_ruleset(_rule("r3", "c"))).version == 3


def _write_older_manifest(store, current_version: int, namespace: str = "") -> int:
    """Write a snapshot manifest in the older layout (a pickled
    whole-registry blob plus the live version blobs, no numbering or
    tombstones) at the journal's last epoch; returns that epoch."""
    live = {}
    for record in store.journal.replay():
        if record.type == "publish":
            live[str(record.data["version"])] = record.data["blob"]
        elif record.type == "retire":
            live.pop(str(record.data["version"]), None)
    epoch = store.journal.last_epoch
    older = {
        "epoch": epoch,
        "registry_blob": store.blobs.put(b"RSREG2 pickled registry"),
        "version_blobs": live,
        "current_version": current_version,
        "namespace": namespace,
        "created_at": 1.0,
    }
    (store.manifests.directory / f"snapshot-{epoch:012d}.json").write_text(
        json.dumps(older), encoding="utf-8"
    )
    return epoch


class TestSnapshotManifest:
    def test_round_trip(self):
        manifest = SnapshotManifest(
            epoch=7,
            version_blobs={1: "b" * 64, 2: "c" * 64},
            current_version=2,
            namespace="acme",
            next_version=4,
            min_atom_length=3,
            retired=[{"version": 3, "reason": "noisy"}],
            created_at=123.0,
        )
        again = SnapshotManifest.from_dict(manifest.to_dict())
        assert again == manifest
        assert again.referenced_blobs() == {"b" * 64, "c" * 64}
