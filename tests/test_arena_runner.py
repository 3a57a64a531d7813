"""ArenaRunner integration: round scoring over a real scan service, bounded
history with every round journaled to a store, a restarted runner ranking
exactly where the last one stopped, auto mode on the registry's publish
bus (drain-on-stop), and the retire-without-refeed path."""

from __future__ import annotations

import json
import time

import pytest

from repro.arena import (
    ArenaConfig,
    ArenaRunner,
    Leaderboard,
    LifecyclePolicy,
    ReplayTraffic,
    TrafficConfig,
    replay_rounds,
)
from repro.arena import runner as runner_module
from repro.arena.runner import fold_rounds
from repro.cli import main as cli_main
from repro.corpus.package import MALWARE, Package, PackageFile, PackageMetadata
from repro.scanserve import ScanService, ScanServiceConfig
from repro.store import open_store
from repro.store.journal import ARENA_ROUND, Journal, JournalRecord
from repro.yarax import compile_source

NEEDLE = "arena_runner_needle"


def _malware(name: str, payload: str) -> Package:
    return Package(
        name=name,
        version="1.0",
        metadata=PackageMetadata(name=name),
        files=[PackageFile(path=f"{name}.py", content=payload)],
        label=MALWARE,
        family="arena-runner-test",
    )


def _service_with_rules() -> ScanService:
    """An in-process service with one firing and one silent rule."""
    service = ScanService(
        config=ScanServiceConfig(mode="inprocess", match_threshold=1)
    )
    service.registry.publish(
        yara=compile_source(
            f'rule hits {{ strings: $a = "{NEEDLE}" condition: $a }}\n'
            'rule silent { strings: $a = "never_in_any_traffic" condition: $a }'
        ),
        label="runner-test",
    )
    return service


def _traffic() -> ReplayTraffic:
    malware = [
        _malware("mal-a", f"x = '{NEEDLE}'"),
        _malware("mal-b", f"y = '{NEEDLE}'; import os"),
    ]
    return ReplayTraffic(
        malware,
        TrafficConfig(seed=17, packages_per_round=10, chunk_size=4,
                      rename_probability=1.0),
    )


def _journaled_board(store) -> Leaderboard:
    board = Leaderboard()
    replay_rounds(store.journal.records_by_type(ARENA_ROUND), board)
    return board


class TestRunRound:
    def test_round_scores_and_ranks(self):
        service = _service_with_rules()
        runner = ArenaRunner(
            service,
            _traffic(),
            config=ArenaConfig(policy="strict", refeed=False),
        )
        record = runner.run_round()
        assert record.version == 1
        assert record.packages == 10
        assert record.malicious + record.benign == 10
        by_rule = {s.rule: s for s in record.scores}
        assert set(by_rule) == {"hits", "silent"}
        assert by_rule["hits"].score == 1.0  # every malicious variant carries it
        assert by_rule["silent"].score == 0.0
        assert runner.leaderboard.entry(service.registry.namespace, "hits").rank == 1

    def test_two_runners_agree(self):
        records = []
        for _ in range(2):
            runner = ArenaRunner(
                _service_with_rules(), _traffic(),
                config=ArenaConfig(policy="strict", refeed=False),
            )
            records.append(runner.run_round())
        assert [s.to_dict() for s in records[0].scores] == [
            s.to_dict() for s in records[1].scores
        ]

    def test_history_is_bounded_and_persisted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "HISTORY_LIMIT", 2)
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            runner = ArenaRunner(
                _service_with_rules(), _traffic(),
                config=ArenaConfig(policy="strict", refeed=False),
                store=store,
            )
            for _ in range(4):
                runner.run_round()
            assert [r.index for r in runner.history] == [2, 3]
            journaled = store.journal.records_by_type(ARENA_ROUND)
        assert [r.data["index"] for r in journaled] == [0, 1, 2, 3]

    def test_decay_statuses_reach_the_saved_board(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            runner = ArenaRunner(
                _service_with_rules(), _traffic(),
                policy=LifecyclePolicy(flag_after=1, quarantine_after=2,
                                       retire_after=3),
                config=ArenaConfig(policy="strict", refeed=False),
                store=store,
            )
            runner.run_round()  # silent decays -> flagged
            namespace = runner.registry.namespace
            saved = _journaled_board(store)
            assert saved.entry(namespace, "silent").status == "flagged"
            runner.run_round()
            runner.run_round()  # third consecutive decay -> retired
            assert runner.tracker.retired_rules() == ["silent"]
            saved = _journaled_board(store)
        assert saved.entry(namespace, "silent").status == "retired"

    def test_retire_without_refeed_keeps_version(self):
        runner = ArenaRunner(
            _service_with_rules(), _traffic(),
            policy=LifecyclePolicy(flag_after=1, quarantine_after=1,
                                   retire_after=1),
            config=ArenaConfig(policy="strict", refeed=False),
        )
        record = runner.run_round()
        assert record.retired_rules == ["silent"]
        assert record.refeed_version is None
        assert runner.registry.versions() == [1]  # measurement only, no publish

    def test_refeed_without_sources_or_misses_is_a_noop(self):
        # every malicious package is detected -> empty refinement corpus;
        # no registered sources -> nothing to republish either
        runner = ArenaRunner(
            _service_with_rules(), _traffic(),
            policy=LifecyclePolicy(flag_after=1, quarantine_after=1,
                                   retire_after=1),
            config=ArenaConfig(policy="strict", refeed=True),
        )
        record = runner.run_round()
        assert record.retired_rules == ["silent"]
        assert record.refeed_version is None
        assert record.retired_version is None
        assert runner.registry.versions() == [1]


class TestStoreRestart:
    @pytest.mark.parametrize("compact", [False, True])
    def test_restarted_runner_ranks_exactly_where_it_stopped(
        self, tmp_path, compact
    ):
        root = tmp_path / "store"
        policy = LifecyclePolicy(flag_after=1, quarantine_after=2, retire_after=3)
        config = ArenaConfig(policy="strict", refeed=False)
        store, _ = open_store(root, durable=False)
        with store:
            live = ArenaRunner(_service_with_rules(), _traffic(), policy=policy,
                               config=config, store=store)
            actions = [a.action for _ in range(3) for a in live.run_round().actions]
            assert actions == ["flag", "quarantine", "retire"]  # all on silent
        if compact:
            store, _ = open_store(root, durable=False)
            with store:
                assert store.compact().records_carried == 3

        store, _ = open_store(root, durable=False)
        with store:
            restarted = ArenaRunner(_service_with_rules(), _traffic(),
                                    policy=policy, config=config, store=store)
            assert restarted.leaderboard.to_dict() == live.leaderboard.to_dict()
            assert restarted.next_round_index == 3
            namespace = restarted.registry.namespace
            assert restarted.leaderboard.entry(namespace, "silent").status == (
                "retired"
            )
            assert restarted.run_round().index == 3
            assert restarted.leaderboard.entry(namespace, "hits").rounds == 4

    def test_compaction_carries_one_folded_board(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            live = ArenaRunner(_service_with_rules(), _traffic(),
                               config=ArenaConfig(policy="strict", refeed=False),
                               store=store)
            for _ in range(3):
                live.run_round()
            store.compact()
            carried = store.journal.records_by_type(ARENA_ROUND)
            rebuilt = _journaled_board(store)
        assert [r.data["index"] for r in carried] == [2, 0, 1]  # board first
        assert ["board" in r.data for r in carried] == [True, False, False]
        assert not any("scores" in r.data for r in carried)
        assert rebuilt.to_dict() == live.leaderboard.to_dict()

    def test_interrupted_compaction_counts_each_round_once(
        self, tmp_path, monkeypatch, capsys
    ):
        """A crash between compaction's carried appends and its segment
        drop leaves every round journaled twice."""
        root = tmp_path / "store"
        config = ArenaConfig(policy="strict", refeed=False)
        store, _ = open_store(root, durable=False)
        with store:
            live = ArenaRunner(_service_with_rules(), _traffic(),
                               config=config, store=store)
            for _ in range(3):
                live.run_round()
            monkeypatch.setattr(Journal, "drop_segments_through",
                                lambda self, epoch: [])
            store.compact()
            monkeypatch.undo()
            assert len(store.journal.records_by_type(ARENA_ROUND)) == 6
        store, _ = open_store(root, durable=False)
        with store:
            restarted = ArenaRunner(_service_with_rules(), _traffic(),
                                    config=config, store=store)
        assert restarted.leaderboard.to_dict() == live.leaderboard.to_dict()
        assert restarted.next_round_index == 3
        history = tmp_path / "history.json"
        capsys.readouterr()
        assert cli_main(["arena", "history", str(root),
                         "--json", str(history)]) == 0
        assert capsys.readouterr().out.count("round 1 v1:") == 1
        rounds = json.loads(history.read_text(encoding="utf-8"))["rounds"]
        assert [r["index"] for r in rounds] == [0, 1, 2]

    def test_any_prefix_of_the_folded_rounds_rebuilds_the_board(self, tmp_path):
        """Whichever of compaction's carried copies a crash lets through
        beside the originals, the board comes back the same."""
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            live = ArenaRunner(
                _service_with_rules(), _traffic(),
                policy=LifecyclePolicy(flag_after=1, quarantine_after=2,
                                       retire_after=3),
                config=ArenaConfig(policy="strict", refeed=False),
                store=store,
            )
            for _ in range(3):
                live.run_round()
            originals = store.journal.records_by_type(ARENA_ROUND)
        folded = fold_rounds(originals)
        for cut in range(len(folded) + 1):
            copies = [
                JournalRecord(epoch=100 + at, type=ARENA_ROUND, ts=0.0, data=data)
                for at, data in enumerate(folded[:cut])
            ]
            board = Leaderboard()
            assert replay_rounds(originals + copies, board) == 3
            assert board.to_dict() == live.leaderboard.to_dict(), cut

    def test_round_record_without_scores_only_advances_numbering(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            ArenaRunner(_service_with_rules(), _traffic(),
                        config=ArenaConfig(policy="strict", refeed=False),
                        store=store).run_round()
            # the shape rounds were journaled in before they carried scores
            store.journal.append(ARENA_ROUND, {
                "index": 1, "version": 1, "policy": "strict", "packages": 10,
                "malicious": 5, "retired_rules": [], "retired_version": None,
                "refeed_version": None,
            })
            restarted = ArenaRunner(_service_with_rules(), _traffic(),
                                    config=ArenaConfig(policy="strict",
                                                       refeed=False),
                                    store=store)
        assert restarted.next_round_index == 2
        assert restarted.leaderboard.rounds_recorded == 1
        assert [e.rule for e in restarted.leaderboard.rankings()] == [
            "hits", "silent"
        ]
        assert restarted.leaderboard.entry("", "hits").rounds == 1


class TestAutoMode:
    def test_activated_publish_triggers_a_round(self):
        service = _service_with_rules()
        runner = ArenaRunner(
            service, _traffic(), config=ArenaConfig(policy="strict", refeed=False)
        ).start()
        try:
            service.registry.publish(
                yara=compile_source(
                    f'rule hits2 {{ strings: $a = "{NEEDLE}" condition: $a }}'
                ),
                label="nightly",
            )
            deadline = time.monotonic() + 30
            while not runner.history:
                assert time.monotonic() < deadline, "auto round never ran"
                time.sleep(0.02)
        finally:
            runner.stop(drain=True)
        assert runner.history[0].version == 2
        assert {s.rule for s in runner.history[0].scores} == {"hits2"}

    def test_stop_drains_queued_rounds(self):
        service = _service_with_rules()
        runner = ArenaRunner(
            service, _traffic(), config=ArenaConfig(policy="strict", refeed=False)
        )
        # queue without the worker running, then start -> stop(drain=True)
        runner._pending.put(1)
        runner._pending.put(1)
        runner.start()
        runner.stop(drain=True)
        assert len(runner.history) == 2
        assert runner._pending.qsize() == 0

    def test_double_start_rejected(self):
        runner = ArenaRunner(
            _service_with_rules(), _traffic(),
            config=ArenaConfig(refeed=False),
        ).start()
        try:
            with pytest.raises(RuntimeError):
                runner.start()
        finally:
            runner.stop()
