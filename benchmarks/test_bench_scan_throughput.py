"""Scan throughput: naive per-rule scanning vs the scanserve atom index.

Reproduces the headline claim of the ``repro.scanserve`` subsystem: with a
registry-sized YARA rule set (>= 100 rules — the pipeline's own rules plus
synthetic registry rules mixing plain, ``nocase`` and regex strings, as real
deployments do), indexed scanning is at least 5x faster than naive scanning
while producing bit-for-bit identical detections.  Results (packages/sec for
naive, indexed, and 1-4 service shards, the shards timed on a warm batch)
are written to the gitignored ``benchmarks/out/scan_throughput.json``.
``benchmarks/check_regression.py`` compares that report with the committed
baseline ``benchmarks/reports/scan_throughput.json`` and holds the timing
claim that process shards keep up with in-process scanning, so this test
asserts only what holds on any machine.

The throughput lanes are YARA-only by design: naive YARA scanning is
O(rules x packages) regex evaluation, which is exactly what the atom index
removes.  The Semgrep engine already prefilters on pattern anchors and its
cost is per-file structural matching rather than per-rule text scanning, so
rule-count scaling does not apply there (Semgrep parity with the index is
covered by the tier-1 suite).
"""

import json
import os
import time

from conftest import OUT_DIR, run_once

from repro.evaluation.detector import RuleScanner, prepare_packages
from repro.scanserve import PackedAutomaton, RuleIndex, ScanService, ScanServiceConfig
from repro.utils.hashing import stable_hash
from repro.yarax import compile_source

TARGET_RULE_COUNT = 200
#: Registry-scale regimes: ~1k live rules (a single busy tenant) and 5k
#: (a multi-tenant gateway's merged inventory, the packed lane's home turf).
REGISTRY_SCALE_POINTS = (1000, 5000)
MIN_SPEEDUP = 5.0

#: Atom-vocabulary sizes for the lane-crossover sweep (substring vs DFA
#: walk, over a batch and over one text at a time); texts/sec per lane shows
#: where each lane wins.
CROSSOVER_ATOM_SIZES = (64, 128, 256, 384, 512, 1024, 2048, 4096)
CROSSOVER_TEXTS = 48

#: Ceiling on what the repro.obs seams may cost the scan hot path when the
#: tracer is disabled (the default everywhere outside --trace runs).
MAX_OBS_OVERHEAD = 0.05


def _synthetic_registry_rules(count: int, start: int = 0) -> str:
    """Registry-style filler rules: unique atoms that rarely match.

    Mirrors a production deployment where most of the rule inventory targets
    other malware families than the package being scanned — exactly the
    situation an atom prefilter exploits.  String kinds rotate through the
    mix real registry rules use: case-sensitive literals, ``nocase``
    literals, and regexes with literal cores.
    """
    sources = []
    for i in range(start, start + count):
        token_a = f"registry_atom_{i}_{stable_hash(f'a{i}', bits=32):08x}"
        token_b = f"c2_domain_{i}_{stable_hash(f'b{i}', bits=32):08x}"
        if i % 3 == 0:
            string_a = f'$a = "{token_a}"'
            string_b = f'$b = "{token_b}.example"'
        elif i % 3 == 1:
            string_a = f'$a = "{token_a}" nocase'
            string_b = f'$b = "{token_b}.example" nocase'
        else:
            string_a = f"$a = /{token_a}[0-9a-f]{{4,16}}/"
            string_b = f"$b = /https?:..{token_b}\\.example/"
        sources.append(
            f"rule registry_filler_{i} {{\n"
            f"    strings:\n        {string_a}\n        {string_b}\n"
            f"    condition:\n        any of them\n}}"
        )
    return "\n\n".join(sources)


def test_bench_scan_throughput(benchmark, suite):
    def experiment():
        yara = suite.ruleset.compile_yara()
        filler = compile_source(
            _synthetic_registry_rules(max(0, TARGET_RULE_COUNT - len(yara)))
        )
        yara = yara.extend(filler)
        assert len(yara) >= 100, "speedup claim requires a registry-sized rule set"

        packages = suite.dataset.packages
        prepared = prepare_packages(packages)
        for p in prepared:  # materialise haystacks so both lanes time pure scanning
            p.yara_text

        naive_scanner = RuleScanner(yara_rules=yara)
        start = time.perf_counter()
        naive = naive_scanner.scan(prepared)
        naive_seconds = time.perf_counter() - start

        index = RuleIndex(yara=yara)
        indexed_scanner = RuleScanner(yara_rules=yara, index=index)
        start = time.perf_counter()
        indexed = indexed_scanner.scan(prepared)
        indexed_seconds = time.perf_counter() - start

        # bit-for-bit identical detections
        assert [(d.package, d.yara_rules) for d in naive.detections] == [
            (d.package, d.yara_rules) for d in indexed.detections
        ]

        speedup = naive_seconds / indexed_seconds if indexed_seconds > 0 else float("inf")
        stats = index.stats()
        report = {
            "rules": {
                "yara": len(yara),
                "indexed_fraction": round(stats.indexed_fraction, 4),
                "atoms": stats.atoms,
            },
            "packages": len(packages),
            "naive": {
                "seconds": round(naive_seconds, 4),
                "packages_per_second": round(len(packages) / naive_seconds, 2),
            },
            "indexed": {
                "seconds": round(indexed_seconds, 4),
                "packages_per_second": round(len(packages) / indexed_seconds, 2),
            },
            "speedup": round(speedup, 2),
            "shards": [],
        }

        # service lanes: 1-4 shards (includes per-package preparation cost).
        # Chunked dispatch ships one contiguous batch per worker and fork
        # workers inherit the publish-time packed index.  Each service scans
        # the corpus twice: the first, cold batch starts a process point's
        # pool (``cold_seconds``), and the second reuses it, as every later
        # batch on the same version does (``seconds``, ``packages_per_second``).
        # Whether process shards keep up with in-process is a timing claim,
        # checked on >= 2 cores by check_regression.py; here only detections
        # count.
        cpu_count = os.cpu_count() or 1
        report["cpu_count"] = cpu_count
        expected_detections = [(d.package, d.yara_rules) for d in naive.detections]
        for shards in (1, 2, 4):
            with ScanService(
                config=ScanServiceConfig(shards=shards, mode="auto", enable_cache=False)
            ) as service:
                service.publish(yara=yara, label="bench")
                cold = service.scan_batch(packages)
                batch = service.scan_batch(packages)
            report["shards"].append(
                {
                    "shards": shards,
                    "mode": batch.mode,
                    "workers": batch.workers,
                    "cold_seconds": round(cold.elapsed_seconds, 4),
                    "seconds": round(batch.elapsed_seconds, 4),
                    "packages_per_second": round(batch.packages_per_second, 2),
                }
            )
            for scanned in (cold, batch):
                assert [
                    (d.package, d.yara_rules) for d in scanned.detections
                ] == expected_detections

        # observability tax: scan_batch now crosses repro.obs seams (spans
        # around batch/dispatch/chunk, registry counter and histogram
        # updates).  With the tracer *disabled* — the default — the span
        # seams must be no-ops: measure both unit costs directly, scale them
        # to one batch, and guard the fraction of the measured 1-shard batch
        # time (also enforced by check_regression.py on fresh reports).  An
        # A/B lane with tracing fully on is reported for inspection but not
        # asserted: on a ~100ms batch, scheduler noise dwarfs four spans.
        from repro.obs import (
            configure_tracing,
            disable_tracing,
            get_registry,
            get_tracer,
        )

        tracer = get_tracer()
        assert not tracer.enabled, "bench must start with tracing disabled"
        reps = 100_000
        start = time.perf_counter()
        for _ in range(reps):
            with tracer.span("bench.noop", packages=0):
                pass
        per_span = (time.perf_counter() - start) / reps

        probe = get_registry().counter(
            "repro_bench_obs_probe_total",
            "bench-only unit-cost probe; never emitted by product code",
            ("lane",),
        )
        start = time.perf_counter()
        for _ in range(reps):
            probe.inc(lane="bench")
        per_inc = (time.perf_counter() - start) / reps

        one_shard_seconds = report["shards"][0]["seconds"]
        # per in-process batch: scan.batch + scan.dispatch + one scan.chunk
        # span per chunk (1 here), and ~8 registry updates (batch/package/
        # cache counters + the batch-seconds histogram observe)
        disabled_overhead = per_span * 3.0 + per_inc * 8.0
        overhead_fraction = disabled_overhead / max(one_shard_seconds, 1e-9)

        configure_tracing(enabled=True)
        try:
            traced_service = ScanService(
                config=ScanServiceConfig(
                    shards=1, mode="inprocess", enable_cache=False
                )
            )
            traced_service.publish(yara=yara, label="bench-traced")
            traced_batch = traced_service.scan_batch(packages)
        finally:
            disable_tracing()
        report["obs_overhead"] = {
            "noop_span_ns": round(per_span * 1e9, 1),
            "counter_inc_ns": round(per_inc * 1e9, 1),
            "disabled_overhead_fraction": round(overhead_fraction, 6),
            "traced_inprocess": {
                "seconds": round(traced_batch.elapsed_seconds, 4),
                "packages_per_second": round(
                    traced_batch.packages_per_second, 2
                ),
            },
        }
        assert overhead_fraction <= MAX_OBS_OVERHEAD, (
            f"disabled-tracer obs seams cost {overhead_fraction:.2%} of a "
            f"1-shard batch (ceiling {MAX_OBS_OVERHEAD:.0%})"
        )

        # registry-scale points: 1k live rules (a single busy tenant) and 5k
        # (a gateway's merged multi-tenant inventory).  The indexed lane is
        # timed over the full corpus; the naive lane only over a shrinking
        # subsample — at registry scale full naive scanning is exactly the
        # O(rules x packages) cost this index exists to avoid.
        report["registry_scale"] = []
        registry_yara = yara
        biggest_index = None
        for point_rules in REGISTRY_SCALE_POINTS:
            extra = compile_source(
                _synthetic_registry_rules(
                    point_rules - len(registry_yara), start=len(registry_yara)
                )
            )
            registry_yara = registry_yara.extend(extra)
            assert len(registry_yara) == point_rules

            big_index = RuleIndex(yara=registry_yara)
            biggest_index = big_index
            big_scanner = RuleScanner(yara_rules=registry_yara, index=big_index)
            start = time.perf_counter()
            big_indexed = big_scanner.scan(prepared)
            big_indexed_seconds = time.perf_counter() - start

            subsample = prepared[: min(max(4, 16000 // point_rules), len(prepared))]
            naive_big = RuleScanner(yara_rules=registry_yara)
            start = time.perf_counter()
            naive_big_result = naive_big.scan(subsample)
            naive_big_seconds = time.perf_counter() - start
            assert [
                (d.package, d.yara_rules)
                for d in big_indexed.detections[: len(subsample)]
            ] == [(d.package, d.yara_rules) for d in naive_big_result.detections]

            big_stats = big_index.stats()
            # at registry scale the packed automaton must be the chosen lane
            assert big_stats.lane == "automaton", big_stats
            big_pps = (
                len(prepared) / big_indexed_seconds if big_indexed_seconds > 0 else 0.0
            )
            naive_big_pps = (
                len(subsample) / naive_big_seconds if naive_big_seconds > 0 else 0.0
            )
            report["registry_scale"].append(
                {
                    "rules": len(registry_yara),
                    "indexed_fraction": round(big_stats.indexed_fraction, 4),
                    "atoms": big_stats.atoms,
                    "lane": big_stats.lane,
                    "packed_mode": big_stats.packed_mode,
                    "packed_memory_mb": round(
                        big_stats.packed_memory_bytes / 1e6, 2
                    ),
                    "indexed": {
                        "packages": len(prepared),
                        "seconds": round(big_indexed_seconds, 4),
                        "packages_per_second": round(big_pps, 2),
                    },
                    "naive_subsample": {
                        "packages": len(subsample),
                        "seconds": round(naive_big_seconds, 4),
                        "packages_per_second": round(naive_big_pps, 2),
                    },
                    "speedup": (
                        round(big_pps / naive_big_pps, 2) if naive_big_pps else None
                    ),
                }
            )

        # lane-crossover sweep: texts/sec for each matcher lane (per-atom
        # substring scan, DFA walk) at growing atom-vocabulary sizes, over one
        # batch and over the same texts one at a time (where the walk's cost
        # model keeps small inputs on the per-byte walk).  This is the
        # measurement behind AUTOMATON_THRESHOLD.
        vocabulary = biggest_index._automaton.words
        folded = [p.folded_bytes for p in prepared[:CROSSOVER_TEXTS]]
        report["crossover"] = []
        for size in CROSSOVER_ATOM_SIZES:
            if size > len(vocabulary):
                break
            lanes = PackedAutomaton(vocabulary[:size])
            lanes._find_walk([])  # builds the DFA outside the timed walk
            point = {"atoms": size, "one_text": {}}
            for lane_name, scan in (
                ("substring", lanes._find_substring),
                ("walk", lanes._find_walk),
            ):
                start = time.perf_counter()
                hits = scan(folded)
                seconds = time.perf_counter() - start
                point[lane_name] = round(
                    len(folded) / seconds if seconds > 0 else 0.0, 1
                )
                start = time.perf_counter()
                one_by_one = [scan([text])[0] for text in folded]
                seconds = time.perf_counter() - start
                point["one_text"][lane_name] = round(
                    len(folded) / seconds if seconds > 0 else 0.0, 1
                )
                assert one_by_one == hits, f"{lane_name} one text at a time diverged"
                if lane_name == "substring":
                    expected = hits
                else:
                    assert hits == expected, f"{lane_name} diverged at {size} atoms"
            report["crossover"].append(point)
        return report

    report = run_once(benchmark, experiment)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "scan_throughput.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print("\n" + json.dumps(report, indent=2, sort_keys=True))

    assert report["speedup"] >= MIN_SPEEDUP, (
        f"indexed scanning is only {report['speedup']}x faster than naive "
        f"(claim: >= {MIN_SPEEDUP}x at >= 100 rules)"
    )
