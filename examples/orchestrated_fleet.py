#!/usr/bin/env python3
"""Scenario: a sharded generation fleet feeding a live-re-scanning service.

One `GenerationSession` can only chew through a corpus monolithically; at
registry scale the *generation* side wants sharding just like the scanning
side.  This script runs the full orchestrated loop:

1. a baseline version (generated from the first malware wave) is published
   and the whole corpus is scanned — the scan service remembers every
   fingerprint it saw in its bounded **recency ring**,
2. a 3-shard :class:`repro.api.GenerationOrchestrator` partitions the full
   corpus with the **cluster** shard plan (the whole corpus is clustered
   once, whole clusters are dealt to shards, global cluster ids preserved),
   runs one generation session per shard on a small thread pool,
3. the shard outputs publish as **one merged version** with per-shard
   provenance (`merge_shard_rulesets`, then
   `RulesetRegistry.publish_merged_set`),
4. the service — subscribed to the registry's event bus — notices the new
   live version and automatically re-scans its recency window, reporting
   the :class:`repro.api.RescanDelta` (newly flagged / changed / cleared),
5. and because cluster-sharded refinement is exactly the per-cluster slice
   of a monolithic run, the merged rules (and therefore every detection)
   are **bit-for-bit identical** to a single session over the same corpus —
   the script verifies that claim at the end.

Run with::

    python examples/orchestrated_fleet.py
"""

from __future__ import annotations

from repro.api import (
    ClusterShardPlan,
    GenerationOrchestrator,
    GenerationSession,
    RuleLLMConfig,
    ScanService,
    ScanServiceConfig,
)
from repro.corpus import DatasetConfig, build_dataset
from repro.evaluation.detector import RuleScanner


def main() -> None:
    dataset = build_dataset(DatasetConfig.small())
    first_wave = dataset.malware[: len(dataset.malware) // 3]
    config = RuleLLMConfig.full(model="gpt-4o")

    service = ScanService(
        config=ScanServiceConfig(mode="inprocess", live_rescan=True)
    )

    print(f"== baseline: {len(first_wave)} packages, one ordinary session ==")
    baseline = GenerationSession(config, registry=service.registry)
    baseline.add_batch(first_wave)
    print(baseline.generate(label="baseline").describe())

    batch = service.scan_batch(dataset.packages)
    print(
        f"scanned {batch.packages} packages with v{batch.ruleset_version}; "
        f"recency ring holds {len(service.recency_window)} fingerprints\n"
    )

    print(f"== fleet: {len(dataset.malware)} packages over 3 cluster shards ==")
    orchestrator = GenerationOrchestrator(
        config=config,
        plan=ClusterShardPlan(shards=3),
        registry=service.registry,
        max_workers=3,
    )
    fleet = orchestrator.run(dataset.malware, publish="merged", label="fleet")
    print(fleet.describe())
    for record in fleet.version.provenance:
        print(f"  shard {record.describe()}")

    # the merged publish already triggered the subscribed service:
    delta = service.last_rescan
    assert delta is not None and delta.has_changes, "expected a non-empty re-scan"
    print(f"\nlive {delta.describe()}")
    if delta.new:
        print(f"  newly flagged: {', '.join(delta.new[:4])}"
              + (" ..." if len(delta.new) > 4 else ""))

    print("\nregistry state:")
    print(service.registry.describe())

    # fleet output == one monolithic session over the same corpus, bit for bit
    single = GenerationSession(config)
    single.add_batch(dataset.malware)
    single_rules = single.generate().rule_set
    assert [(r.format, r.name, r.text) for r in fleet.rule_set.rules] == [
        (r.format, r.name, r.text) for r in single_rules.rules
    ], "merged fleet rules diverged from the single-session run"

    merged_scan = service.scan_batch(dataset.packages)
    single_scan = RuleScanner(
        yara_rules=single_rules.compile_yara(),
        semgrep_rules=single_rules.compile_semgrep(),
    ).scan(dataset.packages)
    assert [
        (d.package, d.yara_rules, d.semgrep_rules) for d in merged_scan.detections
    ] == [
        (d.package, d.yara_rules, d.semgrep_rules) for d in single_scan.detections
    ], "merged fleet detections diverged from the single-session run"
    print(
        f"\nverified: 3-shard merged output is bit-for-bit identical to a "
        f"single session ({len(single_rules.rules)} rules, "
        f"{merged_scan.packages} detections compared)"
    )


if __name__ == "__main__":
    main()
