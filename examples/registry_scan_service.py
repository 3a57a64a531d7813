#!/usr/bin/env python3
"""Scenario: run the scanserve service the way a registry scanner would.

The paper's end goal is deploying generated rules against live package
registries.  This script walks the full operational loop:

1. run a :class:`repro.api.GenerationSession` bound to the service's
   registry — the generated rule set *auto-publishes* as a versioned
   ruleset (the atom-prefilter index is built at publish time, before the
   atomic hot-swap),
2. scan a batch of packages through the sharded scanning service and show
   the per-shard throughput stats,
3. re-scan the same batch to demonstrate the content-hash result cache,
4. generate rules with a second model session, hot-swap them in, and show
   that the version bump surgically invalidates the cache,
5. roll back to the first version,
6. show the per-rule cost telemetry (slowest rules of the run).

Run with::

    python examples/registry_scan_service.py
"""

from __future__ import annotations

from repro.api import (
    GenerationSession,
    RuleLLMConfig,
    ScanService,
    ScanServiceConfig,
)
from repro.corpus import DatasetConfig, build_dataset


def main() -> None:
    print("== build corpus and generate rules ==")
    dataset = build_dataset(DatasetConfig.small())

    # the service keeps one process pool per ruleset version; leaving the
    # block shuts it down
    with ScanService(config=ScanServiceConfig(shards=2, mode="auto")) as service:
        session = GenerationSession(
            RuleLLMConfig.full(model="gpt-4o"), registry=service.registry
        )
        session.add_batch(dataset.malware)
        version1 = session.generate(label="gpt-4o nightly").version
        print(f"published {version1.describe()}")
        stats = version1.index.stats()
        # only the walk lane builds a DFA; the other lanes match the atoms directly
        tables = f" over {stats.automaton_states} DFA states" if stats.automaton_states else ""
        print(f"prefilter: {stats.atoms} atoms on the {stats.lane} lane{tables}\n")

        print("== batch scan ==")
        batch = service.scan_batch(dataset.packages)
        confusion = batch.result.confusion()
        print(
            f"scanned {batch.packages} packages in {batch.elapsed_seconds:.3f}s "
            f"({batch.packages_per_second:.0f} pkg/s, mode={batch.mode})"
        )
        for shard in batch.shard_stats:
            print(
                f"  shard {shard.shard_id}: {shard.packages} packages, "
                f"{shard.packages_per_second:.0f} pkg/s"
            )
        print(f"detections: TP={confusion.true_positive} FP={confusion.false_positive}\n")

        print("== re-scan: served from the result cache ==")
        repeat = service.scan_batch(dataset.packages)
        print(
            f"cache hits {repeat.cache_hits}/{repeat.packages} "
            f"in {repeat.elapsed_seconds:.3f}s\n"
        )

        print("== hot-swap a new ruleset version ==")
        second_session = GenerationSession(
            RuleLLMConfig.full(model="claude-3.5-sonnet"), registry=service.registry
        )
        second_session.add_batch(dataset.malware)
        version2 = second_session.generate(label="claude nightly").version
        print(f"published {version2.describe()}")
        swapped = service.scan_batch(dataset.packages)
        print(
            f"after swap: ruleset v{swapped.ruleset_version}, "
            f"cache hits {swapped.cache_hits} (version bump invalidates)\n"
        )

        print("== rollback ==")
        service.registry.activate(version1.version)
        rolled_back = service.scan_batch(dataset.packages)
        print(
            f"rolled back to v{rolled_back.ruleset_version}, "
            f"cache hits {rolled_back.cache_hits}/{rolled_back.packages}"
        )
        print("\nregistry state:")
        print(service.registry.describe())

        print("\n== per-rule cost telemetry ==")
        for cost in service.top_slow_rules(5):
            print(f"  {cost.describe()}")


if __name__ == "__main__":
    main()
