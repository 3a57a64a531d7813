#!/usr/bin/env python3
"""Scenario: the continuous rule-quality arena closing the loop on decay.

The paper evaluates its generated rules once, against the corpus they were
generated from.  Production rules decay: malware authors re-upload the same
payloads wrapped in fresh obfuscation, and a rule keyed on surface atoms
quietly stops firing.  The :mod:`repro.arena` turns that decay into a
measured, automated lifecycle.  This script demonstrates the whole loop
deterministically under a fixed seed:

1. **decay** — replay traffic escalates from plain re-uploads (round 0) to
   fully base64-wrapped variants (later rounds); rules that only match the
   plain surface stop firing and slide down the leaderboard,
2. **auto-retire** — after ``retire_after`` consecutive decayed rounds the
   lifecycle policy retires them, stamping a reason into the registry's
   :class:`~repro.scanserve.registry.RetirementRecord`,
3. **refeed** — the malicious packages the ruleset *missed* go back
   through a generation session, and the retired version's successor
   holds its healthy survivors plus whatever rules that session refined
   (the names the retired version lacks; the run prints how many),
4. **durability** — every round is journaled to a store, and a runner
   restarted on it rebuilds the leaderboard (scores, trends, ranks,
   statuses) exactly,
5. **auto mode** — a runner subscribed to the registry's publish bus
   scores newly activated versions with no glue code.

Run with::

    python examples/rule_arena.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.api import GenerationSession
from repro.arena import (
    ArenaConfig,
    ArenaRunner,
    LifecyclePolicy,
    ReplayTraffic,
    TrafficConfig,
)
from repro.core.config import RuleLLMConfig
from repro.corpus import DatasetConfig, build_dataset
from repro.scanserve import ScanService, ScanServiceConfig
from repro.store import open_store

SEED = 1633
DECAY_THRESHOLD = 0.4


def rule_names(version) -> set[str]:
    """Names of every YARA and Semgrep rule in a published version."""
    names = set(version.yara.rule_names()) if version.yara is not None else set()
    if version.semgrep is not None:
        names.update(version.semgrep.rule_ids())
    return names


def main() -> None:
    store_dir = Path(tempfile.mkdtemp(prefix="rule_arena_")) / "store"
    store, _ = open_store(store_dir)

    # -- baseline: generate and publish rules from the plain corpus -------------
    dataset = build_dataset(DatasetConfig(scale=0.02, seed=SEED))
    service = ScanService(
        config=ScanServiceConfig(mode="inprocess", match_threshold=1)
    )
    session = GenerationSession(
        config=RuleLLMConfig.full(model="gpt-4o", seed=SEED),
        registry=service.registry,
    )
    session.add_batch(dataset.malware)
    baseline = session.generate(label="arena-baseline")
    print(f"baseline: v{baseline.version.version} "
          f"({len(baseline.rule_set.rules)} rules)")

    # -- the arena: plain traffic in round 0, fully wrapped afterwards ----------
    traffic = ReplayTraffic(dataset.malware, TrafficConfig(
        seed=SEED,
        packages_per_round=16,
        obfuscation_base=0.0,
        obfuscation_step=1.0,  # round 0 plain, round 1+ all wrapped
    ))
    policy = LifecyclePolicy(
        decay_threshold=DECAY_THRESHOLD,
        flag_after=1,
        quarantine_after=1,
        retire_after=2,
    )
    # strict policy: precision alone, silent rules score 0 — the crispest
    # view of "this rule stopped firing when the packaging changed"
    config = ArenaConfig(policy="strict", seed=SEED)
    runner = ArenaRunner(service, traffic, policy=policy, config=config, store=store)
    runner.register_sources(baseline.version.version, baseline.rule_set)
    namespace = service.registry.namespace

    # 1+2: run rounds until the obfuscation shift retires a rule that was
    # genuinely healthy on the plain round-0 traffic (rules that never fired
    # at all may retire earlier; those aren't the interesting decay)
    retire_round = None
    decayed: list = []
    for _ in range(6):
        # read the scored version's rules now: retiring drops it from the
        # registry
        scored = service.registry.current()
        record = runner.run_round()
        assert record.version == scored.version
        print(record.describe())
        decayed = [
            rule for rule in record.retired_rules
            if runner.leaderboard.entry(namespace, rule).trend[0]
            >= DECAY_THRESHOLD
        ]
        if decayed:
            retire_round = record
            break
    assert retire_round is not None, "no healthy rule decayed within 6 rounds"
    assert retire_round.refeed_version is not None
    victim = runner.leaderboard.entry(namespace, decayed[0])
    print(f"\ndecayed: {victim.rule} trend "
          f"{' '.join(f'{s:.2f}' for s in victim.trend)} [{victim.status}]")

    # the registry carries the stamped tombstone
    tombstones = service.registry.retirements()
    assert tombstones and tombstones[0].retired_by == "arena"
    assert "score decay" in tombstones[0].reason
    assert tombstones[0].describe() in service.registry.describe()
    print(f"tombstone: {tombstones[0].describe()}")

    # 3: the successor drops the retired rules; the rules it adds are the
    # ones refined from the missed packages
    assert retire_round.retired_version == scored.version
    retired_names = rule_names(scored)
    refeed_names = rule_names(service.registry.get(retire_round.refeed_version))
    refined = refeed_names - retired_names
    assert not refeed_names & set(retire_round.retired_rules)
    assert service.registry.current_version() == retire_round.refeed_version
    print(f"refeed: v{retire_round.refeed_version} holds {len(refeed_names)} "
          f"rules: {len(refeed_names) - len(refined)} survivors of "
          f"v{retire_round.retired_version}, {len(refined)} refined")

    # 4: a runner restarted on the reopened store rebuilds the exact standings
    store.close()
    store, _ = open_store(store_dir)
    restarted = ArenaRunner(
        service, traffic, policy=policy, config=config, store=store
    )
    assert restarted.leaderboard.to_dict() == runner.leaderboard.to_dict()
    assert restarted.next_round_index == runner.next_round_index
    print(f"restart: leaderboard of {len(restarted.leaderboard)} entries "
          f"rebuilt from {restarted.next_round_index} journaled rounds")
    runner = restarted

    # 5: auto mode — an activated publish is scored with no glue code
    rounds_before = len(runner.history)
    runner.start()
    try:
        session2 = GenerationSession(
            config=RuleLLMConfig.full(model="gpt-4o", seed=SEED + 1),
            registry=service.registry,
        )
        session2.add_batch(dataset.malware)
        session2.generate(label="nightly")  # auto-publish -> arena round
        deadline = time.monotonic() + 30
        while len(runner.history) == rounds_before:
            assert time.monotonic() < deadline, "auto round never ran"
            time.sleep(0.05)
    finally:
        runner.stop(drain=True)
    print(f"auto mode: publish triggered round {runner.history[-1].index} "
          f"against v{runner.history[-1].version}")

    store.close()

    print("\nleaderboard:")
    print(runner.leaderboard.describe(limit=8))
    print("\nall scenarios passed.")


if __name__ == "__main__":
    main()
