"""Per-shard fleet checkpoints: resume an interrupted orchestrator run.

A fleet run is identified by a *run key* — a digest over everything that
determines its output: the shard plan, publish mode, model, seed, and every
shard's label plus the content fingerprints of its packages.  Two runs over
the same corpus with the same configuration share a key; change any input
and the key (and therefore the checkpoints) no longer match, so ``--resume``
can never splice stale shard output into a different run.

As each shard finishes, :class:`FleetCheckpointer` serializes its
:class:`~repro.core.rules.GeneratedRuleSet` to a content-addressed blob and
journals a ``shard-complete`` record.  On resume, :meth:`reconcile` replays
the journal, classifies every planned shard as *finished* (checkpoint blob
present and intact), or *missing* (no checkpoint — including shards whose
record or blob a crash tore away, which fsck already cleaned), and the
orchestrator re-runs only the missing ones.  Because the registry merge is
deterministic over shard outputs in plan order, the resumed merge is
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.rules import GeneratedRule, GeneratedRuleSet
from repro.store.journal import FLEET_MERGE, FLEET_START, SHARD_COMPLETE
from repro.store.recovery import RuleStore
from repro.store.snapshots import MissingBlob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.package import Package


# -- rule-set blob codec ------------------------------------------------------------
#
# Checkpoint blobs hold *generated text*, not compiled engines: a resumed
# merge recompiles through the exact publish path an uninterrupted run takes,
# which is what makes the outputs bit-identical.

def _rule_to_dict(rule: GeneratedRule) -> dict:
    return {
        "format": rule.format,
        "name": rule.name,
        "text": rule.text,
        "cluster_id": rule.cluster_id,
        "source_packages": list(rule.source_packages),
        "analysis_text": rule.analysis_text,
        "fix_attempts": rule.fix_attempts,
        "compiled_ok": rule.compiled_ok,
        "origin": rule.origin,
    }


def _rule_from_dict(data: dict) -> GeneratedRule:
    return GeneratedRule(
        format=str(data["format"]),
        name=str(data["name"]),
        text=str(data["text"]),
        cluster_id=data.get("cluster_id"),
        source_packages=[str(p) for p in data.get("source_packages", [])],
        analysis_text=str(data.get("analysis_text", "")),
        fix_attempts=int(data.get("fix_attempts", 0)),
        compiled_ok=bool(data.get("compiled_ok", True)),
        origin=str(data.get("origin", "code")),
    )


def rule_set_to_blob(rule_set: GeneratedRuleSet) -> bytes:
    """Serialize a rule set (rules + rejections + model) to a stable blob."""
    payload = {
        "model": rule_set.model,
        "rules": [_rule_to_dict(rule) for rule in rule_set.rules],
        "rejected": [_rule_to_dict(rule) for rule in rule_set.rejected],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def rule_set_from_blob(blob: bytes) -> GeneratedRuleSet:
    payload = json.loads(blob.decode("utf-8"))
    return GeneratedRuleSet(
        rules=[_rule_from_dict(r) for r in payload.get("rules", [])],
        rejected=[_rule_from_dict(r) for r in payload.get("rejected", [])],
        model=str(payload.get("model", "")),
    )


# -- run identity -------------------------------------------------------------------

def shard_fingerprint(label: str, packages: Sequence["Package"]) -> str:
    """Digest one shard's identity: its label + each package's content."""
    hasher = hashlib.sha256()
    hasher.update(label.encode("utf-8"))
    for package in packages:
        hasher.update(b"\x00")
        hasher.update(package.identifier.encode("utf-8"))
        hasher.update(b"\x01")
        hasher.update(package.signature.encode("utf-8"))
    return hasher.hexdigest()


def fleet_run_key(
    plan: str,
    publish: str,
    model: str,
    seed: int,
    shard_prints: Sequence[tuple[str, str]],
) -> str:
    """Digest a whole run's identity from its config + shard fingerprints."""
    hasher = hashlib.sha256()
    for part in (plan, publish, model, str(seed)):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    for label, fingerprint in shard_prints:
        hasher.update(label.encode("utf-8"))
        hasher.update(b"\x01")
        hasher.update(fingerprint.encode("utf-8"))
        hasher.update(b"\x02")
    return hasher.hexdigest()


@dataclass
class ShardCheckpoint:
    """One recovered shard: its prior output, ready to splice into a merge."""

    label: str
    rule_set: GeneratedRuleSet
    seconds: float = 0.0
    epoch: int = 0  # journal epoch of the shard-complete record


@dataclass
class FleetReconciliation:
    """How a planned fleet lines up against the journal's checkpoints."""

    run_key: str
    finished: dict[str, ShardCheckpoint] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    damaged: list[str] = field(default_factory=list)  # record present, blob gone
    merged_epoch: Optional[int] = None  # a prior run already merged

    def describe(self) -> str:
        parts = [
            f"run {self.run_key[:12]}: {len(self.finished)} finished, "
            f"{len(self.missing)} missing"
        ]
        if self.damaged:
            parts.append(f"{len(self.damaged)} damaged (will re-run)")
        if self.merged_epoch is not None:
            parts.append(f"already merged at epoch {self.merged_epoch}")
        return ", ".join(parts)


class FleetCheckpointer:
    """Journal-backed checkpoint log for one orchestrator fleet."""

    def __init__(self, store: RuleStore) -> None:
        self.store = store

    # -- writing ------------------------------------------------------------------
    def begin(self, run_key: str, shard_labels: Sequence[str], plan: str,
              publish: str) -> int:
        return self.store.journal.append(
            FLEET_START,
            {
                "run_key": run_key,
                "shards": list(shard_labels),
                "plan": plan,
                "publish": publish,
            },
        )

    def shard_complete(
        self,
        run_key: str,
        label: str,
        rule_set: GeneratedRuleSet,
        seconds: float = 0.0,
    ) -> int:
        """Blob the shard's output, then journal it (write-ahead order)."""
        digest = self.store.blobs.put(rule_set_to_blob(rule_set))
        return self.store.journal.append(
            SHARD_COMPLETE,
            {
                "run_key": run_key,
                "label": label,
                "rules_blob": digest,
                "rules": len(rule_set.rules),
                "rejected": len(rule_set.rejected),
                "seconds": round(seconds, 6),
            },
        )

    def merge_complete(self, run_key: str, version: Optional[int],
                       cache_key: str = "") -> int:
        return self.store.journal.append(
            FLEET_MERGE,
            {"run_key": run_key, "version": version, "cache_key": cache_key},
        )

    # -- reading ------------------------------------------------------------------
    def reconcile(
        self, run_key: str, shard_labels: Sequence[str]
    ) -> FleetReconciliation:
        """Classify every planned shard against the journal's checkpoints.

        Matching is by ``run_key`` (not epoch), so checkpoints survive
        ``store compact`` re-appending them past a snapshot.  A later
        checkpoint for the same shard wins; a checkpoint whose blob is
        missing or decayed counts as *damaged* and the shard re-runs.
        """
        recon = FleetReconciliation(run_key=run_key)
        latest: dict[str, ShardCheckpoint] = {}
        for record in self.store.journal.replay():
            if record.data.get("run_key") != run_key:
                continue
            if record.type == SHARD_COMPLETE:
                label = str(record.data.get("label", ""))
                digest = str(record.data.get("rules_blob", ""))
                try:
                    rule_set = rule_set_from_blob(
                        self.store.blobs.get_verified(digest)
                    )
                except (MissingBlob, ValueError):
                    latest.pop(label, None)
                    if label not in recon.damaged:
                        recon.damaged.append(label)
                    continue
                latest[label] = ShardCheckpoint(
                    label=label,
                    rule_set=rule_set,
                    seconds=float(record.data.get("seconds", 0.0)),
                    epoch=record.epoch,
                )
            elif record.type == FLEET_MERGE:
                recon.merged_epoch = record.epoch
        for label in shard_labels:
            if label in latest:
                recon.finished[label] = latest[label]
            else:
                recon.missing.append(label)
        return recon


__all__ = [
    "FleetCheckpointer",
    "FleetReconciliation",
    "ShardCheckpoint",
    "fleet_run_key",
    "rule_set_from_blob",
    "rule_set_to_blob",
    "shard_fingerprint",
]
