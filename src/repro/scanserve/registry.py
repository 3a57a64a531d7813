"""Versioned ruleset registry with atomic hot-swap, merge/stack publishes
and a publish event bus.

A long-running scanning service must pick up newly generated rule sets
without dropping traffic: the pipeline publishes a new
:class:`RulesetVersion` (rules + prebuilt prefilter index), and the registry
swaps the *current* pointer atomically under a lock.  In-flight scans keep
the version they resolved at entry; result caches key on the version number
so stale entries can never serve a new ruleset's traffic.  Old versions stay
addressable for rollback.

Sharded generation adds two first-class publish semantics on top of the
plain one:

* :meth:`RulesetRegistry.publish_merged_set` — publish the **one** version
  :func:`merge_shard_rulesets` unions from several generation shards
  (rule-name collisions resolved deterministically), recording per-shard
  :class:`ShardProvenance`;
* :meth:`RulesetRegistry.publish_stacked` — publish the shards as a chain
  of **cumulative layers** (layer *k* serves the union of the first *k*
  shards), each carrying a ``parent`` pointer to the layer below and a
  shared ``stack_id``, so activating a layer's parent peels the newest
  shard's contribution back off.

Anything interested in version changes subscribes to the registry's event
bus (:meth:`RulesetRegistry.subscribe`): every publish and every explicit
activation emits a typed :class:`PublishEvent` *after* the swap, outside the
registry lock, so subscribers (e.g. a :class:`~repro.scanserve.service.
ScanService` re-scanning its recency window) may freely call back into the
registry.
"""

from __future__ import annotations

import gc
import pickle
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

from repro.obs.metrics import get_registry as _obs_registry
from repro.obs.trace import get_tracer
from repro.scanserve.atoms import DEFAULT_MIN_ATOM_LENGTH
from repro.scanserve.index import RuleIndex
from repro.semgrepx.compiler import CompiledSemgrepRuleSet
from repro.utils.hashing import stable_digest
from repro.yarax.compiler import CompiledRuleSet

if TYPE_CHECKING:  # pragma: no cover - typing only; scanserve stays import-light
    from repro.store.recovery import RuleStore
    from repro.store.snapshots import SnapshotManifest

#: Event kinds carried by :class:`PublishEvent`.
PUBLISH = "publish"
MERGED = "merged"
STACKED = "stacked"
ACTIVATE = "activate"


@dataclass
class ShardProvenance:
    """What one generation shard contributed to a merged/stacked version."""

    shard: str
    rules: list[str] = field(default_factory=list)  # rule names after merge
    rejected: int = 0
    renamed: list[str] = field(default_factory=list)  # post-collision names
    deduplicated: int = 0  # identical rules already contributed by an earlier shard

    def describe(self) -> str:
        extras = []
        if self.renamed:
            extras.append(f"{len(self.renamed)} renamed")
        if self.deduplicated:
            extras.append(f"{self.deduplicated} deduped")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return f"{self.shard}: {len(self.rules)} rules{suffix}"


@dataclass
class RulesetVersion:
    """An immutable published ruleset plus its prebuilt index.

    ``cache_key`` identifies the ruleset's *content* for result caches: two
    versions share a key iff they were published from identical rule
    sources, so republishing the same rules keeps serving cached results.
    When no content digest is available the key is unique per publish —
    correct, just never shared.

    ``parent`` / ``stack_id`` are set on stacked layers (see
    :meth:`RulesetRegistry.publish_stacked`); ``provenance`` records the
    per-shard contributions of a merged or stacked publish.
    """

    version: int
    yara: Optional[CompiledRuleSet]
    semgrep: Optional[CompiledSemgrepRuleSet]
    index: RuleIndex
    label: str = ""
    cache_key: str = ""
    created_at: float = field(default_factory=time.time)
    parent: Optional[int] = None
    stack_id: str = ""
    provenance: list[ShardProvenance] = field(default_factory=list)

    @property
    def rule_count(self) -> int:
        yara = len(self.yara.rules) if self.yara is not None else 0
        semgrep = len(self.semgrep.rules) if self.semgrep is not None else 0
        return yara + semgrep

    def describe(self) -> str:
        stats = self.index.stats()
        label = f" ({self.label})" if self.label else ""
        lineage = f" <- v{self.parent}" if self.parent is not None else ""
        shards = f", {len(self.provenance)} shards" if self.provenance else ""
        return (
            f"v{self.version}{label}{lineage}: {self.rule_count} rules, "
            f"{stats.atoms} atoms, {stats.indexed_fraction:.0%} indexed{shards}"
        )

    # -- serialization ------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The published version — compiled rules, packed index, provenance —
        as one self-contained blob.

        This is what process-pool shard workers receive: one
        :meth:`from_bytes` call attaches them to the exact tables the
        registry compiled at publish time, instead of re-deriving the index
        per worker.  The packed automaton inside serialises via its own
        table format (see :mod:`repro.scanserve.packed`), not by walking
        its object graph.
        """
        return _VERSION_BLOB_MAGIC + pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RulesetVersion":
        if not blob.startswith(_VERSION_BLOB_MAGIC):
            raise ValueError("not a RulesetVersion blob")
        # unpickling allocates the whole rule graph (hundreds of thousands of
        # container objects for a registry-scale set) and none of it is
        # garbage, so the cycle collector's passes over it are pure waste
        collecting = gc.isenabled()
        gc.disable()
        try:
            version = pickle.loads(blob[len(_VERSION_BLOB_MAGIC):])
        finally:
            if collecting:
                gc.enable()
        if not isinstance(version, cls):
            raise ValueError(f"blob decoded to {type(version).__name__}, not {cls.__name__}")
        return version


# bumped whenever the pickled object graph changes shape, so a blob written
# by an older layout fails ``from_bytes`` with a ValueError instead of an
# unpickling error (journal replay records such a publish as unrecoverable)
_VERSION_BLOB_MAGIC = b"RSV2"


@dataclass(frozen=True)
class RetirementRecord:
    """Tombstone of a retired version: who dropped it and why.

    The version's rules and index are freed on retirement; the record (a
    few strings) stays addressable so ``describe()`` and audits can answer
    "where did v3 go?" — essential once automated policies (the arena's
    auto-retire) drop versions without a human in the loop.
    """

    version: int
    label: str = ""
    reason: str = ""
    retired_by: str = ""
    retired_at: float = field(default_factory=time.time)
    rule_count: int = 0

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "label": self.label,
            "reason": self.reason,
            "retired_by": self.retired_by,
            "retired_at": self.retired_at,
            "rule_count": self.rule_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetirementRecord":
        return cls(
            version=int(data.get("version", 0)),
            label=str(data.get("label", "")),
            reason=str(data.get("reason", "")),
            retired_by=str(data.get("retired_by", "")),
            retired_at=float(data.get("retired_at", 0.0)),
            rule_count=int(data.get("rule_count", 0)),
        )

    def describe(self) -> str:
        label = f" ({self.label})" if self.label else ""
        by = f" by {self.retired_by}" if self.retired_by else ""
        why = f": {self.reason}" if self.reason else ""
        return f"v{self.version}{label} retired{by}{why}"


#: Retirement tombstones kept addressable per registry.
_MAX_RETIREMENT_RECORDS = 100


@dataclass
class PublishEvent:
    """One registry state change, delivered to every subscriber.

    ``kind`` is one of ``publish`` / ``merged`` / ``stacked`` /
    ``activate``; ``activated`` tells whether the *live* version changed
    (subscribers that only care about serving traffic — live re-scan — can
    ignore everything else).  ``previous_version`` is what was live before.
    ``namespace`` is the emitting registry's namespace (empty for the
    default single-tenant registry), so a bridge fanning events from many
    tenant registries into one stream can attribute each event.
    """

    version: RulesetVersion
    kind: str = PUBLISH
    activated: bool = True
    previous_version: Optional[int] = None
    namespace: str = ""


#: Subscriber callback signature.
PublishListener = Callable[[PublishEvent], None]


def merge_shard_rulesets(
    shards: Sequence[Tuple[str, object]],
) -> Tuple[object, list[ShardProvenance]]:
    """Union several generated rule sets into one, deterministically.

    ``shards`` is a sequence of ``(shard label, rule set)`` pairs, where a
    rule set duck-types :class:`repro.core.rules.GeneratedRuleSet` (``rules``
    / ``rejected`` lists of dataclass rules with ``format`` / ``name`` /
    ``text`` / ``cluster_id`` / ``origin`` fields).  Collision policy:

    * identical ``(format, name, text, cluster id)`` across shards — a true
      duplicate (two shards did the same work, e.g. round-robin shards that
      re-clustered overlapping content): deduplicated, the first shard keeps
      it and the later shard records a dedup;
    * same ``(format, name)`` but **different text** — the later rule is
      renamed ``<name>__<shard label>`` (both its ``name`` and the
      identifier inside its rule text), so no contribution is silently
      dropped;
    * same name *and* text but different cluster ids — kept as-is: a single
      session keeps such pairs too (its compilers de-duplicate names
      positionally), and dropping one would break single-session parity.

    The merged rules are ordered by ``(cluster id, format, origin, name)`` —
    exactly the order a single session emits (its refine stage sorts groups
    by ``(cluster, format, origin)``), so merging cluster-sharded outputs
    reproduces the single-session rule set bit for bit.
    """
    # deferred import: scanserve stays import-independent of the pipeline
    # layer at module level; merging inherently produces a pipeline container
    from repro.core.rules import GeneratedRuleSet

    merged = GeneratedRuleSet()
    provenance: list[ShardProvenance] = []
    texts_by_name: dict[tuple[str, str], set[str]] = {}  # (format, name) -> texts
    seen_exact: set[tuple] = set()  # (format, name, text, cluster id)
    collected: list[tuple[tuple, object]] = []

    for shard_label, rule_set in shards:
        record = ShardProvenance(shard=str(shard_label))
        record.rejected = len(getattr(rule_set, "rejected", []))
        if not merged.model:
            merged.model = getattr(rule_set, "model", "")
        for rule in rule_set.rules:
            exact = (rule.format, rule.name, rule.text, rule.cluster_id)
            if exact in seen_exact:
                record.deduplicated += 1
                continue
            known_texts = texts_by_name.get((rule.format, rule.name))
            if known_texts is not None and rule.text not in known_texts:
                suffix = str(shard_label)
                renamed = _renamed_rule(rule, suffix)
                attempt = 2
                while renamed.text not in texts_by_name.get(
                    (renamed.format, renamed.name), {renamed.text}
                ):
                    renamed = _renamed_rule(rule, f"{suffix}_{attempt}")
                    attempt += 1
                record.renamed.append(renamed.name)
                rule = renamed
                exact = (rule.format, rule.name, rule.text, rule.cluster_id)
            seen_exact.add(exact)
            texts_by_name.setdefault((rule.format, rule.name), set()).add(rule.text)
            record.rules.append(rule.name)
            cluster = rule.cluster_id if rule.cluster_id is not None else 1 << 30
            sort_key = (cluster, rule.format, rule.origin, rule.name)
            collected.append((sort_key, rule))
        provenance.append(record)

    for _, rule in sorted(collected, key=lambda item: item[0]):
        merged.add(rule)
    for _, rule_set in shards:
        merged.rejected.extend(getattr(rule_set, "rejected", []))
    return merged, provenance


def _renamed_rule(rule, shard_label: str):
    """A copy of ``rule`` renamed to avoid a cross-shard name collision.

    The identifier inside the rule text is rewritten too, so the compiled
    rule reports the resolved name.
    """
    safe = "".join(c if c.isalnum() else "_" for c in str(shard_label)) or "shard"
    new_name = f"{rule.name}__{safe}"
    text = rule.text
    if rule.format == "yara":
        text = text.replace(f"rule {rule.name}", f"rule {new_name}", 1)
    else:
        for marker in (f"- id: {rule.name}", f"id: {rule.name}"):
            if marker in text:
                text = text.replace(marker, marker.replace(rule.name, new_name), 1)
                break
    return replace(rule, name=new_name, text=text)


class RulesetRegistry:
    """Thread-safe registry of published ruleset versions."""

    def __init__(
        self,
        min_atom_length: int = DEFAULT_MIN_ATOM_LENGTH,
        namespace: str = "",
        store: Optional["RuleStore"] = None,
    ) -> None:
        self.min_atom_length = min_atom_length
        self.namespace = namespace  # stamped on every PublishEvent
        self._lock = threading.Lock()
        self._versions: dict[int, RulesetVersion] = {}
        self._current: Optional[int] = None
        self._next_version = 1
        self._subscribers: dict[int, PublishListener] = {}
        self._next_subscriber = 1
        self._retired: dict[int, RetirementRecord] = {}  # bounded tombstones
        self._blob_digests: dict[int, str] = {}  # version -> its blob in ``store``
        self.subscriber_errors: list[str] = []  # bounded; diagnostics only
        self.store = store  # durable journal+blobs (see repro.store); optional
        self.recovery_notes: list[str] = []  # anomalies from the last recovery

    # -- event bus ----------------------------------------------------------------
    def subscribe(self, on_publish: PublishListener) -> int:
        """Register a listener for every publish/activate; returns a token.

        Listeners run synchronously in the publishing thread, *after* the
        version swap and outside the registry lock (re-entering the registry
        from a listener is safe).  A listener that raises is recorded in
        ``subscriber_errors`` and does not affect the publish or the other
        listeners.
        """
        with self._lock:
            token = self._next_subscriber
            self._next_subscriber += 1
            self._subscribers[token] = on_publish
            return token

    def unsubscribe(self, token: int) -> bool:
        with self._lock:
            return self._subscribers.pop(token, None) is not None

    def _notify(self, event: PublishEvent) -> None:
        with self._lock:
            listeners = list(self._subscribers.values())
        for listener in listeners:
            try:
                listener(event)
            except Exception as exc:  # a broken subscriber must not kill publishes
                self.subscriber_errors.append(f"{type(exc).__name__}: {exc}")
                del self.subscriber_errors[:-20]

    # -- publishing ---------------------------------------------------------------
    def publish(
        self,
        yara: Optional[CompiledRuleSet] = None,
        semgrep: Optional[CompiledSemgrepRuleSet] = None,
        label: str = "",
        activate: bool = True,
        content_digest: str = "",
    ) -> RulesetVersion:
        """Publish a new version; the index is built before the swap so the
        service never observes a half-initialised ruleset.

        ``content_digest`` (a stable digest of the rule sources) lets result
        caches recognise the same ruleset across processes; without one the
        version gets a unique key and its cached results die with it.
        """
        return self._publish(
            yara=yara, semgrep=semgrep, label=label, activate=activate,
            content_digest=content_digest, kind=PUBLISH,
        )

    def _publish(
        self,
        yara: Optional[CompiledRuleSet],
        semgrep: Optional[CompiledSemgrepRuleSet],
        label: str,
        activate: bool,
        content_digest: str,
        kind: str,
        parent: Optional[int] = None,
        stack_id: str = "",
        provenance: Optional[list[ShardProvenance]] = None,
    ) -> RulesetVersion:
        if yara is None and semgrep is None:
            raise ValueError("publish needs at least one rule set")
        with get_tracer().span("registry.publish", kind=kind) as span:
            index = RuleIndex(
                yara=yara,
                semgrep=semgrep,
                min_atom_length=self.min_atom_length,
            )
            span.set_attr("lane", index.lane)
        obs = _obs_registry()
        obs.counter(
            "repro_registry_publishes_total",
            "Ruleset versions published, by publish kind.",
            ("kind",),
        ).inc(kind=kind)
        obs.counter(
            "repro_index_builds_total",
            "Prefilter indexes built, by selected lane.",
            ("lane",),
        ).inc(lane=index.lane)
        cache_key = content_digest or f"unshared-{uuid.uuid4().hex}"
        with self._lock:
            previous = self._current
            version = RulesetVersion(
                version=self._next_version,
                yara=yara,
                semgrep=semgrep,
                index=index,
                label=label,
                cache_key=cache_key,
                parent=parent,
                stack_id=stack_id,
                provenance=list(provenance or []),
            )
            # write-ahead: the journal record (and its version blob) must be
            # durable *before* the in-memory swap — a crash mid-journal leaves
            # a torn record recovery truncates, never a half-published version
            digest = self._journal_publish(version, kind=kind, activated=activate)
            self._next_version += 1
            self._versions[version.version] = version
            if digest:
                self._blob_digests[version.version] = digest
            if activate:
                self._current = version.version
        self._notify(
            PublishEvent(
                version=version, kind=kind, activated=activate,
                previous_version=previous, namespace=self.namespace,
            )
        )
        return version

    def publish_generated(self, ruleset, label: str = "", activate: bool = True) -> RulesetVersion:
        """Publish a pipeline output (:class:`repro.core.rules.GeneratedRuleSet`).

        Duck-typed so ``scanserve`` stays import-independent of the pipeline
        layer: any object with ``yara_rules`` / ``semgrep_rules`` lists and
        ``compile_yara()`` / ``compile_semgrep()`` works.
        """
        return self._publish_ruleset(
            ruleset, label=label, activate=activate, kind=PUBLISH
        )

    def _publish_ruleset(
        self,
        ruleset,
        label: str,
        activate: bool,
        kind: str,
        parent: Optional[int] = None,
        stack_id: str = "",
        provenance: Optional[list[ShardProvenance]] = None,
    ) -> RulesetVersion:
        yara = ruleset.compile_yara() if ruleset.yara_rules else None
        semgrep = ruleset.compile_semgrep() if ruleset.semgrep_rules else None
        digest = stable_digest(
            "\x00".join(
                f"{rule.format}\x01{rule.name}\x01{rule.text}"
                for rule in sorted(
                    ruleset.rules, key=lambda r: (r.format, r.name, r.text)
                )
            )
        )
        return self._publish(
            yara=yara, semgrep=semgrep, label=label, activate=activate,
            content_digest=digest, kind=kind, parent=parent, stack_id=stack_id,
            provenance=provenance,
        )

    def publish_merged_set(
        self,
        merged,
        provenance: Sequence[ShardProvenance],
        label: str = "",
        activate: bool = True,
    ) -> RulesetVersion:
        """Publish a fleet rule set merged by :func:`merge_shard_rulesets`.

        ``merged`` and ``provenance`` are the two halves that function
        returns; the published version carries the provenance and emits a
        ``merged`` :class:`PublishEvent`.
        """
        if not merged.rules:
            raise ValueError("no shard contributed any rules")
        return self._publish_ruleset(
            merged, label=label, activate=activate, kind=MERGED,
            provenance=list(provenance),
        )

    def publish_stacked(
        self,
        shards: Sequence[Tuple[str, object]],
        label: str = "",
        activate: bool = True,
        parent: Optional[int] = None,
    ) -> list[RulesetVersion]:
        """Publish the shards as a chain of cumulative layer versions.

        Layer *k* contains the merged union of shards ``0..k`` — the top
        layer serves everything, and each layer's ``parent`` points at the
        layer below (the first layer's at ``parent``, e.g. the version the
        stack grew from).  All layers share a ``stack_id``.  Only the top
        layer is activated (when ``activate``), so rolling back one shard's
        contribution is ``registry.activate(version.parent)``.
        """
        if not shards:
            raise ValueError("publish_stacked needs at least one shard")
        stack_id = f"stack-{uuid.uuid4().hex[:12]}"
        layers: list[RulesetVersion] = []
        previous = parent
        for depth in range(len(shards)):
            cumulative, provenance = merge_shard_rulesets(shards[: depth + 1])
            if not cumulative.rules:
                continue
            top = depth == len(shards) - 1
            shard_label = shards[depth][0]
            layer = self._publish_ruleset(
                cumulative,
                label=f"{label}+{shard_label}" if label else str(shard_label),
                activate=activate and top,
                kind=STACKED,
                parent=previous,
                stack_id=stack_id,
                provenance=provenance,
            )
            layers.append(layer)
            previous = layer.version
        if not layers:
            raise ValueError("no shard contributed any rules")
        return layers

    def stack_layers(self, stack_id: str) -> list[RulesetVersion]:
        """All versions of one stacked publish, bottom layer first."""
        with self._lock:
            layers = [
                v for v in self._versions.values() if v.stack_id == stack_id
            ]
        return sorted(layers, key=lambda v: v.version)

    # -- resolution ---------------------------------------------------------------
    def current(self) -> RulesetVersion:
        with self._lock:
            if self._current is None:
                raise LookupError("no ruleset has been published")
            return self._versions[self._current]

    def get(self, version: int) -> RulesetVersion:
        with self._lock:
            try:
                return self._versions[version]
            except KeyError:
                raise LookupError(f"unknown ruleset version {version}") from None

    def activate(self, version: int) -> RulesetVersion:
        """Atomically point the service at an already-published version
        (rollback or staged rollout).  Emits an ``activate`` event when the
        live version actually changes."""
        with self._lock:
            if version not in self._versions:
                raise LookupError(f"unknown ruleset version {version}")
            previous = self._current
            if self.store is not None and previous != version:
                self.store.journal.append("activate", {"version": version})
            self._current = version
            target = self._versions[version]
        if previous != version:
            self._notify(
                PublishEvent(
                    version=target, kind=ACTIVATE, activated=True,
                    previous_version=previous, namespace=self.namespace,
                )
            )
        return target

    def retire(
        self, version: int, reason: str = "", retired_by: str = ""
    ) -> Optional[RetirementRecord]:
        """Drop a non-current version (frees its index).

        ``reason`` / ``retired_by`` stamp a :class:`RetirementRecord`
        tombstone surfaced by :meth:`describe` and :meth:`retirements`, so
        automated retirement (the arena) leaves an audit trail.  Retiring
        an unknown version stays a silent no-op (returns ``None``).
        """
        with self._lock:
            if version == self._current:
                raise ValueError(f"cannot retire the active version v{version}")
            if version not in self._versions:
                return None
            if self.store is not None:
                self.store.journal.append(
                    "retire",
                    {
                        "version": version,
                        "reason": reason,
                        "retired_by": retired_by,
                        "label": self._versions[version].label,
                        "rule_count": self._versions[version].rule_count,
                    },
                )
            dropped = self._versions.pop(version)
            self._blob_digests.pop(version, None)
            record = RetirementRecord(
                version=version,
                label=dropped.label,
                reason=reason,
                retired_by=retired_by,
                rule_count=dropped.rule_count,
            )
            self._remember_retirement(record)
            return record

    def _remember_retirement(self, record: RetirementRecord) -> None:
        self._retired[record.version] = record
        while len(self._retired) > _MAX_RETIREMENT_RECORDS:
            del self._retired[next(iter(self._retired))]

    def retirements(self) -> list[RetirementRecord]:
        """Tombstones of every retired version, oldest version first."""
        with self._lock:
            return [self._retired[v] for v in sorted(self._retired)]

    # -- introspection ------------------------------------------------------------
    def versions(self) -> list[int]:
        with self._lock:
            return sorted(self._versions)

    def current_version(self) -> Optional[int]:
        with self._lock:
            return self._current

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)

    def describe(self) -> str:
        with self._lock:
            current = self._current
            lines = []
            for version in sorted(self._versions):
                marker = "*" if version == current else " "
                lines.append(f"{marker} {self._versions[version].describe()}")
            for version in sorted(self._retired):
                lines.append(f"x {self._retired[version].describe()}")
        return "\n".join(lines) if lines else "(empty registry)"

    # -- durable store ------------------------------------------------------------
    def _journal_publish(self, version: RulesetVersion, kind: str,
                         activated: bool) -> str:
        """Blob the version and journal the publish; returns the blob digest
        ("" without a store)."""
        if self.store is None:
            return ""
        digest = self.store.blobs.put(version.to_bytes())
        self.store.journal.append(
            "publish",
            {
                "version": version.version,
                "blob": digest,
                "label": version.label,
                "kind": kind,
                "activated": activated,
                "cache_key": version.cache_key,
                "parent": version.parent,
                "stack_id": version.stack_id,
                "rule_count": version.rule_count,
            },
        )
        return digest

    def snapshot(self, store: Optional["RuleStore"] = None) -> "SnapshotManifest":
        """Fold the registry's state into a snapshot manifest.

        The manifest lists the blob each live version was published or
        recovered from (nothing is serialized again) and carries the
        current pointer, the next version number, the atom length, the
        namespace and the retirement tombstones as JSON, anchored to the
        journal's current epoch.  Recovery after this point loads the
        manifest and replays only the tail; compaction may drop every
        journal segment at or below its epoch.
        """
        from repro.store.snapshots import SnapshotManifest

        store = store or self.store
        if store is None:
            raise ValueError("snapshot needs a store")
        with self._lock:
            versions = dict(self._versions)
            digests = dict(self._blob_digests)
            current = self._current
            next_version = self._next_version
            retired = [record.to_dict() for record in self._retired.values()]
        version_blobs = {}
        for number, version in sorted(versions.items()):
            digest = digests.get(number)
            if digest is None or digest not in store.blobs:
                # not published into this store: blob it now
                digest = store.blobs.put(version.to_bytes())
            version_blobs[number] = digest
        manifest = SnapshotManifest(
            epoch=store.journal.last_epoch,
            version_blobs=version_blobs,
            current_version=current,
            namespace=self.namespace,
            next_version=next_version,
            min_atom_length=self.min_atom_length,
            retired=retired,
        )
        return store.write_manifest(manifest)

    @classmethod
    def from_store(
        cls,
        store: "RuleStore",
        min_atom_length: int = DEFAULT_MIN_ATOM_LENGTH,
        namespace: str = "",
    ) -> "RulesetRegistry":
        """Recover a registry from its durable store: latest snapshot
        manifest + journal tail replay.

        Every version the manifest lists comes back straight from its blob
        (rules, packed automaton tables, provenance) — **no** yarax/semgrepx
        compilation happens on this path.  Records after the snapshot epoch
        are folded in one by one; publish records attach their version
        blobs the same compile-free way.  A blob that no longer decodes is
        noted in ``recovery_notes`` and skipped.  A manifest in the older
        layout (no ``next_version``) is bypassed while the journal still
        starts at epoch 1: replaying all of it restores the numbering and
        tombstones that layout did not record.  An empty store yields an
        empty registry wired to journal future writes (the keyword
        arguments only matter where no snapshot carries its own
        configuration).
        """
        registry = cls(min_atom_length=min_atom_length, namespace=namespace)
        manifest = store.latest_manifest()
        after = 0
        if manifest is not None and manifest.next_version is None:
            first = next(store.journal.replay(), None)
            if first is not None and first.epoch == 1:
                # an older-layout manifest lacks numbering and tombstones,
                # but no compaction has dropped the journal prefix that
                # holds them: replay the whole journal instead
                registry.namespace = manifest.namespace
                manifest = None
        if manifest is not None:
            registry._restore_snapshot(store, manifest)
            after = manifest.epoch
        registry._replay_store_tail(store, after)
        registry.store = store
        return registry

    def _restore_snapshot(
        self, store: "RuleStore", manifest: "SnapshotManifest"
    ) -> None:
        """Load a snapshot manifest's versions, pointers and tombstones."""
        self.namespace = manifest.namespace
        if manifest.min_atom_length is not None:
            self.min_atom_length = manifest.min_atom_length
        for number, digest in sorted(manifest.version_blobs.items()):
            try:
                version = RulesetVersion.from_bytes(store.blobs.get_verified(digest))
            except (LookupError, ValueError) as exc:
                self.recovery_notes.append(
                    f"snapshot@{manifest.epoch} v{number} unrecoverable: {exc}"
                )
                continue
            self._versions[number] = version
            self._blob_digests[number] = digest
        if manifest.current_version in self._versions:
            self._current = manifest.current_version
        for data in manifest.retired:
            self._remember_retirement(RetirementRecord.from_dict(data))
        if manifest.next_version is None:
            # written before manifests carried numbering and tombstones
            self.recovery_notes.append(
                f"snapshot@{manifest.epoch} has an older layout: tombstones and "
                f"version numbering before it were not restored"
            )
            self._next_version = max(manifest.version_blobs, default=0) + 1
        else:
            self._next_version = manifest.next_version

    def _replay_store_tail(self, store: "RuleStore", after: int) -> None:
        """Fold journal records after ``after`` into the in-memory state."""
        for record in store.journal.replay(after=after):
            data = record.data
            if record.type == "publish":
                digest = str(data.get("blob", ""))
                try:
                    version = RulesetVersion.from_bytes(
                        store.blobs.get_verified(digest)
                    )
                except (LookupError, ValueError) as exc:
                    self.recovery_notes.append(
                        f"publish@{record.epoch} unrecoverable: {exc}"
                    )
                    continue
                self._versions[version.version] = version
                self._blob_digests[version.version] = digest
                self._next_version = max(self._next_version, version.version + 1)
                if data.get("activated"):
                    self._current = version.version
            elif record.type == "activate":
                number = int(data.get("version", 0))
                if number in self._versions:
                    self._current = number
                else:
                    self.recovery_notes.append(
                        f"activate@{record.epoch} targets unknown v{number}"
                    )
            elif record.type == "retire":
                number = int(data.get("version", 0))
                dropped = self._versions.pop(number, None)
                self._blob_digests.pop(number, None)
                if dropped is not None or number not in self._retired:
                    self._remember_retirement(
                        RetirementRecord.from_dict({**data, "retired_at": record.ts})
                    )
