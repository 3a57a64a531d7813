"""`ArenaRunner` — the standing service that makes rules earn their keep.

One *round* is the whole quality loop over one ruleset version:

1. **replay** — stream a seeded traffic round (adversarial variants +
   benign packages) through the version, chunk by chunk, via
   :meth:`~repro.scanserve.service.ScanService.scan_batch`;
2. **score** — fold the chunk results into per-rule verdicts under the
   configured scoring policy (:mod:`repro.arena.scoring`);
3. **rank** — fold the verdicts into the leaderboard
   (:mod:`repro.arena.leaderboard`);
4. **retire** — walk the lifecycle tracker; when a rule crosses the
   retire threshold, publish a successor version *without* it and stamp a
   :class:`~repro.scanserve.registry.RetirementRecord` onto the decayed
   version;
5. **refeed** — the round's missed malicious packages (collected across
   rounds in the :class:`~repro.arena.lifecycle.RefinementCorpus`) go
   back through a generation session; the refined rules are merged with
   the survivors into the successor publish.

The runner can be driven synchronously (:meth:`run_round`) or subscribe
to the registry's :class:`~repro.scanserve.registry.PublishEvent` bus
(:meth:`start`): every *activated* publish is queued and scored by a
worker thread, so a generation fleet's publishes enter the arena with
zero glue.  :meth:`stop` drains the queue by default before the worker
exits.

Successor publishes need the retired version's rule *sources* (compiled
versions keep only matchers).  Callers that publish through a session or
orchestrator hand the rule set over via :meth:`register_sources`; without
sources the successor carries the refined rules alone.

On a :class:`~repro.store.RuleStore` every round is journaled as one
``arena-round`` record carrying its exact ``(rule, score)`` pairs and
``(rule, status)`` lifecycle changes; a restarted runner folds them back
(:func:`replay_rounds`), so it continues the round numbering and ranks
exactly where the last run stopped.  Compaction carries the rounds as
summaries plus one folded board (:func:`fold_rounds`).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.arena.leaderboard import Leaderboard
from repro.arena.lifecycle import (
    RETIRE,
    LifecycleAction,
    LifecyclePolicy,
    LifecycleTracker,
    RefinementCorpus,
    refine_rules,
)
from repro.arena.scoring import (
    RuleScore,
    context_for_batches,
    fold_batches,
    score_rules,
)
from repro.arena.traffic import ReplayTraffic
from repro.obs.metrics import get_registry as _obs_registry
from repro.obs.trace import get_tracer
from repro.scanserve.registry import (
    PublishEvent,
    RulesetVersion,
    merge_shard_rulesets,
)
from repro.scanserve.service import ScanService
from repro.store.journal import ARENA_ROUND

_STOP = object()  # worker-queue sentinel

#: Rounds kept in :attr:`ArenaRunner.history` (the journal keeps them all).
HISTORY_LIMIT = 32

#: ``arena-round`` keys compaction folds into one board (:func:`fold_rounds`).
_FOLDED = ("scores", "statuses", "board")


@dataclass
class ArenaConfig:
    """Knobs of the standing arena."""

    policy: str = "weighted"
    refeed: bool = True  # regenerate from misses when retirement fires
    model: str = "gpt-4o"  # generation profile of refeed sessions
    seed: int = 1633


@dataclass
class ArenaRound:
    """Everything one round decided."""

    index: int
    version: int
    policy: str
    packages: int = 0
    malicious: int = 0
    benign: int = 0
    missed_collected: int = 0
    scores: List[RuleScore] = field(default_factory=list)
    actions: List[LifecycleAction] = field(default_factory=list)
    retired_version: Optional[int] = None
    refeed_version: Optional[int] = None
    elapsed_seconds: float = 0.0
    journal_epoch: Optional[int] = None  # store anchor (None without a store)

    @property
    def retired_rules(self) -> List[str]:
        return sorted(a.rule for a in self.actions if a.action == RETIRE)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "version": self.version,
            "policy": self.policy,
            "packages": self.packages,
            "malicious": self.malicious,
            "benign": self.benign,
            "missed_collected": self.missed_collected,
            "scores": [s.to_dict() for s in self.scores],
            "actions": [a.to_dict() for a in self.actions],
            "retired_rules": self.retired_rules,
            "retired_version": self.retired_version,
            "refeed_version": self.refeed_version,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "journal_epoch": self.journal_epoch,
        }

    def describe(self) -> str:
        top = self.scores[0].describe() if self.scores else "no rules"
        extras = []
        if self.retired_rules:
            extras.append(f"retired {', '.join(self.retired_rules)}")
        if self.refeed_version is not None:
            extras.append(f"refeed -> v{self.refeed_version}")
        suffix = f" [{'; '.join(extras)}]" if extras else ""
        return (
            f"round {self.index} v{self.version}: {self.packages} pkgs "
            f"({self.malicious} malicious), top {top}{suffix}"
        )


class ArenaRunner:
    """Continuous rule-quality rounds over a scan service's registry."""

    def __init__(
        self,
        service: ScanService,
        traffic: ReplayTraffic,
        policy: Optional[LifecyclePolicy] = None,
        config: Optional[ArenaConfig] = None,
        provider=None,
        store=None,
    ) -> None:
        self.service = service
        self.registry = service.registry
        self.traffic = traffic
        self.leaderboard = Leaderboard()
        self.config = config or ArenaConfig()
        self.tracker = LifecycleTracker(policy)
        self.corpus = RefinementCorpus()
        self.history: List[ArenaRound] = []
        self._provider = provider  # refeed sessions reuse one LLM provider
        self._sources: dict[int, object] = {}  # version -> GeneratedRuleSet
        #: Optional :class:`repro.store.RuleStore`: every round appends an
        #: ``arena-round`` record, and a restarted runner folds them back
        #: into its leaderboard and continues the round numbering instead
        #: of starting over at 0 (the traffic's per-round seeds and the
        #: leaderboard's round indexes both key off it).
        self.store = store
        self._round_counter = 0
        if store is not None:
            self._round_counter = replay_rounds(
                store.journal.records_by_type(ARENA_ROUND), self.leaderboard
            )
        self._round_lock = threading.Lock()
        self._pending: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._token: Optional[int] = None
        self._drain = True
        self._suppress_events = False  # arena's own refeed publishes

    @property
    def next_round_index(self) -> int:
        """Index the next round will run as (journal-recovered after a restart)."""
        return self._round_counter

    # -- sources ----------------------------------------------------------------------
    def register_sources(self, version: int, ruleset) -> None:
        """Remember the generated rule set behind a published version.

        Needed to publish a successor *minus* retired rules: compiled
        versions keep matchers, not sources.
        """
        self._sources[version] = ruleset

    # -- auto mode: the registry event bus --------------------------------------------
    def start(self) -> "ArenaRunner":
        """Subscribe to the publish bus and score activations on a worker."""
        if self._thread is not None:
            raise RuntimeError("arena runner already started")
        self._token = self.registry.subscribe(self._on_event)
        self._thread = threading.Thread(
            target=self._worker, name="arena-runner", daemon=True
        )
        self._thread.start()
        return self

    def _on_event(self, event: PublishEvent) -> None:
        if not event.activated or self._suppress_events:
            return
        self._pending.put(event.version.version)

    def _worker(self) -> None:
        while True:
            item = self._pending.get()
            if item is _STOP:
                if self._drain:
                    while True:
                        try:
                            leftover = self._pending.get_nowait()
                        except queue.Empty:
                            break
                        if leftover is not _STOP:
                            self._run_safely(leftover)
                return
            self._run_safely(item)

    def _run_safely(self, version: int) -> None:
        try:
            self.run_round(version)
        except Exception:  # a broken round must not kill the worker
            pass

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Unsubscribe and stop the worker, draining queued rounds by default."""
        if self._token is not None:
            self.registry.unsubscribe(self._token)
            self._token = None
        if self._thread is None:
            return
        self._drain = drain
        self._pending.put(_STOP)
        self._thread.join(timeout)
        self._thread = None

    # -- one round ---------------------------------------------------------------------
    def run_round(self, version: Optional[int] = None) -> ArenaRound:
        """Replay, score, rank and (maybe) retire one version. Thread-safe."""
        with self._round_lock:
            return self._round(version)

    def _round(self, version: Optional[int]) -> ArenaRound:
        with get_tracer().span("arena.round") as span:
            record = self._round_inner(version)
            span.set_attr("index", record.index)
            span.set_attr("packages", record.packages)
            span.set_attr("retired", len(record.retired_rules))
        obs = _obs_registry()
        obs.counter("repro_arena_rounds_total", "Arena rounds completed.").inc()
        obs.histogram(
            "repro_arena_round_seconds", "Wall time per arena round."
        ).observe(record.elapsed_seconds)
        if record.retired_rules:
            obs.counter(
                "repro_arena_retired_rules_total", "Rules auto-retired by the arena."
            ).inc(len(record.retired_rules))
        return record

    def _round_inner(self, version: Optional[int]) -> ArenaRound:
        started = time.perf_counter()
        target = (
            self.registry.current() if version is None else self.registry.get(version)
        )
        rule_names = _rule_names(target)
        index = self._round_counter
        self._round_counter += 1

        batches = []
        missed = 0
        for chunk in self.traffic.round_chunks(index):
            batch = self.service.scan_batch(
                chunk, version=target.version, record_recency=False
            )
            batches.append(batch)
            missed += self.corpus.collect_missed(batch.result, chunk)

        stats = fold_batches(batches, rule_names)
        context = context_for_batches(batches, round_index=index)
        scores = score_rules(stats, policy=self.config.policy, context=context)
        actions = self.tracker.observe(scores, index)
        namespace = self.registry.namespace
        pairs = [[verdict.rule, verdict.score] for verdict in scores]
        statuses = [[action.rule, _status_of(action)] for action in actions]
        self.leaderboard.record_round(
            pairs, index, namespace=namespace, statuses=statuses
        )

        record = ArenaRound(
            index=index,
            version=target.version,
            policy=self.config.policy,
            packages=sum(b.packages for b in batches),
            malicious=context.malicious_packages,
            benign=context.benign_packages,
            missed_collected=missed,
            scores=scores,
            actions=actions,
        )
        retired = [a for a in actions if a.action == RETIRE]
        if retired and self.config.refeed:
            record.refeed_version, record.retired_version = self._refeed(
                target, [a.rule for a in retired], index
            )
        record.elapsed_seconds = time.perf_counter() - started
        if self.store is not None:
            record.journal_epoch = self.store.journal.append(
                ARENA_ROUND,
                {
                    "index": record.index,
                    "version": record.version,
                    "policy": record.policy,
                    "packages": record.packages,
                    "malicious": record.malicious,
                    "retired_rules": record.retired_rules,
                    "retired_version": record.retired_version,
                    "refeed_version": record.refeed_version,
                    # exact, unrounded: replay_rounds rebuilds the live board
                    "namespace": namespace,
                    "scores": pairs,
                    "statuses": statuses,
                },
            )
        self.history.append(record)
        del self.history[:-HISTORY_LIMIT]
        return record

    # -- retire + refeed --------------------------------------------------------------
    def _refeed(
        self, target: RulesetVersion, retired_rules: List[str], round_index: int
    ) -> tuple[Optional[int], Optional[int]]:
        """Publish a successor without the retired rules, refined on misses.

        Returns ``(refeed version, retired version)`` — both ``None`` when
        no successor could be built (no sources *and* no refined rules).
        """
        from repro.core.config import RuleLLMConfig  # deferred: pipeline layer
        from repro.core.rules import GeneratedRuleSet

        kept = None
        source = self._sources.get(target.version)
        if source is not None:
            kept = GeneratedRuleSet(model=getattr(source, "model", ""))
            for rule in source.rules:
                if rule.name not in set(retired_rules):
                    kept.add(rule)

        refined = None
        if len(self.corpus):
            missed = self.corpus.drain()
            result = refine_rules(
                missed,
                config=RuleLLMConfig.full(
                    model=self.config.model, seed=self.config.seed
                ),
                provider=self._provider,
                label=f"arena-refit-r{round_index}",
            )
            if result.rule_set.rules:
                refined = result.rule_set

        label = f"arena-refit-r{round_index}"
        self._suppress_events = True  # don't score our own publish recursively
        try:
            if kept is not None and kept.rules and refined is not None:
                merged, provenance = merge_shard_rulesets(
                    [("kept", kept), ("refit", refined)]
                )
                successor = self.registry.publish_merged_set(
                    merged, provenance, label=label
                )
                self._sources[successor.version] = merged
            elif refined is not None:
                successor = self.registry.publish_generated(refined, label=label)
                self._sources[successor.version] = refined
            elif kept is not None and kept.rules:
                successor = self.registry.publish_generated(kept, label=label)
                self._sources[successor.version] = kept
            else:
                return None, None
        finally:
            self._suppress_events = False

        shown = sorted(retired_rules)
        listed = ", ".join(shown[:4])
        if len(shown) > 4:
            listed += f" (+{len(shown) - 4} more)"
        try:
            self.registry.retire(
                target.version,
                reason=(
                    f"score decay in {listed}; superseded by v{successor.version}"
                ),
                retired_by="arena",
            )
            retired_version: Optional[int] = target.version
        except ValueError:  # the decayed version is still live (not activated over)
            retired_version = None
        return successor.version, retired_version


def journaled_rounds(records: Iterable) -> list:
    """The newest ``arena-round`` record of each round index, in index order.

    A crash inside :meth:`~repro.store.RuleStore.compact` (after it appends
    the carried copies, before it drops the originals) leaves a round in
    the journal twice until the next compaction.
    """
    latest = {record.data["index"]: record for record in records}
    return [latest[index] for index in sorted(latest)]


def replay_rounds(records: Iterable, leaderboard: Leaderboard) -> int:
    """Fold journaled ``arena-round`` records into ``leaderboard``.

    Returns the index the next round runs as.  A record holding a
    compaction's ``board`` replaces the whole board with it, so the rounds
    before it count only through that board.  A record without ``scores``
    (folded by compaction, or journaled before rounds carried them) only
    advances the numbering.
    """
    rounds = journaled_rounds(records)
    for record in rounds:
        data = record.data
        if "board" in data:
            leaderboard.restore(data["board"])
        elif "scores" in data:
            leaderboard.record_round(
                data["scores"], data["index"],
                namespace=data["namespace"], statuses=data["statuses"],
            )
    return rounds[-1].data["index"] + 1 if rounds else 0


def round_summary(data: dict) -> dict:
    """A journaled round without the keys compaction folds into the board:
    what ``arena history`` lists and compaction carries."""
    return {key: value for key, value in data.items() if key not in _FOLDED}


def fold_rounds(records: Iterable) -> List[dict]:
    """The ``arena-round`` data compaction carries in place of ``records``.

    Every round keeps its :func:`round_summary` but loses its ``scores``
    and ``statuses``; the newest one holds the exact ``board`` they fold
    into instead, so the carried size is bounded by rounds plus the board,
    not rounds times rules.  The board record comes first: whichever
    prefix of these a crash lets through, :func:`replay_rounds` still
    rebuilds the same board.
    """
    rounds = journaled_rounds(records)
    board = Leaderboard()
    replay_rounds(rounds, board)
    carried = [round_summary(record.data) for record in rounds]
    if board.rounds_recorded:
        newest = carried.pop()
        newest["board"] = board.state()
        carried.insert(0, newest)
    return carried


def _rule_names(version: RulesetVersion) -> List[str]:
    names: List[str] = []
    if version.yara is not None:
        names.extend(version.yara.rule_names())
    if version.semgrep is not None:
        names.extend(version.semgrep.rule_ids())
    return names


def _status_of(action: LifecycleAction) -> str:
    return {
        "flag": "flagged",
        "quarantine": "quarantined",
        "retire": "retired",
        "recover": "active",
    }[action.action]


__all__ = [
    "ArenaConfig",
    "ArenaRound",
    "ArenaRunner",
    "HISTORY_LIMIT",
    "fold_rounds",
    "journaled_rounds",
    "replay_rounds",
    "round_summary",
]
