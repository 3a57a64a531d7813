"""Sharded generation fleets: partition a corpus, run one session per shard,
publish the outputs as one merged version or a stack of layers.

The paper's pipeline makes one monolithic pass over the corpus; registry
scale wants the *generation* side sharded like the scanning side already is.
:class:`GenerationOrchestrator` does that on top of the existing seams:

1. a pluggable :class:`ShardPlan` partitions the corpus —
   :class:`ClusterShardPlan` clusters the **full** corpus once and deals
   whole clusters to shards (the default: merged output is bit-for-bit what
   one big session would produce), :class:`BehaviorShardPlan` groups by
   malware family / behavior, :class:`RoundRobinShardPlan` just deals
   packages out;
2. one :class:`~repro.api.session.GenerationSession` runs per shard —
   concurrently on a thread pool (stage work is embarrassingly parallel
   across shards) or sequentially when ``max_workers <= 1``, the
   deterministic lane tests use;
3. the shard outputs publish through the registry's fleet semantics:
   ``publish="merged"`` unions them into one version
   (:func:`~repro.scanserve.registry.merge_shard_rulesets`, with rule-name
   collision resolution, then
   :meth:`~repro.scanserve.registry.RulesetRegistry.publish_merged_set`,
   recording per-shard provenance), while
   ``publish="stacked"`` builds a chain of cumulative layers
   (:meth:`~repro.scanserve.registry.RulesetRegistry.publish_stacked`) whose
   parent pointers make single-shard rollback an ``activate`` call.

A :class:`~repro.scanserve.service.ScanService` subscribed to the registry
(``live_rescan``) re-scans its recency window the moment the fleet's
version goes live — see ``examples/orchestrated_fleet.py`` for the full
loop.
"""

from __future__ import annotations

import abc
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.api.session import GenerationSession, SessionResult
from repro.api.stages import PipelineStage, PresetGroupsStage, default_stages
from repro.core.config import RuleLLMConfig
from repro.core.rules import GeneratedRuleSet
from repro.corpus.package import Package
from repro.extraction.clustering import cluster_packages
from repro.extraction.embedding import CodeEmbedder
from repro.llm.base import LLMProvider
from repro.llm.profiles import get_profile
from repro.llm.simulated import SimulatedAnalystLLM
from repro.obs.metrics import get_registry as _obs_registry
from repro.obs.trace import get_tracer
from repro.scanserve.registry import (
    RulesetRegistry,
    RulesetVersion,
    merge_shard_rulesets,
)

#: Publish modes accepted by :meth:`GenerationOrchestrator.run`.
MERGED = "merged"
STACKED = "stacked"
NONE = "none"
_PUBLISH_MODES = (MERGED, STACKED, NONE)


@dataclass
class CorpusShard:
    """One shard of the fleet: a label, its packages and (optionally) a
    preset stage chain replacing the default cluster stage."""

    label: str
    packages: list[Package] = field(default_factory=list)
    stages: Optional[list[PipelineStage]] = None

    def __len__(self) -> int:
        return len(self.packages)


class ShardPlan(abc.ABC):
    """A strategy for partitioning a corpus into generation shards."""

    name: str = "plan"

    @abc.abstractmethod
    def partition(
        self,
        packages: list[Package],
        config: RuleLLMConfig,
        embedder: CodeEmbedder,
    ) -> list[CorpusShard]:
        """Split ``packages`` into shards.  Must be deterministic."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class RoundRobinShardPlan(ShardPlan):
    """Deal packages out round-robin — the simplest even split.

    Each shard re-clusters its own subset, so the merged output is a valid
    rule set but not necessarily identical to a single-session run (use
    :class:`ClusterShardPlan` for that guarantee).
    """

    name = "round-robin"

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        self.shards = shards

    def partition(self, packages, config, embedder):
        return [
            CorpusShard(label=f"rr-{index}", packages=packages[index :: self.shards])
            for index in range(self.shards)
            if packages[index :: self.shards]
        ]


class BehaviorShardPlan(ShardPlan):
    """One shard per malware family / behavior group.

    Packages are keyed by ``family`` (falling back to the first labelled
    behavior, then ``"unlabeled"``).  When ``max_shards`` caps the fleet
    below the number of groups, whole groups are dealt to the least-loaded
    shard (largest groups first) so shard sizes stay balanced.
    """

    name = "behavior"

    def __init__(self, max_shards: Optional[int] = None) -> None:
        if max_shards is not None and max_shards < 1:
            raise ValueError("max_shards must be positive")
        self.max_shards = max_shards

    @staticmethod
    def _key(package: Package) -> str:
        if package.family:
            return package.family
        if package.behaviors:
            return package.behaviors[0]
        return "unlabeled"

    def partition(self, packages, config, embedder):
        groups: dict[str, list[Package]] = {}
        for package in packages:
            groups.setdefault(self._key(package), []).append(package)
        ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        shard_count = len(ordered)
        if self.max_shards is not None:
            shard_count = min(shard_count, self.max_shards)
        bins: list[tuple[list[str], list[Package]]] = [
            ([], []) for _ in range(shard_count)
        ]
        for key, members in ordered:
            # min() keeps the first least-loaded bin: deterministic ties
            labels, packed = min(bins, key=lambda b: len(b[1]))
            labels.append(key)
            packed.extend(members)
        return [
            CorpusShard(label="+".join(labels), packages=packed)
            for labels, packed in bins
            if packed
        ]


class ClusterShardPlan(ShardPlan):
    """Cluster the full corpus once, then deal whole clusters to shards.

    Exactly replicates :class:`~repro.api.stages.ClusterStage` (same
    embedder, hyper-parameters and cluster-count heuristic), hands each
    shard its clusters through a :class:`PresetGroupsStage` that preserves
    the **global** cluster ids, and balances shards greedily by package
    count.  Since refinement groups by ``(cluster, format, origin)`` and
    alignment is per-rule, the union of the shard outputs is bit-for-bit the
    single-session rule set — the property ``publish="merged"`` relies on.
    """

    name = "cluster"

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        self.shards = shards

    def partition(self, packages, config, embedder):
        if not packages:
            return []
        clusters = cluster_packages(packages, embedder=embedder)
        groups = list(enumerate(clusters.clusters))
        shard_count = min(self.shards, len(groups)) or 1
        assigned: list[list[tuple[int, list[Package]]]] = [
            [] for _ in range(shard_count)
        ]
        sizes = [0] * shard_count
        # largest clusters first onto the least-loaded shard (stable ties)
        for cluster_id, members in sorted(
            groups, key=lambda g: (-len(g[1]), g[0])
        ):
            target = min(range(shard_count), key=lambda i: (sizes[i], i))
            assigned[target].append((cluster_id, members))
            sizes[target] += len(members)
        shards: list[CorpusShard] = []
        for index, cluster_groups in enumerate(assigned):
            if not cluster_groups:
                continue
            cluster_groups = sorted(cluster_groups, key=lambda g: g[0])
            shards.append(
                CorpusShard(
                    label=f"clusters-{index}",
                    packages=[p for _, members in cluster_groups for p in members],
                    stages=[PresetGroupsStage(cluster_groups), *default_stages()[1:]],
                )
            )
        return shards


@dataclass
class ShardRun:
    """One shard's execution record."""

    shard: CorpusShard
    result: SessionResult
    seconds: float = 0.0

    @property
    def label(self) -> str:
        return self.shard.label


@dataclass
class FleetResult:
    """Outcome of one orchestrated fleet run."""

    plan: str
    publish: str
    shard_runs: list[ShardRun] = field(default_factory=list)
    rule_set: GeneratedRuleSet = field(default_factory=GeneratedRuleSet)
    version: Optional[RulesetVersion] = None  # merged version / stack top
    layers: list[RulesetVersion] = field(default_factory=list)  # stacked only
    elapsed_seconds: float = 0.0
    workers: int = 1
    run_key: str = ""  # checkpoint identity when a store is attached
    resumed: list[str] = field(default_factory=list)  # shards from checkpoints

    @property
    def shard_count(self) -> int:
        return len(self.shard_runs)

    @property
    def package_count(self) -> int:
        return sum(len(run.shard) for run in self.shard_runs)

    @property
    def published(self) -> bool:
        return self.version is not None

    def describe(self) -> str:
        counts = self.rule_set.counts()
        where = ""
        if self.version is not None:
            where = f" -> registry v{self.version.version}"
            if self.layers:
                chain = "+".join(f"v{layer.version}" for layer in self.layers)
                where += f" (stack {chain})"
        shards = ", ".join(
            f"{run.label}:{len(run.result.rule_set)}r/{len(run.shard)}p"
            for run in self.shard_runs
        )
        return (
            f"fleet[{self.plan}] {self.package_count} packages over "
            f"{self.shard_count} shards ({self.workers} workers): "
            f"{counts['yara']} YARA + {counts['semgrep']} Semgrep rules "
            f"({counts['rejected']} rejected){where} "
            f"in {self.elapsed_seconds:.2f}s [{shards}]"
        )

    def to_dict(self) -> dict:
        counts = self.rule_set.counts()
        return {
            "plan": self.plan,
            "publish": self.publish,
            "workers": self.workers,
            "packages": self.package_count,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "rules": counts,
            "version": self.version.version if self.version else None,
            "layers": [layer.version for layer in self.layers],
            "run_key": self.run_key,
            "resumed": list(self.resumed),
            "merged_cache_key": self.version.cache_key if self.version else "",
            "shards": [
                {
                    "label": run.label,
                    "packages": len(run.shard),
                    "rules": len(run.result.rule_set),
                    "rejected": len(run.result.rule_set.rejected),
                    "seconds": round(run.seconds, 6),
                    "resumed": run.label in self.resumed,
                }
                for run in self.shard_runs
            ],
        }


class GenerationOrchestrator:
    """Run a fleet of generation sessions over a sharded corpus.

    ``max_workers`` bounds the thread pool running shard sessions; ``None``
    picks ``min(shard count, 4)`` and any value ``<= 1`` runs the shards
    sequentially (bit-identical results either way — shards are independent
    and the simulated provider is stateless, so threading only changes
    wall-clock).  Each shard gets its **own** provider from
    ``provider_factory`` (default: a fresh deterministic
    :class:`SimulatedAnalystLLM` with the config's model/seed), so no
    provider state is shared across threads.
    """

    def __init__(
        self,
        config: RuleLLMConfig | None = None,
        plan: ShardPlan | None = None,
        registry: RulesetRegistry | None = None,
        max_workers: Optional[int] = None,
        provider_factory: Optional[Callable[[], LLMProvider]] = None,
        embedder: CodeEmbedder | None = None,
        label: str = "",
        store=None,
    ) -> None:
        self.config = config or RuleLLMConfig()
        self.plan = plan or ClusterShardPlan(shards=2)
        self.registry = registry
        self.max_workers = max_workers
        self.embedder = embedder or CodeEmbedder()
        self.label = label
        self.provider_factory = provider_factory or (
            lambda: SimulatedAnalystLLM(
                profile=get_profile(self.config.model), seed=self.config.seed
            )
        )
        self.results: list[FleetResult] = []
        #: A :class:`repro.store.RuleStore` makes every shard completion a
        #: durable checkpoint and enables ``run(..., resume=True)``.
        self.store = store
        #: Test/CI hook called after each shard's checkpoint lands
        #: (label, completed count) — the kill-and-resume smoke uses it.
        self.on_shard_checkpoint: Optional[Callable[[str, int], None]] = None

    # -- execution ----------------------------------------------------------------
    def run(
        self,
        packages: Iterable[Package],
        publish: str = MERGED,
        label: str = "",
        activate: bool = True,
        resume: bool = False,
    ) -> FleetResult:
        """Partition, generate per shard, and publish the fleet's output.

        ``publish`` is ``"merged"`` (one collision-resolved union version),
        ``"stacked"`` (a chain of cumulative layers, top activated) or
        ``"none"`` (generate only).  Without a bound registry nothing is
        published regardless.  The merged rule set is always computed and
        returned on the :class:`FleetResult`.

        With a bound store, each shard's output checkpoints to the journal
        as it completes, and ``resume=True`` reconciles the plan against
        prior checkpoints (matched by run key: same plan + config + corpus
        content), re-running only the shards without one.  Shards merge in
        plan order either way, so a resumed run's merged publish is
        bit-identical to an uninterrupted one.
        """
        if publish not in _PUBLISH_MODES:
            raise ValueError(f"publish must be one of {_PUBLISH_MODES}, got {publish!r}")
        corpus = list(packages)
        with get_tracer().span(
            "fleet.run", publish=publish, packages=len(corpus)
        ) as fleet_span:
            result = self._run_traced(
                corpus, publish, label, activate, resume, fleet_span
            )
        _obs_registry().counter(
            "repro_fleet_runs_total", "Fleet orchestrator runs."
        ).inc()
        return result

    def _run_traced(
        self,
        corpus: list,
        publish: str,
        label: str,
        activate: bool,
        resume: bool,
        fleet_span,
    ) -> FleetResult:
        started = time.perf_counter()
        with get_tracer().span(
            "fleet.partition", plan=self.plan.name, packages=len(corpus)
        ):
            shards = self.plan.partition(corpus, self.config, self.embedder)
        fleet_span.set_attr("shards", len(shards))
        label = label or self.label

        checkpointer = None
        run_key = ""
        recovered: dict[str, object] = {}
        if self.store is not None:
            # deferred import: the orchestrator works without the store layer
            from repro.store.checkpoints import (
                FleetCheckpointer,
                fleet_run_key,
                shard_fingerprint,
            )

            checkpointer = FleetCheckpointer(self.store)
            labels = [shard.label for shard in shards]
            run_key = fleet_run_key(
                self.plan.name,
                publish,
                self.config.model,
                self.config.seed,
                [
                    (shard.label, shard_fingerprint(shard.label, shard.packages))
                    for shard in shards
                ],
            )
            if resume:
                recovered = checkpointer.reconcile(run_key, labels).finished
            checkpointer.begin(run_key, labels, self.plan.name, publish)

        pending = [shard for shard in shards if shard.label not in recovered]
        workers = self.max_workers
        if workers is None:
            workers = min(len(pending), 4) or 1
        workers = max(1, min(workers, len(pending) or 1))
        live = self._run_shards(pending, workers, checkpointer, run_key)

        # splice checkpointed and live shards back into plan order — the
        # merge's determinism (and the bit-identical resume guarantee)
        # depends on shard order, not on which process ran each shard
        by_label = {run.label: run for run in live}
        runs: list[ShardRun] = []
        resumed: list[str] = []
        for shard in shards:
            if shard.label in by_label:
                runs.append(by_label[shard.label])
                continue
            checkpoint = recovered[shard.label]
            runs.append(
                ShardRun(
                    shard=shard,
                    result=SessionResult(
                        rule_set=checkpoint.rule_set, shard_label=shard.label
                    ),
                    seconds=checkpoint.seconds,
                )
            )
            resumed.append(shard.label)

        labeled = [(run.label, run.result.rule_set) for run in runs]
        fleet = FleetResult(
            plan=self.plan.name,
            publish=publish,
            shard_runs=runs,
            workers=workers,
            run_key=run_key,
            resumed=resumed,
        )
        provenance = []
        if labeled:
            fleet.rule_set, provenance = merge_shard_rulesets(labeled)
        if (
            self.registry is not None
            and publish != NONE
            and fleet.rule_set.rules
        ):
            if publish == MERGED:
                fleet.version = self.registry.publish_merged_set(
                    fleet.rule_set, provenance, label=label, activate=activate
                )
            else:
                fleet.layers = self.registry.publish_stacked(
                    labeled, label=label, activate=activate
                )
                fleet.version = fleet.layers[-1]
        if checkpointer is not None:
            checkpointer.merge_complete(
                run_key,
                fleet.version.version if fleet.version else None,
                cache_key=fleet.version.cache_key if fleet.version else "",
            )
        fleet.elapsed_seconds = time.perf_counter() - started
        self.results.append(fleet)
        return fleet

    def _run_shards(
        self,
        shards: Sequence[CorpusShard],
        workers: int,
        checkpointer=None,
        run_key: str = "",
    ) -> list[ShardRun]:
        completed = 0
        completed_lock = threading.Lock()
        tracer = get_tracer()
        # pool threads don't inherit the contextvar; hand the ambient span
        # context to each shard explicitly so shard spans join this trace
        parent_ctx = tracer.current_context()

        def run_one(shard: CorpusShard) -> ShardRun:
            with tracer.activate(parent_ctx):
                with tracer.span("fleet.shard", shard=shard.label):
                    return run_one_inner(shard)

        def run_one_inner(shard: CorpusShard) -> ShardRun:
            nonlocal completed
            session = GenerationSession(
                config=self.config,
                provider=self.provider_factory(),
                stages=shard.stages,
                embedder=CodeEmbedder(),  # embedders are stateless; one per
                # shard keeps the sessions fully isolated across threads
                shard_label=shard.label,
            )
            session.add_batch(shard.packages)
            shard_started = time.perf_counter()
            result = session.generate(label=shard.label)
            seconds = time.perf_counter() - shard_started
            if checkpointer is not None:
                checkpointer.shard_complete(
                    run_key, shard.label, result.rule_set, seconds
                )
            with completed_lock:
                completed += 1
                count = completed
            if self.on_shard_checkpoint is not None:
                self.on_shard_checkpoint(shard.label, count)
            return ShardRun(shard=shard, result=result, seconds=seconds)

        if workers <= 1 or len(shards) <= 1:
            return [run_one(shard) for shard in shards]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_one, shards))
