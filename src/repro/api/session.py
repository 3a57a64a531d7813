"""Streaming generation sessions that publish straight into the scan registry.

A :class:`GenerationSession` is the stateful front door to the RuleLLM
pipeline: packages are fed incrementally — batch by batch via
:meth:`GenerationSession.add_batch`, or as a backpressured stream drained
from a :class:`repro.scanserve.scheduler.BoundedQueue` via
:meth:`GenerationSession.consume` — and :meth:`GenerationSession.generate`
runs the stage chain over everything accumulated since the last run.  When
the session is bound to a :class:`repro.scanserve.registry.RulesetRegistry`,
each generated rule set auto-publishes as a new ruleset version with atomic
hot-swap, so a co-located :class:`repro.scanserve.service.ScanService` picks
up fresh rules with zero caller glue:

    service = ScanService()
    session = GenerationSession(registry=service.registry)
    session.add_batch(first_wave)
    session.add_batch(second_wave)
    session.generate(label="nightly")        # publishes v1
    service.scan_batch(packages)             # scans with v1, no manual step

Each ``generate`` call consumes the pending packages, so a long-lived
session produces one registry version per call — the closed analyze/craft/
deploy loop of the paper, run continuously.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.api.stages import (
    PipelineRunInfo,
    PipelineStage,
    StageContext,
    default_stages,
)
from repro.core.config import RuleLLMConfig
from repro.core.rules import GeneratedRuleSet
from repro.corpus.package import Package
from repro.extraction.embedding import CodeEmbedder
from repro.llm.base import LLMProvider
from repro.llm.profiles import get_profile
from repro.llm.simulated import SimulatedAnalystLLM
from repro.obs.metrics import get_registry as _obs_registry
from repro.obs.trace import get_tracer
from repro.scanserve.registry import RulesetRegistry, RulesetVersion

_GENERATE_RUNS = _obs_registry().counter(
    "repro_generate_runs_total", "Generation session runs."
)
_STAGE_SECONDS = _obs_registry().histogram(
    "repro_stage_seconds", "Wall time per pipeline stage.", ("stage",)
)
from repro.scanserve.scheduler import BoundedQueue


@dataclass
class SessionResult:
    """Outcome of one ``generate`` call: the rules and where they went."""

    rule_set: GeneratedRuleSet
    version: Optional[RulesetVersion] = None
    info: PipelineRunInfo = field(default_factory=PipelineRunInfo)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    batch_sizes: list[int] = field(default_factory=list)
    shard_label: str = ""  # which fleet shard produced this (orchestrated runs)

    @property
    def published(self) -> bool:
        return self.version is not None

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def describe(self) -> str:
        counts = self.rule_set.counts()
        stages = ", ".join(
            f"{name} {seconds:.2f}s" for name, seconds in self.stage_seconds.items()
        )
        where = f" -> registry v{self.version.version}" if self.version else ""
        shard = f"[{self.shard_label}] " if self.shard_label else ""
        return (
            f"{shard}{self.info.package_count} packages in {len(self.batch_sizes)} "
            f"batch(es): {counts['yara']} YARA + {counts['semgrep']} Semgrep rules "
            f"({counts['rejected']} rejected){where}"
            + (f" [{stages}]" if stages else "")
        )


class GenerationSession:
    """Incremental, stage-based rule generation with registry auto-publish."""

    def __init__(
        self,
        config: RuleLLMConfig | None = None,
        provider: LLMProvider | None = None,
        stages: Sequence[PipelineStage] | None = None,
        registry: RulesetRegistry | None = None,
        auto_publish: bool = True,
        label: str = "",
        embedder: CodeEmbedder | None = None,
        shard_label: str = "",
    ) -> None:
        self.config = config or RuleLLMConfig()
        self.provider = provider or SimulatedAnalystLLM(
            profile=get_profile(self.config.model), seed=self.config.seed
        )
        self.embedder = embedder or CodeEmbedder()
        self.stages: list[PipelineStage] = (
            list(stages) if stages is not None else default_stages()
        )
        self.registry = registry
        self.auto_publish = auto_publish
        self.label = label
        self.shard_label = shard_label
        self._feed_lock = threading.Lock()  # keeps _pending/_batch_sizes coherent
        self._pending: list[Package] = []
        self._batch_sizes: list[int] = []
        self.results: list[SessionResult] = []

    # -- feeding --------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Packages fed since the last ``generate`` call."""
        with self._feed_lock:
            return len(self._pending)

    @property
    def pending_batches(self) -> int:
        with self._feed_lock:
            return len(self._batch_sizes)

    def add_batch(self, packages: Iterable[Package]) -> int:
        """Feed one batch of packages; returns the batch's index this round.

        Empty batches are ignored (a stream drain can legitimately come up
        dry) and do not advance the batch counter.
        """
        batch = list(packages)
        with self._feed_lock:
            if not batch:
                return len(self._batch_sizes)
            self._pending.extend(batch)
            self._batch_sizes.append(len(batch))
            return len(self._batch_sizes)

    def consume(
        self,
        queue: BoundedQueue,
        batch_size: int = 64,
        poll_interval: float = 0.05,
    ) -> int:
        """Drain a :class:`BoundedQueue` package feed until it is closed.

        The feeder side streams packages with ``queue.put`` (blocking while
        the queue is full — the generation side exerts backpressure simply
        by draining slowly) and calls ``queue.close()`` when done.  Packages
        are accumulated into batches of ``batch_size``; a lull in the feed
        (no item within ``poll_interval``) flushes the partial batch, so
        bursty feeds map onto bursty batches.  Returns the number of
        packages consumed.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        consumed = 0
        batch: list[Package] = []

        def flush() -> None:
            nonlocal consumed
            if batch:
                consumed += len(batch)
                self.add_batch(batch)
                batch.clear()

        while True:
            try:
                # a closed queue still hands out its remaining items; only a
                # closed *and empty* queue raises, so nothing can be dropped
                item = queue.get(timeout=poll_interval)
            except TimeoutError:
                flush()
                continue
            except RuntimeError:  # closed and fully drained
                break
            batch.append(item)
            if len(batch) >= batch_size:
                flush()
        flush()
        return consumed

    # -- generation -----------------------------------------------------------------
    def generate(self, label: str = "") -> SessionResult:
        """Run the stage chain over everything fed since the last call.

        Publishes the resulting rule set into the bound registry (when
        ``auto_publish`` is on and at least one rule survived alignment) and
        clears the pending feed, so the next ``generate`` starts a fresh
        version.  If a stage raises, the fed packages are restored so a
        retry (or the next ``generate``) still covers them.
        """
        with self._feed_lock:
            packages, self._pending = self._pending, []
            batch_sizes, self._batch_sizes = self._batch_sizes, []
        context = StageContext(
            config=self.config,
            provider=self.provider,
            embedder=self.embedder,
            packages=packages,
            batch_sizes=list(batch_sizes),
            shard_label=self.shard_label,
        )
        context.rule_set.model = self.provider.model_name
        context.info.package_count = len(packages)
        tracer = get_tracer()
        if packages:
            try:
                with tracer.span(
                    "session.generate",
                    packages=len(packages),
                    shard=self.shard_label,
                ):
                    for stage in self.stages:
                        started = time.perf_counter()
                        with tracer.span(f"stage.{stage.name}"):
                            stage.run(context)
                        elapsed = time.perf_counter() - started
                        context.stage_seconds[stage.name] = (
                            context.stage_seconds.get(stage.name, 0.0) + elapsed
                        )
                        _STAGE_SECONDS.observe(elapsed, stage=stage.name)
            except BaseException:
                # put the feed back (ahead of anything fed concurrently)
                with self._feed_lock:
                    self._pending[:0] = packages
                    self._batch_sizes[:0] = batch_sizes
                raise
        _GENERATE_RUNS.inc()
        version: Optional[RulesetVersion] = None
        if self.registry is not None and self.auto_publish and context.rule_set.rules:
            version = self.registry.publish_generated(
                context.rule_set, label=label or self.label
            )
        result = SessionResult(
            rule_set=context.rule_set,
            version=version,
            info=context.info,
            stage_seconds=context.stage_seconds,
            batch_sizes=list(batch_sizes),
            shard_label=self.shard_label,
        )
        self.results.append(result)
        return result
