"""The unified public API: streaming pipeline sessions wired to the scanner.

``repro.api`` is the one-stop facade over the generate -> publish -> scan
loop.  The pieces:

* :class:`GenerationSession` — feed malicious packages incrementally (in
  batches or from a :class:`~repro.scanserve.scheduler.BoundedQueue`
  stream), run the cluster/craft/refine/align stage chain, and auto-publish
  each resulting rule set into a versioned registry;
* :class:`PipelineStage` / :class:`StageContext` — the pluggable stage
  protocol the session executes (swap a stage to build ablations or custom
  pipelines);
* :class:`GenerationOrchestrator` — sharded generation fleets: a pluggable
  :class:`ShardPlan` partitions the corpus, one session runs per shard
  (threaded or sequential), and the outputs publish as one **merged**
  version or a **stack** of cumulative layers with per-shard provenance;
* :class:`~repro.scanserve.service.ScanService` — the scanning side of the
  loop; bind a session to ``service.registry`` and every ``generate`` call
  hot-swaps fresh rules under live scan traffic.  With
  ``ScanServiceConfig(live_rescan=True)`` the service subscribes to the
  registry's event bus and re-scans its recency window on every publish,
  reporting a :class:`~repro.scanserve.service.RescanDelta`.

Minimal end-to-end loop::

    from repro.api import GenerationSession, ScanService

    service = ScanService()
    session = GenerationSession(registry=service.registry)
    session.add_batch(first_wave_of_malware)
    session.add_batch(second_wave_of_malware)
    result = session.generate(label="nightly")   # auto-publishes v1
    batch = service.scan_batch(suspect_packages)  # scans with v1

The legacy one-shot entry point :class:`repro.core.pipeline.RuleLLM` is a
thin wrapper over :class:`GenerationSession` and keeps working unchanged.
"""

from repro.api.orchestrator import (
    BehaviorShardPlan,
    ClusterShardPlan,
    CorpusShard,
    FleetResult,
    GenerationOrchestrator,
    RoundRobinShardPlan,
    ShardPlan,
    ShardRun,
)
from repro.api.session import GenerationSession, SessionResult
from repro.api.stages import (
    AlignStage,
    ClusterStage,
    CraftStage,
    PipelineRunInfo,
    PipelineStage,
    PresetClusterStage,
    PresetGroupsStage,
    RefineStage,
    StageContext,
    default_stages,
)
from repro.core.config import RuleLLMConfig
from repro.core.rules import GeneratedRule, GeneratedRuleSet
from repro.scanserve.registry import (
    PublishEvent,
    RulesetRegistry,
    RulesetVersion,
    ShardProvenance,
    merge_shard_rulesets,
)
from repro.scanserve.scheduler import BoundedQueue
from repro.scanserve.service import (
    BatchScanResult,
    RescanDelta,
    ScanService,
    ScanServiceConfig,
)

__all__ = [
    "GenerationSession",
    "SessionResult",
    "GenerationOrchestrator",
    "FleetResult",
    "ShardRun",
    "ShardPlan",
    "CorpusShard",
    "ClusterShardPlan",
    "BehaviorShardPlan",
    "RoundRobinShardPlan",
    "PipelineStage",
    "StageContext",
    "PipelineRunInfo",
    "ClusterStage",
    "PresetClusterStage",
    "PresetGroupsStage",
    "CraftStage",
    "RefineStage",
    "AlignStage",
    "default_stages",
    "RuleLLMConfig",
    "GeneratedRule",
    "GeneratedRuleSet",
    "PublishEvent",
    "RulesetRegistry",
    "RulesetVersion",
    "ShardProvenance",
    "merge_shard_rulesets",
    "BoundedQueue",
    "BatchScanResult",
    "RescanDelta",
    "ScanService",
    "ScanServiceConfig",
]
