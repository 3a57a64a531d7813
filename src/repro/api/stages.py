"""Pluggable pipeline stages of a generation session.

The paper's pipeline (cluster -> craft -> refine -> align, Figure 3) used to
live as hard-coded private methods on :class:`repro.core.pipeline.RuleLLM`.
Here each step is an explicit :class:`PipelineStage` operating on a shared,
typed :class:`StageContext`, so a session can swap, drop or insert stages:
the ablation arms of Table X, the pre-clustered variant experiment
(Section V-B) and future sharded-generation work are all stage-list edits
instead of new orchestrators.

Stage contract: ``run(context)`` reads the context fields earlier stages
populated and writes its own.  ``ClusterStage`` fills ``cluster_groups``
from the fed packages, ``CraftStage`` turns groups into coarse rules,
``RefineStage`` merges them, ``AlignStage`` compiles-or-repairs every rule
into the final ``rule_set``.  The call sequence against the LLM provider is
exactly the one the original orchestrator issued, so a session run is
bit-for-bit reproducible against the pre-stage pipeline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.aligning import AligningStage, AlignmentReport
from repro.core.config import RuleLLMConfig
from repro.core.crafting import CoarseRule, CraftingStage
from repro.core.refining import RefinedRule, RefiningStage
from repro.core.rules import GeneratedRuleSet
from repro.corpus.package import Package
from repro.extraction.clustering import ClusterResult, cluster_packages
from repro.extraction.embedding import CodeEmbedder
from repro.llm.base import LLMProvider


@dataclass
class PipelineRunInfo:
    """Diagnostics of one pipeline run (inspected by experiments and examples)."""

    package_count: int = 0
    cluster_count: int = 0
    discarded_clusters: int = 0
    coarse_rule_count: int = 0
    refined_rule_count: int = 0
    alignment: AlignmentReport = field(default_factory=AlignmentReport)


@dataclass
class StageContext:
    """Typed state shared by the stages of one generation run."""

    config: RuleLLMConfig
    provider: LLMProvider
    embedder: CodeEmbedder
    packages: list[Package]
    batch_sizes: list[int] = field(default_factory=list)
    shard_label: str = ""  # set when this run is one shard of an orchestrated fleet

    # populated by the stages
    clusters: ClusterResult | None = None
    cluster_groups: list[tuple[int, list[Package]]] = field(default_factory=list)
    coarse: list[CoarseRule] = field(default_factory=list)
    refined: list[RefinedRule] = field(default_factory=list)
    rule_set: GeneratedRuleSet = field(default_factory=GeneratedRuleSet)
    info: PipelineRunInfo = field(default_factory=PipelineRunInfo)
    stage_seconds: dict[str, float] = field(default_factory=dict)


class PipelineStage(abc.ABC):
    """One step of the generation pipeline."""

    name: str = "stage"

    @abc.abstractmethod
    def run(self, context: StageContext) -> None:
        """Advance ``context`` by this stage's work."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ClusterStage(PipelineStage):
    """Knowledge extraction (Section III): embed and cluster the packages."""

    name = "cluster"

    def run(self, context: StageContext) -> None:
        clusters = cluster_packages(context.packages, embedder=context.embedder)
        context.clusters = clusters
        context.cluster_groups = list(enumerate(clusters.clusters))
        context.info.cluster_count = clusters.retained_count
        context.info.discarded_clusters = len(clusters.discarded)


class PresetClusterStage(PipelineStage):
    """Treat the fed packages as one pre-formed cluster.

    Used by the malware-variant experiment (Section V-B), where rules are
    generated from a couple of known-similar samples and evaluated on the
    remaining, unseen variants of the same group.
    """

    name = "cluster"

    def __init__(self, cluster_id: int = 0) -> None:
        self.cluster_id = cluster_id

    def run(self, context: StageContext) -> None:
        context.cluster_groups = [(self.cluster_id, list(context.packages))]
        context.info.cluster_count = 1


class PresetGroupsStage(PipelineStage):
    """Adopt pre-formed clusters, preserving their (global) cluster ids.

    The sharded-generation seam: a :class:`repro.api.orchestrator.
    GenerationOrchestrator` clusters the full corpus **once**, hands each
    shard the whole clusters assigned to it, and the shard's session skips
    re-clustering.  Because refinement groups by ``(cluster id, format,
    origin)`` and alignment is per-rule, a shard's output is exactly the
    per-cluster slice of what one big session would produce — which is what
    makes the merged publish bit-for-bit identical to single-session rules.
    """

    name = "cluster"

    def __init__(self, groups: list[tuple[int, list[Package]]]) -> None:
        self.groups = [(cluster_id, list(members)) for cluster_id, members in groups]

    def run(self, context: StageContext) -> None:
        context.cluster_groups = [
            (cluster_id, list(members)) for cluster_id, members in self.groups
        ]
        context.info.cluster_count = len(self.groups)


class CraftStage(PipelineStage):
    """Crafting (Section IV-A): coarse rules per cluster from basic units.

    Pass a prebuilt (possibly customised) :class:`CraftingStage` to reuse
    it; by default one is constructed from the context's provider/config.
    """

    name = "craft"

    def __init__(self, crafting: CraftingStage | None = None) -> None:
        self.crafting = crafting

    def run(self, context: StageContext) -> None:
        crafting = self.crafting or CraftingStage(context.provider, context.config)
        coarse: list[CoarseRule] = []
        for cluster_id, members in context.cluster_groups:
            if context.config.use_basic_units:
                coarse.extend(crafting.craft_for_cluster(cluster_id, members))
            else:
                coarse.extend(crafting.craft_direct(cluster_id, members[0]))
        context.coarse = coarse
        context.info.coarse_rule_count = len(coarse)


class RefineStage(PipelineStage):
    """Refining (Section IV-B): merge coarse rules into scalable rules."""

    name = "refine"

    def __init__(self, refining: RefiningStage | None = None) -> None:
        self.refining = refining

    def run(self, context: StageContext) -> None:
        refining = self.refining or RefiningStage(context.provider, context.config)
        context.refined = refining.refine(context.coarse)
        context.info.refined_rule_count = len(context.refined)


class AlignStage(PipelineStage):
    """Aligning (Section IV-C): compile-or-repair every rule with the agent."""

    name = "align"

    def run(self, context: StageContext) -> None:
        aligning = AligningStage(context.provider, context.config)
        for index, refined_rule in enumerate(context.refined):
            generated, ok = aligning.align(refined_rule, index)
            if ok:
                context.rule_set.add(generated)
            else:
                context.rule_set.reject(generated)
        context.info.alignment = aligning.report


def default_stages() -> list[PipelineStage]:
    """The paper's full pipeline as a stage chain."""
    return [ClusterStage(), CraftStage(), RefineStage(), AlignStage()]
