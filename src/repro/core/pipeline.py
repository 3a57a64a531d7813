"""The RuleLLM orchestrator (paper Figure 3) as a compatibility wrapper.

``RuleLLM.generate_rules`` runs the complete pipeline over a list of
malicious packages:

1. knowledge extraction -- embed and cluster the packages (Section III);
2. crafting -- coarse rules per cluster from basic units and metadata
   (Section IV-A);
3. refining -- merge coarse rules into scalable rules (Section IV-B);
4. aligning -- compile-or-repair every rule with the agent (Section IV-C).

The stages themselves live in :mod:`repro.api.stages` and are executed by
:class:`repro.api.session.GenerationSession`, the streaming entry point that
also feeds packages incrementally and auto-publishes into the scan
registry.  ``RuleLLM`` remains the one-shot convenience facade: each call
spins up a session sharing this instance's provider and embedder, so
results are bit-for-bit identical to the historical orchestrator.

The ablation arms of Table X are obtained through
:class:`~repro.core.config.RuleLLMConfig` presets: with ``use_basic_units``
disabled the crafting stage falls back to single-shot whole-package prompts,
with ``use_refinement`` disabled coarse rules pass straight to alignment, and
with ``use_alignment`` disabled broken rules are dropped instead of repaired.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import RuleLLMConfig
from repro.core.crafting import CraftingStage
from repro.core.refining import RefiningStage
from repro.core.rules import GeneratedRuleSet
from repro.corpus.package import Package
from repro.extraction.embedding import CodeEmbedder
from repro.llm.base import LLMProvider
from repro.llm.profiles import get_profile
from repro.llm.simulated import SimulatedAnalystLLM

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import GenerationSession

__all__ = ["RuleLLM"]


class RuleLLM:
    """End-to-end rule generation for OSS malware (one-shot facade)."""

    def __init__(self, config: RuleLLMConfig | None = None,
                 provider: LLMProvider | None = None) -> None:
        self.config = config or RuleLLMConfig()
        self.provider = provider or SimulatedAnalystLLM(
            profile=get_profile(self.config.model), seed=self.config.seed
        )
        self.embedder = CodeEmbedder()
        # callers may replace these (e.g. a custom CraftingStage); the
        # sessions built below run whatever is installed here
        self.crafting = CraftingStage(self.provider, self.config)
        self.refining = RefiningStage(self.provider, self.config)

    def _session(self, first_stage=None) -> "GenerationSession":
        from repro.api.session import GenerationSession
        from repro.api.stages import (
            AlignStage,
            ClusterStage,
            CraftStage,
            RefineStage,
        )

        return GenerationSession(
            config=self.config,
            provider=self.provider,
            embedder=self.embedder,
            stages=[
                first_stage or ClusterStage(),
                CraftStage(self.crafting),
                RefineStage(self.refining),
                AlignStage(),
            ],
            auto_publish=False,
        )

    # -- public API ----------------------------------------------------------------
    def generate_rules(self, packages: list[Package]) -> GeneratedRuleSet:
        """Run the full pipeline over a malware corpus."""
        session = self._session()
        session.add_batch(packages)
        return session.generate().rule_set

    def generate_rules_for_group(self, packages: list[Package],
                                 cluster_id: int = 0) -> GeneratedRuleSet:
        """Generate rules from one pre-formed group of similar packages.

        Used by the malware-variant experiment (Section V-B): rules are
        generated from a couple of samples of a cluster and evaluated on the
        remaining, unseen variants.
        """
        from repro.api.stages import PresetClusterStage

        session = self._session(first_stage=PresetClusterStage(cluster_id))
        session.add_batch(packages)
        return session.generate().rule_set
