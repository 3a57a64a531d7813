"""Configuration of the RuleLLM pipeline."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RuleLLMConfig:
    """Knobs of the end-to-end pipeline.

    The three ``use_*`` flags correspond to the ablation arms of the paper's
    Table X: disabling all of them is the "LLMs alone" baseline, enabling
    them one by one reproduces the intermediate rows, and the defaults are
    the full RuleLLM configuration.
    """

    model: str = "gpt-4o"
    seed: int = 20250424

    # stage toggles (Table X ablation)
    use_basic_units: bool = True
    use_refinement: bool = True
    use_alignment: bool = True

    # -- ablation presets -------------------------------------------------------
    @classmethod
    def llm_alone(cls, model: str = "gpt-4o", seed: int = 20250424) -> "RuleLLMConfig":
        """Table X row 1: a single direct prompt, no decomposition, no repair."""
        return cls(model=model, seed=seed, use_basic_units=False,
                   use_refinement=False, use_alignment=False)

    @classmethod
    def llm_with_alignment(cls, model: str = "gpt-4o", seed: int = 20250424) -> "RuleLLMConfig":
        """Table X row 2: direct prompting plus the alignment agent."""
        return cls(model=model, seed=seed, use_basic_units=False,
                   use_refinement=False, use_alignment=True)

    @classmethod
    def basic_units_with_alignment(cls, model: str = "gpt-4o", seed: int = 20250424) -> "RuleLLMConfig":
        """Table X row 3: basic-unit crafting plus alignment, no merging."""
        return cls(model=model, seed=seed, use_basic_units=True,
                   use_refinement=False, use_alignment=True)

    @classmethod
    def full(cls, model: str = "gpt-4o", seed: int = 20250424) -> "RuleLLMConfig":
        """Table X row 4: the complete RuleLLM pipeline."""
        return cls(model=model, seed=seed)
