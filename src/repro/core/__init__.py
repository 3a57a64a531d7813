"""RuleLLM core pipeline (the paper's primary contribution).

The pipeline decomposes rule generation into the three subtasks of Figure 3:

1. **Crafting** (:mod:`repro.core.crafting`) -- split the clustered malware
   code into basic units, prompt the LLM with several similar units (and with
   the package metadata) and obtain coarse-grained rules plus an analysis
   document;
2. **Refining** (:mod:`repro.core.refining`) -- self-reflection and merging
   of the coarse rules into one scalable rule per group;
3. **Aligning** (:mod:`repro.core.aligning`) -- an agent equipped with the
   YARA / Semgrep compilers fixes rules until they compile (at most five
   attempts, memory of the last two errors).

:class:`repro.core.pipeline.RuleLLM` orchestrates the three stages over a
corpus and returns a :class:`repro.core.rules.GeneratedRuleSet`.
"""

from repro.core.config import RuleLLMConfig
from repro.core.basic_units import BasicUnit, split_basic_units
from repro.core.rules import GeneratedRule, GeneratedRuleSet
from repro.core.taxonomy import RuleTaxonomyClassifier
from repro.core.pipeline import RuleLLM

__all__ = [
    "RuleLLMConfig",
    "BasicUnit",
    "split_basic_units",
    "GeneratedRule",
    "GeneratedRuleSet",
    "RuleTaxonomyClassifier",
    "RuleLLM",
]
