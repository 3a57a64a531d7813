"""Simulated large-language-model substrate.

The paper drives its pipeline with commercial LLM APIs (GPT-4o, GPT-3.5,
Claude-3.5-Sonnet, Llama-3.1-70B).  None of those are reachable offline, so
this subpackage provides a *simulated analyst LLM*: a deterministic
static-analysis and rule-synthesis engine wrapped behind the same prompt-in /
text-out interface an API client would expose.

What is preserved from the paper:

* the **interface boundary** -- the pipeline renders textual prompts
  (Tables III-V) and parses textual completions; nothing crosses the boundary
  as Python objects;
* the **failure modes** -- per-model capability profiles control recall of
  behaviours, precision of extracted strings, hallucination and syntax-error
  rates, and context-window truncation, so the ablation and model-comparison
  experiments (Tables IX and X) exercise the same dynamics;
* the **knowledge** -- an indicator catalogue of malicious-code idioms plays
  the role of the model's pre-trained security knowledge (Table II).

Swapping in a real API client only requires implementing
:class:`~repro.llm.base.LLMProvider`.
"""

from repro.llm.base import ChatMessage, CompletionRequest, LLMProvider, LLMResponse, Usage
from repro.llm.tokenizer import count_tokens, truncate_to_tokens
from repro.llm.knowledge import IndicatorPattern, INDICATOR_CATALOG
from repro.llm.analysis import BehaviorFinding, CodeAnalysisReport, CodeAnalyzer
from repro.llm.profiles import ModelProfile, PROFILES, get_profile
from repro.llm.faults import FaultInjector
from repro.llm.simulated import SimulatedAnalystLLM

__all__ = [
    "ChatMessage",
    "CompletionRequest",
    "LLMResponse",
    "LLMProvider",
    "Usage",
    "count_tokens",
    "truncate_to_tokens",
    "IndicatorPattern",
    "INDICATOR_CATALOG",
    "BehaviorFinding",
    "CodeAnalysisReport",
    "CodeAnalyzer",
    "ModelProfile",
    "PROFILES",
    "get_profile",
    "FaultInjector",
    "SimulatedAnalystLLM",
]
