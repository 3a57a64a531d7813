"""Shared low-level utilities used across the RuleLLM reproduction.

The helpers here are intentionally dependency-light: deterministic hashing,
seeded pseudo-randomness, small text manipulation helpers and a thin logging
shim.  Every stochastic decision in the project flows through
:class:`repro.utils.seeding.DeterministicRandom` so that a given corpus seed
reproduces the same packages, the same simulated-LLM behaviour and therefore
the same evaluation numbers.
"""

from repro.utils.hashing import stable_hash, content_signature, stable_digest
from repro.utils.seeding import DeterministicRandom, derive_seed
from repro.utils.text import dedent_code

__all__ = [
    "stable_hash",
    "stable_digest",
    "content_signature",
    "DeterministicRandom",
    "derive_seed",
    "dedent_code",
]
