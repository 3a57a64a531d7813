"""Deterministic randomness.

All stochastic behaviour in the reproduction (corpus generation, the
simulated LLM's recall/precision/fault sampling, baseline sampling) is driven
by :class:`DeterministicRandom`, a thin wrapper around :class:`random.Random`
whose seeds are *derived* from string scopes rather than global state.  This
keeps independent subsystems decorrelated while remaining fully reproducible:
``derive_seed(1633, "corpus", "malware")`` always yields the same seed.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

from repro.utils.hashing import stable_hash

T = TypeVar("T")


def derive_seed(base_seed: int, *scope: str) -> int:
    """Derive a child seed from ``base_seed`` and a scope path.

    The derivation mixes the base seed with a stable hash of the scope
    strings, so two different scopes never share a stream and the same scope
    always reproduces the same stream.
    """
    scope_hash = stable_hash("\x1f".join(scope), bits=63)
    return (base_seed * 0x9E3779B97F4A7C15 + scope_hash) & ((1 << 63) - 1)


class DeterministicRandom:
    """A seeded random stream scoped to a named subsystem."""

    def __init__(self, base_seed: int, *scope: str) -> None:
        self.seed = derive_seed(base_seed, *scope)
        self._rng = random.Random(self.seed)

    # -- primitive draws -------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    # -- collection draws ------------------------------------------------
    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return self._rng.choice(seq)

    def choices(self, seq: Sequence[T], k: int) -> list[T]:
        return self._rng.choices(seq, k=k)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        k = min(k, len(seq))
        return self._rng.sample(seq, k)

    def shuffle(self, items: list[T]) -> list[T]:
        """Return a shuffled *copy* of ``items`` (the input is untouched)."""
        copy = list(items)
        self._rng.shuffle(copy)
        return copy

    def coin(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        return self._rng.choices(list(items), weights=list(weights), k=1)[0]

    def child(self, *scope: str) -> "DeterministicRandom":
        """Return a new independent stream scoped below this one."""
        return DeterministicRandom(self.seed, *scope)
