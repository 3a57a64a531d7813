"""Deterministic replay traffic for arena rounds.

An arena round needs a fresh batch of packages that looks like live
registry traffic: malicious re-uploads (exact duplicates and obfuscated
re-wraps of known families — the paper's Section V-B variant structure)
mixed with legitimate packages in a controlled ratio.  Materialising a
corpus per round would dominate the round's cost, so :class:`ReplayTraffic`
streams instead:

* **benign** packages are built lazily, one index at a time, through
  :meth:`repro.corpus.benign_generator.BenignGenerator.build_package` —
  each index is deterministic on its own, so a round can draw package
  #4711 without ever constructing the other 4710;
* **adversarial variants** are derived on the fly from a small seed
  corpus of known malware: a re-upload under a fresh name, optionally
  re-wrapped in the same base64+exec loader the corpus generator uses for
  its obfuscated families (:meth:`MalwareGenerator._obfuscate_module`'s
  shape), so the tell-tale payload strings vanish from the plain text.

Every package of every round derives from
``DeterministicRandom(seed, "arena-traffic", round, slot)`` — two traffic
instances with the same config produce byte-identical rounds, which is
what makes arena scores comparable across runner restarts.

The *escalation* knob models rule decay: the probability that a variant is
wrapped grows by ``obfuscation_step`` per round, so rules keyed on plain
payload strings lose coverage round over round while loader-keyed rules
keep firing — exactly the drift the lifecycle policies react to.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.corpus.benign_generator import BenignGenerator, BenignGeneratorConfig
from repro.corpus.package import MALWARE, Package, PackageFile
from repro.utils.seeding import DeterministicRandom

#: Suffixes re-uploaded variants hide behind (classic registry churn).
_REUPLOAD_SUFFIXES = ("rc", "post", "hotfix", "rev", "night", "dev")

#: Fixed wrap chunking: the blob of a wrapped package depends only on the
#: base package's content, so re-wraps of the same base are byte-identical
#: (the ~51% exact-re-upload structure of the paper's corpus) and rules
#: refined from one wrapped miss keep matching later wraps of that base.
_WRAP_CHUNK = 76

#: Index space the lazy benign stream draws from.
BENIGN_POOL = 5000


@dataclass
class TrafficConfig:
    """Knobs of one replay stream."""

    seed: int = 1633
    packages_per_round: int = 24
    #: Probability an individual slot carries a malicious variant.
    malicious_ratio: float = 0.5
    #: Rounds are streamed (and scored) in chunks of this many packages.
    chunk_size: int = 8
    #: Round-0 probability that a malicious variant is loader-wrapped.
    obfuscation_base: float = 0.0
    #: Added to the wrap probability every round (capped at 1.0).
    obfuscation_step: float = 0.0
    #: Probability a variant is re-uploaded under a mutated name.
    rename_probability: float = 0.75

    def __post_init__(self) -> None:
        if self.packages_per_round < 1:
            raise ValueError("packages_per_round must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not 0.0 <= self.malicious_ratio <= 1.0:
            raise ValueError("malicious_ratio must be in [0, 1]")


def obfuscate_source(content: str) -> str:
    """Wrap python source in the corpus generator's base64+exec loader.

    Deterministic in the content alone (fixed chunking): wrapping the same
    module twice yields the same blob.
    """
    encoded = base64.b64encode(content.encode("utf-8")).decode("ascii")
    pieces = [encoded[i : i + _WRAP_CHUNK] for i in range(0, len(encoded), _WRAP_CHUNK)]
    joined = "\n".join(f'    "{piece}"' for piece in pieces)
    return (
        '"""Core module."""\n'
        "import base64\n\n"
        "_blob = (\n" + joined + "\n)\n\n"
        'exec(compile(base64.b64decode(_blob), "<core>", "exec"))\n'
    )


def mutate_package(
    base: Package, rng: DeterministicRandom, wrap: bool, rename: bool = True
) -> Package:
    """Derive one adversarial re-upload of ``base``.

    ``rename`` gives the upload a fresh ``name==version`` identity;
    ``wrap`` re-encodes every python file behind the loader so only the
    loader pattern stays visible to string rules.  File contents are left
    byte-identical when not wrapping — a plain re-upload must keep firing
    exactly the rules the base fired.
    """
    if rename:
        suffix = rng.choice(_REUPLOAD_SUFFIXES)
        name = f"{base.name}-{suffix}{rng.randint(0, 99)}"
    else:
        name = base.name
    version = f"{rng.randint(0, 4)}.{rng.randint(0, 9)}.{rng.randint(0, 9)}"
    files = []
    for entry in base.files:
        content = entry.content
        if wrap and entry.path.endswith(".py"):
            content = obfuscate_source(content)
        files.append(PackageFile(entry.path, content))
    return Package(
        name=name,
        version=version,
        metadata=base.metadata,
        files=files,
        label=MALWARE,
        family=base.family,
        behaviors=list(base.behaviors),
        obfuscated=wrap or base.obfuscated,
    )


class ReplayTraffic:
    """Seeded, non-materialising package stream for arena rounds."""

    def __init__(
        self,
        malware: Sequence[Package],
        config: Optional[TrafficConfig] = None,
    ) -> None:
        self.config = config or TrafficConfig()
        self._malware = list(malware)
        if not self._malware and self.config.malicious_ratio > 0.0:
            raise ValueError(
                "a non-zero malicious_ratio needs a seed malware corpus"
            )
        self._benign = BenignGenerator(BenignGeneratorConfig(
            package_count=BENIGN_POOL,
            seed=self.config.seed,
            # lazy draws land on arbitrary indices; popular names only cover
            # a fixed prefix and would make low indices special
            use_popular_names=False,
            modules_range=(2, 4),
            pieces_per_module_range=(6, 12),
        ))

    # -- round composition ----------------------------------------------------------
    def obfuscation_probability(self, round_index: int) -> float:
        """Wrap probability for ``round_index`` (escalates per round)."""
        raw = self.config.obfuscation_base + round_index * self.config.obfuscation_step
        return min(1.0, max(0.0, raw))

    def round_chunks(self, round_index: int) -> Iterator[list[Package]]:
        """Stream one round as chunks of ``chunk_size`` packages."""
        chunk: list[Package] = []
        for slot in range(self.config.packages_per_round):
            chunk.append(self._slot_package(round_index, slot))
            if len(chunk) >= self.config.chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def round_packages(self, round_index: int) -> list[Package]:
        """One full round, materialised (tests and small demos)."""
        packages: list[Package] = []
        for chunk in self.round_chunks(round_index):
            packages.extend(chunk)
        return packages

    # -- slot derivation -------------------------------------------------------------
    def _slot_package(self, round_index: int, slot: int) -> Package:
        rng = DeterministicRandom(
            self.config.seed, "arena-traffic", f"r{round_index}", f"s{slot}"
        )
        if self._malware and rng.coin(self.config.malicious_ratio):
            return self._variant(rng, round_index)
        return self._benign_package(rng)

    def _variant(self, rng: DeterministicRandom, round_index: int) -> Package:
        base = rng.choice(self._malware)
        wrap = rng.coin(self.obfuscation_probability(round_index))
        rename = rng.coin(self.config.rename_probability)
        return mutate_package(base, rng, wrap=wrap, rename=rename)

    def _benign_package(self, rng: DeterministicRandom) -> Package:
        index = rng.randint(0, BENIGN_POOL - 1)
        return self._benign.build_package(index)


__all__ = [
    "ReplayTraffic",
    "TrafficConfig",
    "mutate_package",
    "obfuscate_source",
]
