"""Dataset assembly (paper Table VI).

``build_dataset`` glues the malware and benign generators together, applies
deduplication and exposes the statistics the paper reports: package counts
before/after dedup and the average lines of code per class.

A ``scale`` knob shrinks the corpus proportionally so unit tests and CI-sized
benchmark runs stay fast while the full paper-scale corpus
(3,200 malware / 500 benign) remains one configuration away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.benign_generator import BenignGenerator, BenignGeneratorConfig
from repro.corpus.dedup import DedupResult, deduplicate
from repro.corpus.malware_generator import MalwareGenerator, MalwareGeneratorConfig
from repro.corpus.package import BENIGN, MALWARE, Package


#: Paper-scale corpus size (Table VI), before ``scale`` shrinks it.
MALWARE_COUNT = 3200
BENIGN_COUNT = 500


@dataclass
class DatasetConfig:
    """Configuration for one evaluation corpus."""

    seed: int = 1633
    scale: float = 1.0
    benign_modules_range: tuple[int, int] = (6, 12)
    benign_pieces_per_module_range: tuple[int, int] = (12, 26)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def scaled_malware_count(self) -> int:
        return max(4, round(MALWARE_COUNT * self.scale))

    @property
    def scaled_benign_count(self) -> int:
        return max(2, round(BENIGN_COUNT * self.scale))

    @classmethod
    def small(cls, seed: int = 1633) -> "DatasetConfig":
        """A corpus sized for unit tests (a few dozen packages)."""
        return cls(seed=seed, scale=0.012, benign_modules_range=(2, 3),
                   benign_pieces_per_module_range=(3, 6))

    @classmethod
    def medium(cls, seed: int = 1633) -> "DatasetConfig":
        """A corpus sized for benchmark runs (a few hundred packages)."""
        return cls(seed=seed, scale=0.10, benign_modules_range=(3, 5),
                   benign_pieces_per_module_range=(6, 12))


@dataclass
class DatasetStatistics:
    """The quantities reported in the paper's Table VI."""

    malware_total: int
    malware_unique: int
    malware_avg_loc: float
    benign_total: int
    benign_unique: int
    benign_avg_loc: float

    def rows(self) -> list[tuple[str, int, int, float]]:
        """Rows shaped like Table VI: category, pkg num, dedup num, avg LoC."""
        return [
            ("Malware", self.malware_total, self.malware_unique, self.malware_avg_loc),
            ("Legitimate", self.benign_total, self.benign_unique, self.benign_avg_loc),
        ]


@dataclass
class Dataset:
    """A labelled corpus of malicious and legitimate packages."""

    config: DatasetConfig
    malware_raw: list[Package] = field(default_factory=list)
    malware: list[Package] = field(default_factory=list)
    benign: list[Package] = field(default_factory=list)
    dedup_result: DedupResult | None = None

    @property
    def packages(self) -> list[Package]:
        """Deduplicated malware plus all benign packages (the evaluation corpus)."""
        return self.malware + self.benign

    @property
    def labels(self) -> dict[str, str]:
        return {pkg.identifier: pkg.label for pkg in self.packages}

    def families(self) -> dict[str, list[Package]]:
        """Group the deduplicated malware by generator family."""
        grouped: dict[str, list[Package]] = {}
        for pkg in self.malware:
            grouped.setdefault(pkg.family or "unknown", []).append(pkg)
        return grouped

    def statistics(self) -> DatasetStatistics:
        def avg_loc(packages: list[Package]) -> float:
            if not packages:
                return 0.0
            return sum(p.loc for p in packages) / len(packages)

        return DatasetStatistics(
            malware_total=len(self.malware_raw),
            malware_unique=len(self.malware),
            malware_avg_loc=avg_loc(self.malware),
            benign_total=len(self.benign),
            benign_unique=len(self.benign),
            benign_avg_loc=avg_loc(self.benign),
        )


def build_dataset(config: DatasetConfig | None = None) -> Dataset:
    """Generate, deduplicate and assemble an evaluation corpus."""
    config = config or DatasetConfig()

    malware_config = MalwareGeneratorConfig(
        package_count=config.scaled_malware_count,
        seed=config.seed,
    )
    benign_config = BenignGeneratorConfig(
        package_count=config.scaled_benign_count,
        seed=config.seed + 1,
        modules_range=config.benign_modules_range,
        pieces_per_module_range=config.benign_pieces_per_module_range,
    )

    malware_raw = MalwareGenerator(malware_config).generate()
    benign = BenignGenerator(benign_config).generate()
    dedup_result = deduplicate(malware_raw)

    return Dataset(
        config=config,
        malware_raw=malware_raw,
        malware=dedup_result.unique,
        benign=benign,
        dedup_result=dedup_result,
    )
