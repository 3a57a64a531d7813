"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures through
:class:`repro.evaluation.experiments.ExperimentSuite`.  The expensive
intermediates (corpus, pipeline run, detection results) are built once per
benchmark session and shared.

The corpus size is controlled by the ``REPRO_BENCH_SCALE`` environment
variable (fraction of the paper-scale corpus; default 0.10, i.e. ~320 malware
uploads and 50 legitimate packages).  Set it to ``1.0`` to regenerate the
experiments at full paper scale.

Each benchmark also writes its rendered table/figure to
``benchmarks/reports/<experiment>.txt`` so the regenerated artefacts can be
inspected after the run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.config import RuleLLMConfig
from repro.corpus.dataset import DatasetConfig
from repro.evaluation.experiments import ExperimentSuite

REPORT_DIR = Path(__file__).parent / "reports"
#: Reports that a run regenerates but that must not overwrite a committed
#: file (the throughput report, whose committed copy is CI's baseline).
OUT_DIR = Path(__file__).parent / "out"


def _bench_scale() -> float:
    raw = os.environ.get("REPRO_BENCH_SCALE", "0.10")
    try:
        scale = float(raw)
    except ValueError:
        scale = 0.10
    return max(0.01, min(scale, 1.0))


def bench_dataset_config() -> DatasetConfig:
    scale = _bench_scale()
    config = DatasetConfig(scale=scale)
    if scale < 0.5:
        # keep benign packages moderately sized so scaled-down runs stay quick
        config.benign_modules_range = (3, 6)
        config.benign_pieces_per_module_range = (8, 16)
    return config


@pytest.fixture(scope="session")
def suite() -> ExperimentSuite:
    return ExperimentSuite(bench_dataset_config(), RuleLLMConfig.full())


@pytest.fixture(scope="session")
def report_dir() -> Path:
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    return REPORT_DIR


def save_report(report_dir: Path, name: str, rendered: str) -> None:
    (report_dir / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
