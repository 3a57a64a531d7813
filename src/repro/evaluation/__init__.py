"""Evaluation harness: metrics, detection, and one entry point per paper artefact.

``repro.evaluation.experiments`` exposes a function per table and figure of
the paper's evaluation section (Tables VI and VIII-XII, Figures 5-11, plus
the malware-variant experiment).  Each returns a structured result that knows
how to render itself next to the paper's reported values, and is what the
benchmark suite and the examples call.
"""

from repro.evaluation.metrics import ConfusionMatrix
from repro.evaluation.detector import DetectionResult, PackageDetection, RuleScanner
from repro.evaluation.per_rule import PerRuleStats, per_rule_statistics, precision_histogram
from repro.evaluation.coverage import coverage_cdf
from repro.evaluation.matched_curve import matched_rule_curve
from repro.evaluation.variants import VariantDetectionResult, variant_detection_experiment
from repro.evaluation.overlap import category_overlap
from repro.evaluation.reporting import format_table, render_histogram, render_series

__all__ = [
    "ConfusionMatrix",
    "RuleScanner",
    "DetectionResult",
    "PackageDetection",
    "PerRuleStats",
    "per_rule_statistics",
    "precision_histogram",
    "coverage_cdf",
    "matched_rule_curve",
    "VariantDetectionResult",
    "variant_detection_experiment",
    "category_overlap",
    "format_table",
    "render_histogram",
    "render_series",
]
