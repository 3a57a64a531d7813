"""Tests for the evaluation harness (metrics, detector, per-rule stats, curves, reporting)."""

import pytest

from repro.evaluation import (
    ConfusionMatrix,
    RuleScanner,
    coverage_cdf,
    format_table,
    matched_rule_curve,
    per_rule_statistics,
    precision_histogram,
    render_histogram,
    render_series,
)
from repro.evaluation.detector import PackageDetection
from repro.evaluation.overlap import category_overlap
from repro.evaluation.reporting import percent


# -- metrics --------------------------------------------------------------------------

def test_confusion_matrix_basic_identities():
    matrix = ConfusionMatrix(true_positive=8, false_positive=2, true_negative=9, false_negative=1)
    assert matrix.total == 20
    assert matrix.accuracy == pytest.approx(0.85)
    assert matrix.precision == pytest.approx(0.8)
    assert matrix.recall == pytest.approx(8 / 9)
    expected_f1 = 2 * 0.8 * (8 / 9) / (0.8 + 8 / 9)
    assert matrix.f1 == pytest.approx(expected_f1)


def test_confusion_matrix_empty_is_zero():
    matrix = ConfusionMatrix()
    assert matrix.accuracy == matrix.precision == matrix.recall == matrix.f1 == 0.0


def test_confusion_matrix_record_and_merge():
    a = ConfusionMatrix()
    a.record(True, True)
    a.record(False, True)
    b = ConfusionMatrix()
    b.record(True, False)
    b.record(False, False)
    merged = a.merge(b)
    assert (merged.true_positive, merged.false_positive, merged.false_negative, merged.true_negative) == (1, 1, 1, 1)


def test_classification_metrics_perfect_predictions():
    matrix = ConfusionMatrix()
    for label in [True, False, True, False]:
        matrix.record(label, label)
    assert matrix.f1 == 1.0 and matrix.accuracy == 1.0


# -- detector ---------------------------------------------------------------------------

def test_rule_scanner_requires_some_rules():
    with pytest.raises(ValueError):
        RuleScanner()


def test_detection_result_metrics_match_manual_count(detection_result, small_dataset):
    metrics = detection_result.metrics
    assert metrics.total == len(small_dataset.packages)
    malicious = sum(1 for pkg in small_dataset.packages if pkg.is_malicious)
    assert metrics.true_positive + metrics.false_negative == malicious


def test_detection_threshold_monotonicity(detection_result):
    recalls = [detection_result.confusion(threshold).recall for threshold in (1, 2, 3, 5)]
    assert recalls == sorted(recalls, reverse=True)


def test_rule_hits_mapping(detection_result):
    hits = detection_result.rule_hits()
    for rule, detections in hits.items():
        assert detections
        assert all(rule in d.matched_rules for d in detections)


def test_package_detection_predicted_threshold():
    detection = PackageDetection(package="x", actual_malicious=True, yara_rules=["a", "b"])
    assert detection.predicted(1) and detection.predicted(2) and not detection.predicted(3)


# -- per-rule statistics / histograms / cdf ------------------------------------------------

def test_per_rule_statistics_includes_silent_rules(detection_result, compiled_yara):
    stats = per_rule_statistics(detection_result, compiled_yara.rule_names())
    names = {entry.rule for entry in stats}
    assert set(compiled_yara.rule_names()).issubset(names)


def test_per_rule_precision_bounds(detection_result, compiled_yara):
    stats = per_rule_statistics(detection_result, compiled_yara.rule_names())
    for entry in stats:
        assert 0.0 <= entry.precision <= 1.0
        assert entry.coverage <= entry.total_matches


def test_precision_histogram_counts_consistent(detection_result, compiled_yara):
    stats = per_rule_statistics(detection_result, compiled_yara.rule_names())
    histogram = precision_histogram(stats)
    assert sum(histogram.counts) + histogram.zero_match_rules == len(stats)
    with pytest.raises(ValueError):
        precision_histogram(stats, bins=0)


def test_coverage_cdf_monotone(detection_result, compiled_yara):
    stats = per_rule_statistics(detection_result, compiled_yara.rule_names())
    cdf = coverage_cdf(stats)
    fractions = [fraction for _value, fraction in cdf.points]
    assert fractions == sorted(fractions)
    if cdf.points:
        assert fractions[-1] == pytest.approx(1.0)
    assert 0.0 <= cdf.fraction_below(10) <= 1.0


def test_matched_rule_curve_shape(detection_result):
    curve = matched_rule_curve(detection_result, max_threshold=5)
    assert curve.points
    assert curve.points[0].matched_rules == 1
    recalls = [point.recall for point in curve.points]
    assert recalls == sorted(recalls, reverse=True)


def test_category_overlap_matrix_properties(generated_rules):
    overlap = category_overlap(generated_rules.rules)
    assert overlap.max_overlap >= 0
    pairs = overlap.most_overlapping_pairs(3)
    assert all(count > 0 for _a, _b, count in pairs)


# -- reporting -------------------------------------------------------------------------------

def test_format_table_alignment_and_validation():
    table = format_table(["name", "value"], [["a", 1], ["bbbb", 22]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    with pytest.raises(ValueError):
        format_table(["one"], [["a", "b"]])


def test_render_histogram_and_series():
    histogram = render_histogram([("a", 2), ("b", 4)], title="H")
    assert "####" in histogram
    series = render_series([(1, 0.5), (2, 0.75)], title="S")
    assert "0.750" in series


def test_percent_formatting():
    assert percent(0.852) == "85.2%"


# -- variant experiment determinism ----------------------------------------------------

def test_variant_detection_experiment_is_seed_deterministic(malware_packages):
    """Same config + corpus => identical groups, seeds, variant counts and
    detection rates across independent runs (the arena replays depend on it)."""
    from repro.core import RuleLLMConfig
    from repro.evaluation.variants import variant_detection_experiment

    config = RuleLLMConfig.full(seed=20250424)
    runs = [
        variant_detection_experiment(
            malware_packages, config=config, seeds_per_group=2, max_groups=3
        )
        for _ in range(2)
    ]
    first, second = runs
    assert len(first.groups) == len(second.groups) > 0
    for left, right in zip(first.groups, second.groups):
        assert left.cluster_id == right.cluster_id
        assert left.seeds == right.seeds
        assert left.variants == right.variants
        assert left.rules_generated == right.rules_generated
        assert left.detected == right.detected
        assert left.detection_rate == right.detection_rate
    assert first.overall_detection_rate == second.overall_detection_rate
    assert first.average_detection_rate == second.average_detection_rate
