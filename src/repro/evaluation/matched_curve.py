"""Performance as a function of the matched-rule count (paper Figures 5 and 6).

The figures plot accuracy / precision / recall / F1 against the number of
rules a package must match before it is classified malicious.  At a
threshold of one matched rule YARA detection peaks and then degrades as the
threshold rises (generated YARA rules are specific and rarely co-fire),
while Semgrep curves are flatter because structural rules overlap more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evaluation.detector import DetectionResult


@dataclass
class MatchedCurvePoint:
    """Metrics at one matched-rule threshold."""

    matched_rules: int
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass
class MatchedCurve:
    """The full curve plus the threshold at which F1 peaks."""

    points: list[MatchedCurvePoint] = field(default_factory=list)

    def series(self, metric: str) -> list[tuple[int, float]]:
        return [(point.matched_rules, getattr(point, metric)) for point in self.points]


def matched_rule_curve(result: DetectionResult, max_threshold: int | None = None) -> MatchedCurve:
    """Sweep the matched-rule threshold and compute metrics at each value."""
    observed_max = max((d.match_count for d in result.detections), default=0)
    if max_threshold is None:
        max_threshold = max(1, observed_max)
    max_threshold = max(1, min(max_threshold, max(observed_max, 1)))
    curve = MatchedCurve()
    for threshold in range(1, max_threshold + 1):
        matrix = result.confusion(threshold)
        curve.points.append(
            MatchedCurvePoint(
                matched_rules=threshold,
                accuracy=matrix.accuracy,
                precision=matrix.precision,
                recall=matrix.recall,
                f1=matrix.f1,
            )
        )
    return curve
