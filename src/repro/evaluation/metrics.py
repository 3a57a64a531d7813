"""Classification metrics (accuracy, precision, recall, F1)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ConfusionMatrix:
    """Binary confusion matrix over packages (positive class = malicious)."""

    true_positive: int = 0
    false_positive: int = 0
    true_negative: int = 0
    false_negative: int = 0

    # -- updates ---------------------------------------------------------------
    def record(self, actual_malicious: bool, predicted_malicious: bool) -> None:
        if actual_malicious and predicted_malicious:
            self.true_positive += 1
        elif actual_malicious and not predicted_malicious:
            self.false_negative += 1
        elif not actual_malicious and predicted_malicious:
            self.false_positive += 1
        else:
            self.true_negative += 1

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.true_positive + other.true_positive,
            self.false_positive + other.false_positive,
            self.true_negative + other.true_negative,
            self.false_negative + other.false_negative,
        )

    # -- derived metrics ----------------------------------------------------------
    @property
    def total(self) -> int:
        return (self.true_positive + self.false_positive
                + self.true_negative + self.false_negative)

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.true_positive + self.true_negative) / self.total

    @property
    def precision(self) -> float:
        predicted = self.true_positive + self.false_positive
        return self.true_positive / predicted if predicted else 0.0

    @property
    def recall(self) -> float:
        actual = self.true_positive + self.false_negative
        return self.true_positive / actual if actual else 0.0

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)

    def summary(self) -> str:
        return (f"acc={self.accuracy:.1%} prec={self.precision:.1%} "
                f"rec={self.recall:.1%} f1={self.f1:.1%} "
                f"(tp={self.true_positive} fp={self.false_positive} "
                f"tn={self.true_negative} fn={self.false_negative})")
