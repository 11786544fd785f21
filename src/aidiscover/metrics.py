"""Precision/recall confusion metrics and Cohen's unweighted kappa."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence

LABEL_AI = "AI"
LABEL_NON_AI = "NonAI"


class LengthMismatch(Exception):
    """Paired label vectors differ in length."""


class EmptyInput(Exception):
    """An operation that needs at least one label got none."""


class EmptyIntersection(ValueError):
    """Prediction and truth files share no keys."""


@dataclass
class EvalMetrics:
    """Binary confusion counts with derived precision and recall.

    precision/recall are None when their denominator is zero (flagged
    degenerate rather than silently reported as 0 or 1).
    """

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    true_negatives: int = 0

    @property
    def precision(self) -> Optional[float]:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else None

    @property
    def recall(self) -> Optional[float]:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else None

    @property
    def total(self) -> int:
        return (
            self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
        )


def confusion(
    predictions: Mapping[Hashable, str], truth: Mapping[Hashable, str]
) -> tuple[EvalMetrics, list]:
    """Confusion counts over the key intersection.

    Returns the metrics and the keys present in only one of the two maps
    (coverage warnings for the caller).

    Raises:
        EmptyIntersection: no shared keys at all.
    """
    shared = set(predictions) & set(truth)
    if not shared:
        raise EmptyIntersection("predictions and truth share no keys")
    uncovered = sorted(
        (set(predictions) ^ set(truth)),
        key=repr,
    )
    metrics = EvalMetrics()
    for key in shared:
        predicted_ai = predictions[key] == LABEL_AI
        actual_ai = truth[key] == LABEL_AI
        if predicted_ai and actual_ai:
            metrics.true_positives += 1
        elif predicted_ai:
            metrics.false_positives += 1
        elif actual_ai:
            metrics.false_negatives += 1
        else:
            metrics.true_negatives += 1
    return metrics, uncovered


def cohen_kappa(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> float:
    """Cohen's unweighted kappa between two equal-length label vectors.

    kappa = (p_o - p_e) / (1 - p_e), with observed agreement p_o and chance
    agreement p_e from the raters' marginal distributions. When p_e = 1 both
    raters are constant on the same label, so agreement is perfect: 1.0.

    Raises:
        EmptyInput: zero-length vectors.
        LengthMismatch: unequal lengths.
    """
    if len(labels_a) != len(labels_b):
        raise LengthMismatch(f"{len(labels_a)} labels vs {len(labels_b)}")
    n = len(labels_a)
    if n == 0:
        raise EmptyInput("kappa needs at least one pair of labels")

    observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    marginal_a = Counter(labels_a)
    marginal_b = Counter(labels_b)
    categories = set(marginal_a) | set(marginal_b)
    expected = sum((marginal_a[c] / n) * (marginal_b[c] / n) for c in categories)

    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)
