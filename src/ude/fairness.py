"""Fairness metrics for binary classifiers over a two-group population:
accuracy, equal-opportunity gaps per class, disparate impact and |1-DI|.
Counting stays in integers until the final divisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LinearHead, head_forward
from .numerics import check_binary

NUMERATOR_GROUP = 0  # group a=0 is the DI numerator; recorded in the report

CSV_HEADER = ["EO_n", "EO_p", "DI", "Acc"]  # DI column carries |1-DI|


class UndefinedMetric(ValueError):
    """A metric's denominator group is empty or has zero rate."""


@dataclass
class EvalRecord:
    predictions: np.ndarray
    labels: np.ndarray
    attrs: np.ndarray

    def __post_init__(self):
        """Each a 0/1 vector (numerics.check_binary) of the predictions' length."""
        rows = np.size(self.predictions)
        for name in ("predictions", "labels", "attrs"):
            setattr(self, name, check_binary(name, getattr(self, name), rows))


@dataclass
class FairnessReport:
    accuracy: float
    eo_neg: float
    eo_pos: float
    di: float
    one_minus_di_abs: float
    group_counts: dict
    numerator_group: int = NUMERATOR_GROUP

    def csv_row(self) -> list[str]:
        return [f"{v:.6f}" for v in
                (self.eo_neg, self.eo_pos, self.one_minus_di_abs, self.accuracy)]


def accuracy(rec: EvalRecord) -> float:
    return int(np.sum(rec.predictions == rec.labels)) / len(rec.labels)


def equal_opportunity(rec: EvalRecord, target_class: int) -> float:
    """|TPR_group0 - TPR_group1| for the given class."""
    rates = []
    for a in (0, 1):
        in_cell = (rec.attrs == a) & (rec.labels == target_class)
        total = int(np.sum(in_cell))
        if total == 0:
            raise UndefinedMetric(f"group {a} has no samples with label {target_class}")
        hits = int(np.sum(in_cell & (rec.predictions == target_class)))
        rates.append(hits / total)
    return abs(rates[0] - rates[1])


def disparate_impact(rec: EvalRecord) -> tuple[float, float]:
    """(DI, |1-DI|) with group 0's positive-prediction rate as numerator."""
    rates = []
    for a in (0, 1):
        in_group = rec.attrs == a
        total = int(np.sum(in_group))
        if total == 0:
            raise UndefinedMetric(f"group {a} is empty")
        rates.append(int(np.sum(in_group & (rec.predictions == 1))) / total)
    if rates[1] == 0:
        raise UndefinedMetric("denominator group has zero positive-prediction rate")
    di = rates[0] / rates[1]
    return di, abs(1.0 - di)


def build_report(rec: EvalRecord) -> FairnessReport:
    di, one_minus = disparate_impact(rec)
    counts = {f"a{a}": int(np.sum(rec.attrs == a)) for a in (0, 1)}
    return FairnessReport(accuracy=accuracy(rec),
                          eo_neg=equal_opportunity(rec, 0),
                          eo_pos=equal_opportunity(rec, 1),
                          di=di, one_minus_di_abs=one_minus,
                          group_counts=counts)


def evaluate(head: LinearHead, z: np.ndarray, disease_labels: np.ndarray,
             sa_labels: np.ndarray) -> FairnessReport:
    """Full report for a head on embeddings z [N,E]. Predictions are argmax
    over logits; equal logits predict class 0."""
    logits = head_forward(head, z)
    preds = np.argmax(logits, axis=1)  # np.argmax takes the first max: ties -> 0
    rec = EvalRecord(predictions=preds, labels=disease_labels, attrs=sa_labels)
    return build_report(rec)
