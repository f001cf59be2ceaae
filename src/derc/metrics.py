"""Unsupervised evaluation: optimal-mapping accuracy, error rate, FP/FN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError


@dataclass
class MetricsReport:
    acc: float
    error_rate_percent: float
    fp: int
    fn: int
    mapping: dict[int, int]
    confusion: np.ndarray  # rows: true label 0/1, cols: mapped prediction 0/1

    def csv_row(self, method: str) -> str:
        return (f"{method},{self.acc:.4f},{self.error_rate_percent:.2f},"
                f"{self.fp},{self.fn}")


def clustering_accuracy(y, c):
    """Best match rate over all one-to-one cluster-to-label mappings.

    Returns (acc, mapping). The optimal assignment on the contingency
    matrix is solved exactly; ties prefer the identity mapping.
    """
    y = np.asarray(y, dtype=int)
    c = np.asarray(c, dtype=int)
    if y.shape != c.shape:
        raise ValidationError("labels and cluster ids must have equal length")
    n = len(y)
    if n == 0:
        raise ValidationError("empty input")
    k = int(max(c.max(), y.max())) + 1

    counts = np.zeros((k, k), dtype=np.int64)
    for ci, yi in zip(c, y):
        counts[ci, yi] += 1
    # scale so any real count difference dominates the identity tie-break bonus
    score = counts * (k + 1) + np.eye(k, dtype=np.int64)
    rows, cols = linear_sum_assignment(-score)
    mapping = {int(r): int(col) for r, col in zip(rows, cols)}
    matches = int(counts[rows, cols].sum())
    return matches / n, mapping


def confusion_counts(y, c, mapping: dict[int, int], positive_label: int = 1):
    """FP/FN and the 2x2 confusion matrix after applying the mapping to c."""
    y = np.asarray(y, dtype=int)
    c = np.asarray(c, dtype=int)
    vals = sorted(mapping.values())
    if sorted(mapping.keys()) != vals or len(set(vals)) != len(vals):
        raise ValidationError("mapping must be a bijection on cluster ids")
    pred = np.asarray([mapping[ci] for ci in c], dtype=int)
    fp = int(np.sum((pred == positive_label) & (y != positive_label)))
    fn = int(np.sum((pred != positive_label) & (y == positive_label)))
    confusion = np.zeros((2, 2), dtype=int)
    for yi, pi in zip(y, pred):
        confusion[int(yi == positive_label), int(pi == positive_label)] += 1
    return fp, fn, confusion


def evaluate(y, c, positive_label: int = 1) -> MetricsReport:
    """ACC, error rate and FP/FN; each cluster id must be a label class
    0..max(y), because FP/FN count the clusters mapped onto real classes."""
    acc, mapping = clustering_accuracy(y, c)
    classes = set(range(int(np.max(y)) + 1))
    outside = sorted(set(np.asarray(c, dtype=int).tolist()) - classes)
    if outside:
        raise ValidationError(f"cluster ids {outside} are outside the label "
                              f"classes 0..{len(classes) - 1}")
    fp, fn, confusion = confusion_counts(y, c, mapping, positive_label)
    return MetricsReport(
        acc=acc,
        error_rate_percent=(1.0 - acc) * 100.0,
        fp=fp,
        fn=fn,
        mapping=mapping,
        confusion=confusion,
    )
