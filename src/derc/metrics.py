"""Unsupervised evaluation: optimal-mapping accuracy, error rate, FP/FN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class MetricsReport:
    acc: float
    error_rate_percent: float
    fp: int
    fn: int
    mapping: dict[int, int]

    def csv_row(self, method: str) -> str:
        return (f"{method},{self.acc:.4f},{self.error_rate_percent:.2f},"
                f"{self.fp},{self.fn}")


def _label_arrays(y, c):
    y = np.asarray(y, dtype=int)
    c = np.asarray(c, dtype=int)
    if y.shape != c.shape:
        raise ValidationError("labels and cluster ids must have equal length")
    if len(y) == 0:
        raise ValidationError("empty input")
    return y, c


def clustering_accuracy(y, c):
    """Match rate of the cluster ids as given or swapped, whichever is higher.

    Labels and cluster ids must be 0 or 1. Returns (acc, mapping): the
    identity on the ids 0..max id, or {0: 1, 1: 0} when the swapped ids
    match more samples; a tie keeps the ids as given.
    """
    y, c = _label_arrays(y, c)
    top = int(max(y.max(), c.max()))
    if min(y.min(), c.min()) < 0 or top > 1:
        raise ValidationError("labels and cluster ids must be 0 or 1")
    n = len(y)
    same = int(np.sum(y == c))
    if n - same > same:
        return (n - same) / n, {0: 1, 1: 0}
    return same / n, {j: j for j in range(top + 1)}


def evaluate(y, c, positive_label: int = 1) -> MetricsReport:
    """ACC, error rate and FP/FN; each cluster id must be a label class
    0..max(y), because FP/FN count the clusters mapped onto real classes,
    and positive_label must be one of 0..max(1, max(y))."""
    y, c = _label_arrays(y, c)
    top = int(np.max(y))
    if not 0 <= positive_label <= max(1, top):
        raise ValidationError(f"positive label {positive_label} is outside the "
                              f"label classes 0..{max(1, top)}")
    classes = set(range(top + 1))
    outside = sorted(set(c.tolist()) - classes)
    if outside:
        raise ValidationError(f"cluster ids {outside} are outside the label "
                              f"classes 0..{len(classes) - 1}")
    acc, mapping = clustering_accuracy(y, c)
    # the mapping's keys are the cluster ids 0..k-1 in order
    pred = np.array(list(mapping.values()))[c] == positive_label
    truth = y == positive_label
    return MetricsReport(
        acc=acc,
        error_rate_percent=(1.0 - acc) * 100.0,
        fp=int(np.sum(pred & ~truth)),
        fn=int(np.sum(~pred & truth)),
        mapping=mapping,
    )
