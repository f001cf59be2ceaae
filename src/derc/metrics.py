"""Unsupervised evaluation: optimal-mapping accuracy, error rate, FP/FN."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ValidationError

MAX_CLASSES = 8  # 8! = 40,320 mappings to try


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
    """Best match rate over all one-to-one cluster-to-label mappings.

    Returns (acc, mapping). Every mapping of the k = max id + 1 classes is
    tried, so k may be at most MAX_CLASSES. Ties prefer the mapping that
    fixes the most clusters, then the first in lexicographic order.
    """
    y, c = _label_arrays(y, c)
    n = len(y)
    if min(c.min(), y.min()) < 0:
        raise ValidationError("labels and cluster ids must be non-negative")
    k = int(max(c.max(), y.max())) + 1
    if k > MAX_CLASSES:
        raise ValidationError(f"{k} classes; at most {MAX_CLASSES} can be scored")

    counts = np.bincount(c * k + y, minlength=k * k).reshape(k, k)
    # scale so any real count difference dominates the identity tie-break bonus
    score = (counts * (k + 1) + np.eye(k, dtype=np.int64)).tolist()
    cols = max(permutations(range(k)),
               key=lambda p: sum(row[j] for row, j in zip(score, p)))
    matches = int(counts[np.arange(k), cols].sum())
    return matches / n, dict(enumerate(cols))


def confusion_counts(y, c, mapping: dict[int, int], positive_label: int = 1):
    """FP/FN and the 2x2 confusion matrix after applying the mapping to c."""
    y = np.asarray(y, dtype=int)
    c = np.asarray(c, dtype=int)
    vals = sorted(mapping.values())
    if sorted(mapping.keys()) != vals or len(set(vals)) != len(vals):
        raise ValidationError("mapping must be a bijection on cluster ids")
    pred = np.asarray([mapping[ci] for ci in c], dtype=int)
    confusion = np.bincount(2 * (y == positive_label) + (pred == positive_label),
                            minlength=4).reshape(2, 2)
    return int(confusion[0, 1]), int(confusion[1, 0]), confusion


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
    fp, fn, _ = confusion_counts(y, c, mapping, positive_label)
    return MetricsReport(
        acc=acc,
        error_rate_percent=(1.0 - acc) * 100.0,
        fp=fp,
        fn=fn,
        mapping=mapping,
    )
