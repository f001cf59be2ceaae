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
    confusion: np.ndarray  # rows: true label 0/1, cols: mapped prediction 0/1

    def csv_row(self, method: str) -> str:
        return (f"{method},{self.acc:.4f},{self.error_rate_percent:.2f},"
                f"{self.fp},{self.fn}")


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """The column for each row of a square cost matrix that minimises the total cost.

    A port of the shortest augmenting path solver that scipy's
    linear_sum_assignment runs (Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016), with its column scan order and
    tie rule, so that it returns the same assignment on the same matrix.
    """
    k = len(cost)
    inf = float("inf")
    u, v = [0] * k, [0] * k
    col4row, row4col, path = [-1] * k, [-1] * k, [-1] * k
    for cur in range(k):
        # scanned from the last column down, so a constant matrix gives the identity
        remaining = list(range(k - 1, -1, -1))
        spc = [inf] * k  # shortest path cost to each column
        seen_rows, seen_cols = [False] * k, [False] * k
        i, min_val, sink = cur, 0, -1
        while sink < 0:
            seen_rows[i] = True
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < spc[j]:
                    path[j], spc[j] = i, r
                # among equal costs, a free column ends the path
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] < 0):
                    index, lowest = it, spc[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for r in range(k):
            if seen_rows[r] and r != cur:
                u[r] += min_val - spc[col4row[r]]
        for j in range(k):
            if seen_cols[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:  # augment along the path back to the current row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


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

    Returns (acc, mapping). The optimal assignment on the contingency
    matrix is solved exactly; ties prefer the identity mapping.
    """
    y, c = _label_arrays(y, c)
    n = len(y)
    if min(c.min(), y.min()) < 0:
        raise ValidationError("labels and cluster ids must be non-negative")
    k = int(max(c.max(), y.max())) + 1

    counts = np.bincount(c * k + y, minlength=k * k).reshape(k, k)
    # scale so any real count difference dominates the identity tie-break bonus
    score = counts * (k + 1) + np.eye(k, dtype=np.int64)
    cols = _min_cost_assignment((-score).tolist())
    mapping = dict(enumerate(cols))
    matches = int(counts[np.arange(k), cols].sum())
    return matches / n, mapping


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
    fp, fn, confusion = confusion_counts(y, c, mapping, positive_label)
    return MetricsReport(
        acc=acc,
        error_rate_percent=(1.0 - acc) * 100.0,
        fp=fp,
        fn=fn,
        mapping=mapping,
        confusion=confusion,
    )
