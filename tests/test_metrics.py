from itertools import permutations, product

import numpy as np
import pytest

from derc import metrics
from derc.errors import ValidationError
from derc.metrics import _label_arrays, clustering_accuracy, evaluate

MAX_CLASSES = 8  # 8! = 40,320 mappings to try


def reference_clustering_accuracy(y, c):
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


def _outcome(y, c, positive_label):
    """evaluate's report, or the type and message of what it raised."""
    try:
        return evaluate(y, c, positive_label=positive_label)
    except ValidationError as exc:
        return type(exc), str(exc)


def _binary_pairs():
    """Every binary (y, c) with 1 to 6 samples, then 1,000 random 137-sample
    pairs at the paper's 114 tumour / 23 normal balance."""
    for n in range(1, 7):
        ids = np.array(list(product((0, 1), repeat=n)))
        for y in ids:
            for c in ids:
                yield y, c
    rng = np.random.default_rng(7)
    y = np.array([1] * 114 + [0] * 23)
    for _ in range(1000):
        yp = rng.permutation(y)
        flip = rng.random(137) < rng.random()
        yield yp, np.where(flip, 1 - yp, yp)


class TestAgainstPermutationSearch:
    def test_same_acc_mapping_and_report(self, monkeypatch):
        pairs = list(_binary_pairs())
        assert len(pairs) == sum(4 ** n for n in range(1, 7)) + 1000
        got = [(clustering_accuracy(y, c), [_outcome(y, c, pos) for pos in (0, 1)])
               for y, c in pairs]
        # evaluate through the permutation search is evaluate as it was
        monkeypatch.setattr(metrics, "clustering_accuracy", reference_clustering_accuracy)
        want = [(reference_clustering_accuracy(y, c), [_outcome(y, c, pos) for pos in (0, 1)])
                for y, c in pairs]
        for (y, c), (acc_map, reports), (ref_acc_map, ref_reports) in zip(pairs, got, want):
            assert acc_map == ref_acc_map, (y, c)
            # == on dicts ignores key order, which the report's mapping line shows
            assert list(acc_map[1].items()) == list(ref_acc_map[1].items()), (y, c)
            assert reports == ref_reports, (y, c)


class TestClusteringAccuracy:
    def test_inverted_mapping(self):
        acc, mapping = clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0])
        assert acc == 1.0
        assert mapping == {0: 1, 1: 0}

    def test_enumerated_two_cluster_case(self):
        # mappings: identity matches 3/4, swap matches 1/4
        acc, mapping = clustering_accuracy([0, 0, 1, 1], [0, 1, 1, 1])
        assert acc == 0.75
        assert mapping == {0: 0, 1: 1}

    def test_paper_scale_arithmetic(self):
        y = np.zeros(137, dtype=int)
        y[:114] = 1
        c = y.copy()
        c[0] = 0  # one cancer sample lands in the wrong cluster
        acc, _ = clustering_accuracy(y, c)
        assert acc == 136 / 137
        assert round(acc, 4) == 0.9927
        report = evaluate(y, c)
        assert round(report.error_rate_percent, 2) == 0.73

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=60)
        c = rng.integers(0, 2, size=60)
        acc0, _ = clustering_accuracy(y, c)
        acc1, _ = clustering_accuracy(y, 1 - c)
        assert acc0 == acc1

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=50)
        c = rng.integers(0, 2, size=50)
        perm = rng.permutation(50)
        assert clustering_accuracy(y, c)[0] == clustering_accuracy(y[perm], c[perm])[0]

    def test_constant_clustering_lower_bound(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, size=80)
        prior = y.mean()
        acc, _ = clustering_accuracy(y, np.zeros(80, dtype=int))
        assert acc >= max(prior, 1 - prior)

    def test_brute_force_optimum(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(1, 3))
            y = rng.integers(0, k, size=30)
            c = rng.integers(0, k, size=30)
            y[0] = c[0] = k - 1  # k classes, so the mapping covers 0..k-1
            acc, mapping = clustering_accuracy(y, c)
            best = max(int(np.sum(np.asarray(p)[c] == y)) for p in permutations(range(k)))
            assert sorted(mapping) == sorted(mapping.values()) == list(range(k))
            assert acc == best / 30

    def test_identity_preferred_on_ties(self):
        _, mapping = clustering_accuracy([0, 1], [0, 1])
        assert mapping == {0: 0, 1: 1}

    def test_errors(self):
        with pytest.raises(ValidationError):
            clustering_accuracy([0, 1], [0])
        with pytest.raises(ValidationError):
            clustering_accuracy([], [])
        with pytest.raises(ValidationError):
            evaluate([], [])

    @pytest.mark.parametrize("y, c", [
        ([0, 0, 1, 1], [-1, -1, 0, 0]),
        ([-1, -1, 0, 0], [0, 0, 1, 1]),
        ([0, 1, 2, 2], [0, 1, 1, 2]),
    ])
    def test_negative_ids_rejected(self, y, c):
        # only the ids 0 and 1 can be given or swapped
        with pytest.raises(ValidationError, match="^labels and cluster ids must be 0 or 1$"):
            clustering_accuracy(y, c)


class TestFpFn:
    def test_perfect_prediction(self):
        y = np.array([0, 0, 1, 1])
        report = evaluate(y, y)
        assert report.fp == 0 and report.fn == 0

    def test_all_positive_prediction(self):
        # cohort shape 23 negatives / 114 positives
        y = np.concatenate([np.zeros(23, dtype=int), np.ones(114, dtype=int)])
        c = np.ones(137, dtype=int)
        report = evaluate(y, c, positive_label=1)
        assert report.fp == 23 and report.fn == 0
        assert report.acc == pytest.approx(114 / 137)

    def test_fp_fn_decompose_errors(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=60)
        c = rng.integers(0, 2, size=60)
        report = evaluate(y, c)
        mapped = np.array([report.mapping[ci] for ci in c])
        assert report.fp + report.fn == int(np.sum(mapped != y))

    def test_brute_force_counts(self):
        # per sample: the cluster's mapped class against the true class
        rng = np.random.default_rng(6)
        for k in range(1, 3):
            for _ in range(50):
                y = rng.integers(0, k, size=25)
                c = rng.integers(0, k, size=25)
                y[0] = c[0] = k - 1  # every class shows
                for positive in range(max(1, k - 1) + 1):
                    report = evaluate(y, c, positive_label=positive)
                    fp = fn = 0
                    for ci, yi in zip(c, y):
                        pred = report.mapping[ci] == positive
                        fp += pred and yi != positive
                        fn += not pred and yi == positive
                    assert (report.fp, report.fn) == (fp, fn)


class TestReport:
    def test_error_rate_identity(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, size=30)
        c = rng.integers(0, 2, size=30)
        report = evaluate(y, c)
        assert report.error_rate_percent + 100.0 * report.acc == pytest.approx(100.0)

    def test_negative_cluster_id_rejected(self):
        # a negative id would index the contingency matrix from the end
        with pytest.raises(ValidationError, match="outside the label classes"):
            evaluate([0, 0, 1, 1], [0, 1, -1, 1])

    def test_csv_row_format(self):
        report = evaluate([0, 0, 1, 1], [0, 0, 1, 1])
        assert report.csv_row("ae+kmeans") == "ae+kmeans,1.0000,0.00,0,0"

    @pytest.mark.parametrize("positive_label", [-1, 2, 5])
    def test_positive_label_outside_classes_rejected(self, positive_label):
        # such a label matches no class, so FP and FN would both read 0
        with pytest.raises(ValidationError, match=f"positive label {positive_label} "):
            evaluate([0, 0, 1, 1], [0, 1, 1, 1], positive_label=positive_label)

    def test_positive_label_in_range_accepted(self):
        # 0..max(1, max(y)): a cohort of one class still scores class 1
        report = evaluate([0, 0, 0], [0, 0, 0], positive_label=1)
        assert (report.fp, report.fn) == (0, 0)
        # the one error, sample 3 predicted as class 0, is an FP for class 0
        # and an FN for class 1
        for label, fp_fn in ((0, (1, 0)), (1, (0, 1))):
            report = evaluate([0, 0, 1, 1], [1, 1, 0, 1], positive_label=label)
            assert (report.fp, report.fn) == fp_fn
