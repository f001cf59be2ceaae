import numpy as np
import pytest

from derc.errors import ValidationError
from derc.metrics import MAX_CLASSES, clustering_accuracy, evaluate


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

    def test_three_cluster_optimal_assignment(self):
        # brute force over all 6 permutations of 3 clusters
        from itertools import permutations

        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, size=40)
        c = rng.integers(0, 3, size=40)
        best = max(
            np.mean([perm[ci] == yi for ci, yi in zip(c, y)])
            for perm in permutations(range(3))
        )
        acc, _ = clustering_accuracy(y, c)
        assert acc == pytest.approx(best)

    def test_brute_force_optimum(self):
        from itertools import permutations

        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            y = rng.integers(0, k, size=30)
            c = rng.integers(0, k, size=30)
            y[0] = c[0] = k - 1  # k classes, so the mapping covers 0..k-1
            acc, mapping = clustering_accuracy(y, c)
            best = max(int(np.sum(np.asarray(p)[c] == y)) for p in permutations(range(k)))
            assert sorted(mapping) == sorted(mapping.values()) == list(range(k))
            assert acc == best / 30

    def test_too_many_classes_rejected(self):
        ids = list(range(MAX_CLASSES + 1))
        assert clustering_accuracy(ids[:-1], ids[:-1]) == (1.0, dict(zip(ids, ids[:-1])))
        with pytest.raises(ValidationError, match=f"{MAX_CLASSES + 1} classes"):
            clustering_accuracy(ids, ids)

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
    ])
    def test_negative_ids_rejected(self, y, c):
        # a negative id would index the contingency matrix from the end
        with pytest.raises(ValidationError, match="non-negative"):
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
        for k in range(1, 5):
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
