import numpy as np
import pytest

from derc.errors import ValidationError
from derc.metrics import (
    _min_cost_assignment,
    clustering_accuracy,
    confusion_counts,
    evaluate,
)


class TestMinCostAssignment:
    def test_matches_scipy_linear_sum_assignment(self):
        # the oracle: scipy's solver, whose rows, columns and tie order the
        # in-house port must reproduce (small integer ranges make many ties)
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(0)
        mismatches = 0
        for trial in range(10_000):
            k = int(rng.integers(1, 9))
            score = rng.integers(0, int(rng.integers(1, 5)), size=(k, k)) * (k + 1)
            if trial % 2:  # clustering_accuracy's identity bonus
                score += np.eye(k, dtype=np.int64)
            rows, cols = linear_sum_assignment(-score)
            mine = _min_cost_assignment((-score).tolist())
            mismatches += (rows.tolist(), cols.tolist()) != (list(range(k)), mine)
        assert mismatches == 0

    def test_brute_force_optimum(self):
        from itertools import permutations

        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            cost = rng.integers(-20, 20, size=(k, k)).tolist()
            cols = _min_cost_assignment(cost)
            best = min(sum(cost[r][p[r]] for r in range(k))
                       for p in permutations(range(k)))
            assert sorted(cols) == list(range(k))
            assert sum(cost[r][cols[r]] for r in range(k)) == best


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


class TestConfusionCounts:
    def test_perfect_prediction(self):
        y = np.array([0, 0, 1, 1])
        fp, fn, confusion = confusion_counts(y, y, {0: 0, 1: 1})
        assert fp == 0 and fn == 0
        assert confusion[0, 0] == 2 and confusion[1, 1] == 2

    def test_all_positive_prediction(self):
        # cohort shape 23 negatives / 114 positives
        y = np.concatenate([np.zeros(23, dtype=int), np.ones(114, dtype=int)])
        c = np.ones(137, dtype=int)
        fp, fn, _ = confusion_counts(y, c, {0: 0, 1: 1}, positive_label=1)
        assert fp == 23 and fn == 0
        acc, _ = clustering_accuracy(y, c)
        assert acc == pytest.approx(114 / 137)

    def test_fp_fn_decompose_errors(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=60)
        c = rng.integers(0, 2, size=60)
        report = evaluate(y, c)
        mapped = np.array([report.mapping[ci] for ci in c])
        assert report.fp + report.fn == int(np.sum(mapped != y))

    def test_invalid_mapping(self):
        with pytest.raises(ValidationError):
            confusion_counts([0, 1], [0, 1], {0: 0, 1: 0})


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
