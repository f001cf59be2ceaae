import numpy as np
import pytest

from derc.errors import NumericError, ValidationError
from derc.kmeans import kmeans_fit


class TestKmeansFit:
    def test_four_point_line_optimum(self):
        z = np.array([[0.0], [0.1], [10.0], [10.1]])
        result = kmeans_fit(z, k=2, restarts=10, seed=0)
        assert sorted(result.centroids.ravel()) == pytest.approx([0.05, 10.05])
        assert result.inertia == pytest.approx(0.01)

    def test_k_equals_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(20, 3))
        result = kmeans_fit(z, k=1, restarts=3, seed=0)
        np.testing.assert_allclose(result.centroids[0], z.mean(axis=0))
        assert np.all(result.assignments == 0)

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(6, 2))
        result = kmeans_fit(z, k=6, restarts=5, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert len(set(result.assignments.tolist())) == 6

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(50, 4))
        a = kmeans_fit(z, k=3, restarts=8, seed=42)
        b = kmeans_fit(z, k=3, restarts=8, seed=42)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_best_of_restarts_dominates_single(self):
        rng = np.random.default_rng(3)
        z = np.concatenate([rng.normal(0, 0.2, (20, 2)),
                            rng.normal(3, 0.2, (20, 2)),
                            rng.normal((0, 3), 0.2, (20, 2))])
        multi = kmeans_fit(z, k=3, restarts=20, seed=5)
        for seed in range(5):
            single = kmeans_fit(z, k=3, restarts=1, seed=seed)
            assert multi.inertia <= single.inertia + 1e-12

    def test_centroids_are_cluster_means(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(40, 3))
        result = kmeans_fit(z, k=4, restarts=5, seed=1)
        for j in range(4):
            members = result.assignments == j
            assert members.any()
            np.testing.assert_allclose(result.centroids[j], z[members].mean(axis=0),
                                       atol=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.normal(0, 0.3, (25, 3)), rng.normal(4, 0.3, (25, 3))])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = kmeans_fit(z, k=2, restarts=10, seed=7)
        b = kmeans_fit(z @ q.T, k=2, restarts=10, seed=7)
        assert a.inertia == pytest.approx(b.inertia, abs=1e-9)
        same = np.array_equal(a.assignments, b.assignments)
        flipped = np.array_equal(a.assignments, 1 - b.assignments)
        assert same or flipped

    def test_argument_errors(self):
        z = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            kmeans_fit(z, k=4)
        with pytest.raises(ValidationError):
            kmeans_fit(z, k=0)

    def test_fewer_distinct_points_than_k(self):
        # a collapsed latent: every sample at the origin
        with pytest.raises(NumericError, match=r"^degenerate cluster: 1 distinct "
                                               r"point\(s\) among 60, fewer than k=2$"):
            kmeans_fit(np.zeros((60, 4)), k=2)
        z = np.repeat([[0.0, 1.0], [2.0, 3.0]], 3, axis=0)
        with pytest.raises(NumericError, match="2 distinct point"):
            kmeans_fit(z, k=3)
        result = kmeans_fit(z, k=2, restarts=2)
        assert result.inertia == 0.0
        assert sorted(np.bincount(result.assignments).tolist()) == [3, 3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points(self, bad):
        # a latent whose encoder overflows; an all-inf one is not read as one
        # distinct point
        z = np.random.default_rng(7).normal(size=(10, 3))
        z[4, 1] = bad
        with pytest.raises(NumericError, match=r"^k-means points hold a NaN or an inf$"):
            kmeans_fit(z, k=2)
        with pytest.raises(NumericError, match="NaN or an inf"):
            kmeans_fit(np.full((10, 3), bad), k=2)


class TestKmeansAssign:
    def test_self_consistency_with_fit(self):
        # fit assignments are the nearest centroids
        rng = np.random.default_rng(6)
        z = rng.normal(size=(30, 2))
        result = kmeans_fit(z, k=3, restarts=5, seed=2)
        d2 = ((z[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(np.argmin(d2, axis=1), result.assignments)
