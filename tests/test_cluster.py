import numpy as np
import pytest

from conftest import finite_diff, jitter_biases, traced_peak
from derc import autoencoder as ae
from derc import cluster as cl
from derc import data, kmeans
from derc import network as nw
from derc.errors import NumericError, ValidationError
from derc.metrics import clustering_accuracy


class TestSoftAssign:
    def test_kernel_values(self):
        centroids = np.array([[0.0], [1.0]])
        q = cl.soft_assign(np.array([[0.0]]), centroids)
        np.testing.assert_allclose(q[0], [2 / 3, 1 / 3])

    def test_equidistant_symmetry(self):
        centroids = np.array([[0.0], [2.0]])
        q = cl.soft_assign(np.array([[1.0]]), centroids)
        np.testing.assert_allclose(q[0], [0.5, 0.5])

    def test_single_cluster(self):
        q = cl.soft_assign(np.random.default_rng(0).normal(size=(5, 3)),
                           np.zeros((1, 3)))
        np.testing.assert_allclose(q, 1.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q = cl.soft_assign(rng.normal(size=(50, 4)), rng.normal(size=(3, 4)))
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(q >= 0)


class TestTargetDistribution:
    def test_single_sample_identity(self):
        q = np.array([[0.7, 0.3]])
        np.testing.assert_allclose(cl.target_distribution(q), q, atol=1e-12)

    def test_one_hot_fixed_point(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(cl.target_distribution(q), q)

    def test_hand_computed_case(self):
        q = np.array([[0.8, 0.2], [0.6, 0.4]])
        p = cl.target_distribution(q)
        # f = [1.4, 0.6]; row 0: (0.64/1.4) vs (0.04/0.6), normalized
        np.testing.assert_allclose(p[0], [0.8727272727, 0.1272727273], atol=1e-9)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_degenerate_cluster_error(self):
        with pytest.raises(NumericError, match="degenerate"):
            cl.target_distribution(np.array([[1.0, 0.0], [1.0, 0.0]]))


class TestClusterKlLoss:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(4, 3))
        mu = rng.normal(size=(2, 3))
        q = cl.soft_assign(z, mu)
        loss, dz, dmu = cl.cluster_kl_loss(q, q, z, mu)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(dz, 0.0, atol=1e-12)
        np.testing.assert_allclose(dmu, 0.0, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(size=(6, 2))
            mu = rng.normal(size=(3, 2))
            q = cl.soft_assign(z, mu)
            p = cl.target_distribution(q)
            assert cl.cluster_kl_loss(p, q, z, mu)[0] >= 0.0

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 3))
        mu = rng.normal(size=(2, 3))
        p = cl.target_distribution(cl.soft_assign(z, mu) ** 1.5
                                   / (cl.soft_assign(z, mu) ** 1.5).sum(1, keepdims=True))
        _, dz, dmu = cl.cluster_kl_loss(p, cl.soft_assign(z, mu), z, mu)

        def loss_fn():
            return cl.cluster_kl_loss(p, cl.soft_assign(z, mu), z, mu)[0]

        err = finite_diff(loss_fn, [z, mu], [dz, dmu], eps=1e-6)
        assert err <= 1e-5


class TestDercBatchLoss:
    def test_gradients_vs_finite_differences(self):
        # the whole batch objective KL(P || Q) / bs + beta * MSE, P held fixed:
        # every encoder, decoder and centroid gradient
        rng = np.random.default_rng(3)
        params = ae.build_ae([6, 4, 2], rng)
        jitter_biases(params.all_layers(), rng)
        x = rng.uniform(size=(5, 6))
        centroids = rng.normal(size=(2, 2))
        # targets away from Q, so the cluster gradients are not near zero
        p = rng.dirichlet([0.5, 0.5], size=5)
        total, cl_loss, rec_loss, grads = cl._derc_batch_loss(params, centroids, x, p, 0.75)
        assert total == pytest.approx(cl_loss + 0.75 * rec_loss)

        tensors = [*nw.collect_params(params.all_layers()), centroids]
        dense = [*nw.flatten_grads(grads[:-1]), grads[-1][0]]
        err = finite_diff(
            lambda: cl._derc_batch_loss(params, centroids, x, p, 0.75)[0],
            tensors, dense, eps=1e-6)
        assert err <= 1e-4  # beta^2 on the encoder's reconstruction term: 5e-2


def two_blob_setup(seed=0, n=40, d=12):
    ds = data.generate_synthetic(
        data.SynthSpec(n_samples=n, n_features=d, n_informative=6, seed=seed))
    spec = ae.AeSpec(layer_dims=[d, 8, 4])
    params, _ = ae.pretrain_ae(ds.values, spec,
                               ae.PretrainConfig(epochs=40, lr=1.0, seed=seed))
    z = ae.encode(params, ds.values)
    km = kmeans.kmeans_fit(z, k=2, restarts=20, seed=seed)
    return ds, params, km


class TestTrainDerc:
    def test_beta_zero_freezes_decoder(self):
        ds, params, km = two_blob_setup()
        before = [layer.weights.copy() for layer in params.decoder_layers]
        enc_before = [layer.weights.copy() for layer in params.encoder_layers]
        cl.train_derc(ds.values, params, km.centroids,
                      cl.DercConfig(beta=0.0, epochs=3, seed=0))
        for old, layer in zip(before, params.decoder_layers):
            assert np.array_equal(old, layer.weights)
        assert any(not np.array_equal(old, layer.weights)
                   for old, layer in zip(enc_before, params.encoder_layers))

    def test_improves_or_matches_kmeans(self):
        gains = []
        for seed in range(3):
            ds, params, km = two_blob_setup(seed=seed)
            acc_km = clustering_accuracy(ds.labels, km.assignments)[0]
            result = cl.train_derc(ds.values, params, km.centroids,
                                   cl.DercConfig(beta=0.75, epochs=20, seed=seed))
            acc_derc = clustering_accuracy(ds.labels, result.cluster_ids)[0]
            gains.append(acc_derc - acc_km)
        assert np.mean(gains) >= 0.0

    def test_history_and_state_shape(self):
        ds, params, km = two_blob_setup(seed=1)
        result = cl.train_derc(ds.values, params, km.centroids,
                               cl.DercConfig(beta=0.75, epochs=4, seed=1))
        assert len(result.history) == 4 * int(np.ceil(len(ds.values) / 8))
        np.testing.assert_allclose(result.q.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(result.p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(result.q.sum(axis=0) > 0)
        assert np.array_equal(result.cluster_ids,
                              np.argmax(result.q, axis=1))

    def test_stop_delta_stops_at_second_refresh(self):
        # 40 samples in batches of 8 is 5 steps per epoch; a refresh every 7
        # steps puts the second refresh in the middle of the second epoch, and
        # stop_delta=1.0 stops there unless every assignment changed
        ds, params, km = two_blob_setup(seed=1)
        result = cl.train_derc(ds.values, params, km.centroids,
                               cl.DercConfig(epochs=4, target_interval=7,
                                             stop_delta=1.0, seed=1))
        assert [row[0] for row in result.history] == list(range(7))
        np.testing.assert_allclose(result.q.sum(axis=1), 1.0, atol=1e-9)

    def test_centroid_permutation_equivariance(self):
        ds, params0, km = two_blob_setup(seed=2)
        import copy

        params1 = copy.deepcopy(params0)
        cfg = cl.DercConfig(beta=0.75, epochs=5, seed=3)
        r0 = cl.train_derc(ds.values, params0, km.centroids, cfg)
        r1 = cl.train_derc(ds.values, params1, km.centroids[::-1].copy(),
                           cl.DercConfig(beta=0.75, epochs=5, seed=3))
        assert np.array_equal(r0.cluster_ids, 1 - r1.cluster_ids)
        acc0 = clustering_accuracy(ds.labels, r0.cluster_ids)[0]
        acc1 = clustering_accuracy(ds.labels, r1.cluster_ids)[0]
        assert acc0 == acc1

    def test_centroid_steps_decrease_cluster_loss(self):
        # frozen targets, beta = 0, tiny lr: pure centroid descent on KL
        rng = np.random.default_rng(4)
        z = rng.normal(size=(20, 3))
        mu = rng.normal(size=(2, 3))
        q = cl.soft_assign(z, mu)
        p = cl.target_distribution(q)
        losses = []
        for _ in range(20):
            q = cl.soft_assign(z, mu)
            loss, _, dmu = cl.cluster_kl_loss(p, q, z, mu)
            losses.append(loss)
            mu -= 1e-4 * dmu
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_k_exceeds_n(self):
        ds, params, km = two_blob_setup(seed=5, n=10)
        with pytest.raises(ValidationError):
            cl.train_derc(ds.values[:1], params, np.zeros((2, 4)),
                          cl.DercConfig(k=2, epochs=1))

    def test_vae_trains_on_mean_encoding(self, tmp_path):
        ds = data.generate_synthetic(
            data.SynthSpec(n_samples=40, n_features=12, n_informative=6, seed=8))
        params = ae.build_vae([12, 8, 4], np.random.default_rng(8))
        lv_w, lv_b = params.logvar_head.weights.copy(), params.logvar_head.bias.copy()
        mu_w = params.encoder_layers[-1].weights.copy()
        km = kmeans.kmeans_fit(ae.encode(params, ds.values), k=2, restarts=5, seed=8)
        result = cl.train_derc(ds.values, params, km.centroids,
                               cl.DercConfig(epochs=3, seed=8))
        assert np.array_equal(params.logvar_head.weights, lv_w)
        assert np.array_equal(params.logvar_head.bias, lv_b)
        assert not np.array_equal(params.encoder_layers[-1].weights, mu_w)
        path = tmp_path / "trained.derc"
        data.save_model(path, result.params, centroids=result.centroids)
        loaded, _, meta = data.load_model(path)
        assert meta["kind"] == "vae"
        assert np.array_equal(loaded.logvar_head.weights, lv_w)

    def test_determinism(self):
        import copy

        ds, params, km = two_blob_setup(seed=6)
        a = cl.train_derc(ds.values, copy.deepcopy(params), km.centroids,
                          cl.DercConfig(beta=0.75, epochs=5, seed=7))
        b = cl.train_derc(ds.values, copy.deepcopy(params), km.centroids,
                          cl.DercConfig(beta=0.75, epochs=5, seed=7))
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.centroids, b.centroids)



class TestTrainingMemory:
    """Training never forms a dense weight gradient.

    A dense copy of every weight gradient, as training held before weight
    gradients were kept as factors, pushes each peak past 2x the weights.
    """

    DIMS = [3000, 200, 10]
    WEIGHT_BYTES = 8 * 2 * (3000 * 200 + 200 * 10)

    def cohort(self):
        return np.random.default_rng(0).uniform(0.1, 0.9, size=(16, self.DIMS[0]))

    def test_pretrain_peak_near_weights(self):
        x = self.cohort()
        peak = traced_peak(lambda: ae.pretrain_ae(
            x, ae.AeSpec(self.DIMS), ae.PretrainConfig(epochs=1, seed=0)))
        # the weights themselves are built inside pretrain_ae
        assert peak < 1.5 * self.WEIGHT_BYTES

    def test_derc_peak_near_velocity(self):
        x = self.cohort()
        params, _ = ae.pretrain_ae(x, ae.AeSpec(self.DIMS),
                                   ae.PretrainConfig(epochs=1, seed=0))
        centroids = kmeans.kmeans_fit(ae.encode(params, x), k=2, restarts=2).centroids
        cfg = cl.DercConfig(epochs=1, seed=0)
        assert cfg.momentum > 0  # so the velocity, one weight-sized copy, exists
        peak = traced_peak(lambda: cl.train_derc(x, params, centroids, cfg))
        assert peak < 1.5 * self.WEIGHT_BYTES


def predict(params, centroids, x):
    """Hard assignment: argmax of the soft assignment of the encoded rows."""
    return np.argmax(cl.soft_assign(ae.encode(params, x), centroids), axis=1)


class TestPredict:
    def test_latent_at_centroid(self):
        rng = np.random.default_rng(0)
        params = ae.build_ae([6, 4, 2], rng)
        x = rng.uniform(size=(3, 6))
        z = ae.encode(params, x)
        centroids = np.array([z[0] + 5.0, z[1]])
        pred = predict(params, centroids, x)
        assert pred[1] == 1

    def test_duplicate_sample_invariance(self):
        rng = np.random.default_rng(1)
        params = ae.build_ae([6, 4, 2], rng)
        centroids = rng.normal(size=(2, 2))
        x = rng.uniform(size=(4, 6))
        doubled = np.vstack([x, x[2:3]])
        pred = predict(params, centroids, doubled)
        assert pred[-1] == pred[2]
        np.testing.assert_array_equal(pred[:4], predict(params, centroids, x))
