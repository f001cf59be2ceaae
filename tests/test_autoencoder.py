import numpy as np
import pytest

from conftest import finite_diff, jitter_biases
from derc import autoencoder as ae
from derc import network as nw
from derc.errors import ValidationError

SMALL_SPEC = ae.AeSpec(layer_dims=[12, 8, 4])


def blobs(n=40, d=12, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(2, d))
    x = centers[np.arange(n) % 2] + rng.normal(0, 0.05, size=(n, d))
    return np.clip(x, 0, 1)


class TestPretrainAe:
    def test_constant_dataset_learned(self):
        x = np.full((16, 12), 0.5)
        params, history = ae.pretrain_ae(
            x, SMALL_SPEC, ae.PretrainConfig(epochs=50, lr=1.0, batch_size=8, seed=0))
        assert history[-1][1] <= 1e-4

    def test_history_finite_and_improving(self):
        x = blobs()
        params, history = ae.pretrain_ae(
            x, SMALL_SPEC, ae.PretrainConfig(epochs=40, lr=1.0, batch_size=8, seed=1))
        losses = [h[1] for h in history]
        assert np.all(np.isfinite(losses))
        assert losses[-1] <= losses[0]

    def test_validation_split_reported(self):
        x = blobs()
        _, history = ae.pretrain_ae(
            x, SMALL_SPEC,
            ae.PretrainConfig(epochs=5, lr=0.5, seed=2, validation_fraction=0.2))
        assert np.isfinite(history[-1][2])

    def test_latent_dim_too_large_rejected(self):
        with pytest.raises(ValidationError):
            ae.pretrain_ae(np.full((8, 4), 0.5), ae.AeSpec(layer_dims=[4, 6]),
                           ae.PretrainConfig(epochs=1))


class TestEncode:
    def _trained(self):
        x = blobs()
        params, _ = ae.pretrain_ae(
            x, SMALL_SPEC, ae.PretrainConfig(epochs=30, lr=1.0, seed=3))
        return params, x

    def test_deterministic(self):
        params, x = self._trained()
        assert np.array_equal(ae.encode(params, x[:1]), ae.encode(params, x[:1]))

    def test_latent_width(self):
        params, x = self._trained()
        assert ae.encode(params, x).shape == (len(x), 4)

    def test_constant_reconstruction_close(self):
        x = np.full((16, 12), 0.5)
        params, _ = ae.pretrain_ae(
            x, SMALL_SPEC, ae.PretrainConfig(epochs=60, lr=1.0, seed=4))
        r = ae.reconstruct(params, x)
        assert np.max(np.abs(r - x)) <= 0.02


class TestVaeKl:
    def test_zero_at_standard_normal(self):
        assert ae.vae_kl(np.zeros(4), np.zeros(4)) == 0.0

    def test_unit_mean_single_dim(self):
        assert ae.vae_kl(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mu = rng.normal(size=5)
            lv = rng.normal(size=5)
            assert ae.vae_kl(mu, lv) >= 0.0


class TestVae:
    def test_reparameterization_identity(self):
        rng = np.random.default_rng(0)
        params = ae.build_vae([12, 8, 4], rng)
        x = blobs()
        eps = rng.standard_normal((len(x), 4))
        _, cache = ae.vae_forward(params, x, eps)
        np.testing.assert_allclose(
            cache["z"] - cache["mu_val"],
            np.exp(0.5 * cache["lv_val"]) * eps, atol=1e-12)

    def test_weighted_loss_gradients(self):
        rng = np.random.default_rng(1)
        params = ae.build_vae([6, 5, 3], rng)
        jitter_biases(params.all_layers(), rng)
        x = rng.uniform(0.2, 0.8, size=(4, 6))
        eps = rng.standard_normal((4, 3))
        _, grads, _ = ae.vae_loss_and_grads(params, x, eps, 0.8)
        err = finite_diff(
            lambda: ae.vae_loss_and_grads(params, x, eps, 0.8)[0],
            nw.collect_params(params.all_layers()), nw.flatten_grads(grads))
        assert err <= 1e-4

    def test_recon_weight_one_ignores_kl(self):
        rng = np.random.default_rng(2)
        params = ae.build_vae([6, 5, 3], rng)
        x = rng.uniform(0.2, 0.8, size=(4, 6))
        eps = rng.standard_normal((4, 3))
        loss, _, aux = ae.vae_loss_and_grads(params, x, eps, 1.0)
        assert loss == aux["mse"]

    def test_kl_pulls_latent_toward_origin(self):
        x = blobs(n=48)
        cfg = ae.PretrainConfig(epochs=60, lr=1.0, batch_size=8, seed=5)
        ae_params, _ = ae.pretrain_ae(x, SMALL_SPEC, cfg)
        vae_params, _ = ae.pretrain_vae(x, SMALL_SPEC, cfg)
        norm_ae = np.linalg.norm(ae.encode(ae_params, x), axis=1).mean()
        norm_vae = np.linalg.norm(ae.encode(vae_params, x), axis=1).mean()
        assert norm_vae < norm_ae

    def test_pretrain_vae_history(self):
        x = blobs()
        _, history = ae.pretrain_vae(
            x, SMALL_SPEC, ae.PretrainConfig(epochs=30, lr=1.0, seed=6))
        losses = [h[1] for h in history]
        assert np.all(np.isfinite(losses))
        assert losses[-1] <= losses[0]

    def test_mean_encode_deterministic(self):
        rng = np.random.default_rng(3)
        params = ae.build_vae([12, 8, 4], rng)
        x = blobs()
        assert np.array_equal(ae.encode(params, x), ae.encode(params, x))

    def test_reconstruction_loss_modes(self):
        rng = np.random.default_rng(4)
        params = ae.build_vae([12, 8, 4], rng)
        x = blobs()
        # the latents are drawn from an int seed or from a Generator
        sampled = ae.vae_reconstruction_loss(params, x, seed=0)
        assert np.isfinite(sampled)
        assert ae.vae_reconstruction_loss(params, x, np.random.default_rng(0)) == sampled
