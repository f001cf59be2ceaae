"""The trainers' first encoder layer, held in its training matrix's row space.

pretrain_ae, pretrain_vae and train_derc train the first encoder layer as
W = w0 + coef.T @ x (network.RowSpaceLayer). The oracle is the dense first
layer they used before: with row_space_first_layer replaced by a no-op,
the layer runs the dense forward x @ W.T and SgdMomentum's dense factored
update. Both must agree to rounding.
"""

import contextlib
import copy

import numpy as np
import pytest

from conftest import poison_last_step, traced_peak
from derc import autoencoder as ae
from derc import cluster as cl
from derc import kmeans
from derc import network as nw
from derc.errors import NumericError

# n < d, and an epoch of three batches of up to 8 (two with the validation split)
N_SAMPLES = 20
DIMS = [60, 16, 6, 3]
EPOCHS = 3
WEIGHT_RTOL = 1e-12
LOSS_RTOL = 1e-13


def cohort():
    rng = np.random.default_rng(0)
    centers = rng.uniform(0.2, 0.8, size=(2, DIMS[0]))
    x = centers[np.arange(N_SAMPLES) % 2] + rng.normal(0, 0.05, size=(N_SAMPLES, DIMS[0]))
    return np.clip(x, 0, 1)


def run_dense(train, *args):
    """train(*args) with the dense first layer."""
    with pytest.MonkeyPatch.context() as mp:
        for mod in (ae, cl):
            mp.setattr(mod, "row_space_first_layer",
                       lambda layers, x: contextlib.nullcontext())
        return train(*args)


def run_row_space(train, *args):
    """train(*args) as shipped; checks it trained one layer in row space."""
    seen = []

    @contextlib.contextmanager
    def spy(layers, x):
        with nw.row_space_first_layer(layers, x) as layer:
            seen.append(layer)
            yield layer

    with pytest.MonkeyPatch.context() as mp:
        for mod in (ae, cl):
            mp.setattr(mod, "row_space_first_layer", spy)
        out = train(*args)
    assert len(seen) == 1 and seen[0].coef.any()
    return out


def assert_weights_close(got: nw.NetworkParams, want: nw.NetworkParams) -> None:
    for a, b in zip(got.all_layers(), want.all_layers(), strict=True):
        assert type(a) is nw.DenseLayer
        for x, y in ((a.weights, b.weights), (a.bias, b.bias)):
            assert np.max(np.abs(x - y)) <= WEIGHT_RTOL * np.max(np.abs(y))


def assert_losses_close(got, want) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=LOSS_RTOL, atol=0.0)


def pretrain_config(momentum):
    return ae.PretrainConfig(epochs=EPOCHS, lr=0.5 if momentum == 0 else 0.05,
                             momentum=momentum, batch_size=8, seed=4,
                             validation_fraction=0.2)


class TestDenseOracle:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("train", [ae.pretrain_ae, ae.pretrain_vae],
                             ids=["ae", "vae"])
    def test_pretrain_matches_dense(self, train, momentum):
        x = cohort()
        args = (x, ae.AeSpec(list(DIMS)), pretrain_config(momentum))
        params, history = run_row_space(train, *args)
        ref_params, ref_history = run_dense(train, *args)
        assert_weights_close(params, ref_params)
        # train and validation losses of every epoch
        assert_losses_close([h[1:] for h in history], [h[1:] for h in ref_history])
        assert len(history) == EPOCHS and np.all(np.isfinite(history))

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_derc_matches_dense(self, momentum):
        x = cohort()
        start, _ = ae.pretrain_ae(x, ae.AeSpec(list(DIMS)), pretrain_config(0.0))
        centroids = kmeans.kmeans_fit(ae.encode(start, x), k=2, restarts=3).centroids
        # target_interval 4 refreshes P mid-epoch through the full-cohort encode
        cfg = cl.DercConfig(epochs=EPOCHS, lr=0.05, momentum=momentum, batch_size=8,
                            target_interval=4, k=2, seed=5)
        params = copy.deepcopy(start)
        first_weights = params.encoder_layers[0].weights
        result = run_row_space(cl.train_derc, x, params, centroids, cfg)
        ref = run_dense(cl.train_derc, x, copy.deepcopy(start), centroids, cfg)
        # W = w0 + coef.T @ x is formed in the caller's own weight array
        assert result.params.encoder_layers[0].weights is first_weights
        assert_weights_close(result.params, ref.params)
        assert np.max(np.abs(result.centroids - ref.centroids)) \
            <= WEIGHT_RTOL * np.max(np.abs(ref.centroids))
        # reconstruction and total loss of every step; the cluster term
        # KL(P || Q) / bs sums near-cancelling p * log(p / q), so it is held
        # to the same bound relative to the total it is part of
        got, want = np.array(result.history), np.array(ref.history)
        assert_losses_close(got[:, 2:], want[:, 2:])
        np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=0.0,
                                   atol=LOSS_RTOL * np.min(want[:, 3]))
        np.testing.assert_allclose(result.q, ref.q, rtol=0.0, atol=1e-13)
        assert np.array_equal(result.cluster_ids, ref.cluster_ids)


class TestMemory:
    def test_derc_velocity_has_no_first_layer_sized_part(self):
        # a dense first layer's velocity alone is 3000 x 200 doubles; the
        # row-space one is 16 x 200
        dims = [3000, 200, 10]
        first_bytes = 8 * dims[0] * dims[1]
        x = np.random.default_rng(0).uniform(0.1, 0.9, size=(16, dims[0]))
        params, _ = ae.pretrain_ae(x, ae.AeSpec(dims), ae.PretrainConfig(epochs=1, seed=0))
        centroids = kmeans.kmeans_fit(ae.encode(params, x), k=2, restarts=2).centroids
        cfg = cl.DercConfig(epochs=1, seed=0)
        assert cfg.momentum > 0
        peak = traced_peak(lambda: cl.train_derc(x, params, centroids, cfg))
        # the decoder's output layer keeps its dense velocity, 1x; a dense
        # first layer's velocity would add another 1x
        assert peak < 2 * first_bytes


class TestFiniteParameters:
    # 2 epochs of 3 batches; the inf comes after the last loss is computed,
    # so only the end-of-training check can see it
    STEPS = 6

    @pytest.mark.parametrize("train, stage", [(ae.pretrain_ae, "pretrain ae"),
                                              (ae.pretrain_vae, "pretrain vae")])
    def test_pretrain_rejects_non_finite_weight(self, monkeypatch, train, stage):
        calls = poison_last_step(monkeypatch, self.STEPS)
        cfg = ae.PretrainConfig(epochs=2, lr=0.5, batch_size=8, seed=0)
        with pytest.raises(NumericError, match=f"^{stage}: non-finite"):
            train(cohort(), ae.AeSpec(list(DIMS)), cfg)
        assert len(calls) == self.STEPS

    def test_derc_rejects_non_finite_weight(self, monkeypatch):
        x = cohort()
        params, _ = ae.pretrain_ae(x, ae.AeSpec(list(DIMS)), pretrain_config(0.0))
        centroids = kmeans.kmeans_fit(ae.encode(params, x), k=2, restarts=3).centroids
        calls = poison_last_step(monkeypatch, self.STEPS)
        cfg = cl.DercConfig(epochs=2, batch_size=8, k=2, seed=0)
        with pytest.raises(NumericError, match="^train-derc: non-finite"), \
                np.errstate(invalid="ignore"):
            cl.train_derc(x, params, centroids, cfg)
        assert len(calls) == self.STEPS
        # the dense layer is back in place, holding the inf the check found
        assert type(params.encoder_layers[0]) is nw.DenseLayer
        assert not np.isfinite(params.encoder_layers[0].weights).all()

    def test_finite_parameters_pass(self):
        nw.check_finite([np.zeros((2, 3)), np.ones(4), np.empty(0)], "stage")
        with pytest.raises(NumericError, match="stage: .* parameter 1"):
            nw.check_finite([np.zeros(2), np.array([0.0, np.nan])], "stage")
        with pytest.raises(NumericError):
            nw.check_finite([np.array([[-np.inf, 0.0]])], "stage")
