"""The decoder's output layer, with its SGD-momentum updates kept pending.

pretrain_ae, pretrain_vae and train_derc hold the decoder's output layer as
a network.DeferredLayer wherever a full pending window is smaller than its
weights, at momentum 0 and above. The oracle is the dense layer they used
before: with network.training_layers making no DeferredLayer, every step
applies its update to W, and to its velocity, through SgdMomentum's
factored path.
Both must agree to rounding; where deferral is not taken, they must agree
bit for bit.
"""

import contextlib
import copy
import dataclasses

import numpy as np
import pytest

from conftest import flatten_grads, jitter_biases, traced_peak
from derc import autoencoder as ae
from derc import cluster as cl
from derc import kmeans
from derc import network as nw
from derc.errors import NumericError, ValidationError

K = nw.PENDING_STEPS
BATCH = 2
# an epoch of K + 2 batches, the last of one row: K steps fill the window
# mid-epoch, the next two are flushed at the epoch's end; at a momentum, the
# second window starts from the velocity the first one left
N_TRAIN = BATCH * (K + 1) + 1
# a 0.2 validation split of N_SAMPLES leaves N_TRAIN to train on
N_SAMPLES = N_TRAIN + round(N_TRAIN / 4)
# the 64 -> 300 output layer is deferred: K * BATCH * (64 + 300) < 64 * 300
DIMS = [300, 64, 8, 3]
# a 16 -> 60 output layer is not: K * BATCH * (16 + 60) > 16 * 60
SMALL_DIMS = [60, 16, 6, 3]
EPOCHS = 3
MOMENTUM = 0.9
WEIGHT_RTOL = 1e-12
LOSS_RTOL = 1e-13


def cohort(n, d=DIMS[0]):
    rng = np.random.default_rng(0)
    centers = rng.uniform(0.2, 0.8, size=(2, d))
    x = centers[np.arange(n) % 2] + rng.normal(0, 0.05, size=(n, d))
    return np.clip(x, 0, 1)


@contextlib.contextmanager
def spied(seen, flushed, defer=True):
    """Patch the trainers' training_layers to record in seen the params it
    holds and the decoder's output layer it trains, or with defer=False to
    leave that layer dense, and DeferredLayer.flush to record the pending
    rows it applies in flushed."""
    flush = nw.DeferredLayer.flush

    def spy_flush(self):
        flushed.append(self.rows)
        flush(self)

    @contextlib.contextmanager
    def spy(params, x, cfg):
        with nw.training_layers(params, x, cfg):
            seen.append((params, params.decoder_layers[-1]))
            yield

    with pytest.MonkeyPatch.context() as mp:
        for mod in (ae, cl):
            mp.setattr(mod, "training_layers", spy)
        if not defer:
            mp.setattr(nw.DeferredLayer, "pays", staticmethod(lambda layer, batch_size: False))
        mp.setattr(nw.DeferredLayer, "flush", spy_flush)
        yield


def run_dense(train, *args):
    """train(*args) with the dense output layer."""
    with spied([], [], defer=False):
        return train(*args)


def run_deferred(train, *args):
    """train(*args) as shipped, and the DeferredLayer it used; checks that it
    flushed a full window mid-epoch and the epoch's short rest at its end."""
    seen, flushed = [], []
    with spied(seen, flushed):
        out = train(*args)
    assert len(seen) == 1 and type(seen[0][1]) is nw.DeferredLayer
    assert flushed[:2] == [K * BATCH, N_TRAIN - K * BATCH]
    return out, seen[0][1]


def run_not_deferred(train, *args):
    """train(*args) as shipped; checks that the output layer stayed dense."""
    seen, flushed = [], []
    with spied(seen, flushed):
        out = train(*args)
    assert len(seen) == 1 and type(seen[0][1]) is nw.DenseLayer and not flushed
    return out


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    assert np.max(np.abs(got - want)) <= WEIGHT_RTOL * np.max(np.abs(want))


def assert_weights_close(got: nw.NetworkParams, want: nw.NetworkParams) -> None:
    for a, b in zip(got.all_layers(), want.all_layers(), strict=True):
        assert type(a) is nw.DenseLayer
        assert_close(a.weights, b.weights)
        assert_close(a.bias, b.bias)


def assert_weights_equal(got: nw.NetworkParams, want: nw.NetworkParams) -> None:
    for a, b in zip(got.all_layers(), want.all_layers(), strict=True):
        assert type(a) is nw.DenseLayer
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def assert_losses_close(got, want) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=LOSS_RTOL, atol=0.0)


def pretrain_config(momentum, **kw):
    return ae.PretrainConfig(epochs=EPOCHS, lr=0.5 if momentum == 0 else 0.05,
                             momentum=momentum, batch_size=BATCH, seed=4,
                             validation_fraction=0.2, **kw)


def derc_setup(momentum, pretrain=ae.pretrain_ae, dims=DIMS, lr=0.5):
    x = cohort(N_TRAIN)
    start, _ = pretrain(x, ae.AeSpec(list(dims)),
                        dataclasses.replace(pretrain_config(0.0), lr=lr))
    centroids = kmeans.kmeans_fit(ae.encode(start, x), k=2, restarts=3).centroids
    # target_interval 4 refreshes P mid-epoch through the full-cohort encode
    cfg = cl.DercConfig(epochs=EPOCHS, lr=0.05, momentum=momentum, batch_size=BATCH,
                        target_interval=4, k=2, seed=5)
    return x, start, centroids, cfg


TRAINERS = pytest.mark.parametrize("train", [ae.pretrain_ae, ae.pretrain_vae],
                                   ids=["ae", "vae"])
# each kind of model training_layers holds, with a momentum-0 pretraining lr:
# the first encoder layer trains in row space except in the VAE without a
# trunk, which diverges at lr 0.5; the 64 -> 300 output layer is deferred in
# all three
MODELS = pytest.mark.parametrize("train, dims, lr", [(ae.pretrain_ae, DIMS, 0.5),
                                                     (ae.pretrain_vae, DIMS, 0.5),
                                                     (ae.pretrain_vae, DIMS[:2], 0.1)],
                                 ids=["ae", "vae", "trunkless-vae"])


def check_pretrain_matches_dense(train, momentum):
    args = (cohort(N_SAMPLES), ae.AeSpec(list(DIMS)), pretrain_config(momentum))
    (params, history), layer = run_deferred(train, *args)
    ref_params, ref_history = run_dense(train, *args)
    assert_weights_close(params, ref_params)
    # train and validation losses of every epoch
    assert_losses_close([h[1:] for h in history], [h[1:] for h in ref_history])
    assert len(history) == EPOCHS and np.all(np.isfinite(history))
    # at momentum 0 no velocity is kept
    assert (layer.velocity is None) == (momentum == 0)


def check_derc_matches_dense(momentum):
    x, start, centroids, cfg = derc_setup(momentum)
    params = copy.deepcopy(start)
    output = params.decoder_layers[-1]
    result, layer = run_deferred(cl.train_derc, x, params, centroids, cfg)
    ref = run_dense(cl.train_derc, x, copy.deepcopy(start), centroids, cfg)
    assert (layer.velocity is None) == (momentum == 0)
    # the caller's own dense layer is back, holding the trained weights
    assert result.params.decoder_layers[-1] is output
    assert_weights_close(result.params, ref.params)
    assert_close(result.centroids, ref.centroids)
    # as in test_row_space: the cluster term is held relative to the total
    got, want = np.array(result.history), np.array(ref.history)
    assert_losses_close(got[:, 2:], want[:, 2:])
    np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=0.0,
                               atol=LOSS_RTOL * np.min(want[:, 3]))
    np.testing.assert_allclose(result.q, ref.q, rtol=0.0, atol=1e-13)
    assert np.array_equal(result.cluster_ids, ref.cluster_ids)


class TestDenseOracle:
    @TRAINERS
    def test_pretrain_matches_dense(self, train):
        check_pretrain_matches_dense(train, 0.0)

    @TRAINERS
    def test_pretrain_at_momentum_matches_dense(self, train):
        check_pretrain_matches_dense(train, MOMENTUM)

    def test_derc_matches_dense(self):
        check_derc_matches_dense(0.0)

    def test_derc_at_momentum_matches_dense(self):
        check_derc_matches_dense(MOMENTUM)


class TestNotTaken:
    @TRAINERS
    @pytest.mark.parametrize("momentum", [0.0, MOMENTUM],
                             ids=["below-size-rule", "below-size-rule-momentum"])
    def test_pretrain_is_bitwise_dense(self, train, momentum):
        args = (cohort(N_SAMPLES, SMALL_DIMS[0]), ae.AeSpec(list(SMALL_DIMS)),
                pretrain_config(momentum))
        params, history = run_not_deferred(train, *args)
        ref_params, ref_history = run_dense(train, *args)
        assert_weights_equal(params, ref_params)
        assert np.array_equal(history, ref_history, equal_nan=True)


def poison_loss(mp, module, at):
    """Make module's mse_loss report a NaN loss on its call number `at`."""
    mse_loss, calls = module.mse_loss, []

    def poisoned(x, r):
        loss, grad = mse_loss(x, r)
        calls.append(None)
        return (np.nan if len(calls) == at else loss), grad

    mp.setattr(module, "mse_loss", poisoned)


class TestErrors:
    # the loss of step 5 is NaN: the first four steps are pending, not yet in W
    POISONED_STEP = 5

    def run_poisoned(self, defer, train, module, *args):
        """The params training_layers held, after train(*args) stopped on
        the poisoned loss; with defer, checks the output layer was deferred."""
        seen = []
        with spied(seen, [], defer), pytest.MonkeyPatch.context() as mp:
            poison_loss(mp, module, self.POISONED_STEP)
            with pytest.raises(NumericError, match="non-finite loss nan at epoch 0, step 4"):
                train(*args)
        assert (type(seen[0][1]) is nw.DeferredLayer) == defer
        return seen[0][0]

    @MODELS
    def test_pretrain_error_mid_window_leaves_dense_flushed_layer(self, train, dims, lr):
        args = (cohort(N_SAMPLES), ae.AeSpec(list(dims)),
                dataclasses.replace(pretrain_config(0.0), lr=lr))
        got = self.run_poisoned(True, train, ae, *args)
        want = self.run_poisoned(False, train, ae, *args)
        # every layer is dense, the pending window applied
        assert_weights_close(got, want)

    @MODELS
    def test_derc_error_mid_window_leaves_dense_flushed_layer(self, train, dims, lr):
        x, start, centroids, cfg = derc_setup(0.0, train, dims, lr)
        params, ref = copy.deepcopy(start), copy.deepcopy(start)
        layers = params.all_layers()
        self.run_poisoned(True, cl.train_derc, ae, x, params, centroids, cfg)
        self.run_poisoned(False, cl.train_derc, ae, x, ref, centroids, cfg)
        # the caller's own dense layers are back, the pending window applied
        assert all(a is b for a, b in zip(params.all_layers(), layers, strict=True))
        assert_weights_close(params, ref)
        assert not np.array_equal(params.decoder_layers[-1].weights,
                                  start.decoder_layers[-1].weights)

    # 2 epochs of K + 2 steps: the inf enters the window after the last loss
    # is computed, so only the end-of-training check can see it in W
    STEPS = 2 * (K + 2)

    def poison_window_on_last_step(self, monkeypatch):
        step, calls = nw.SgdMomentum.step, []

        def poisoned(self, grads):
            step(self, grads)
            calls.append(None)
            if len(calls) == TestErrors.STEPS:
                (layer,) = [p for p in self.params if isinstance(p, nw.DeferredLayer)]
                assert layer.rows > 0
                layer.pending[0, 0] = np.inf

        monkeypatch.setattr(nw.SgdMomentum, "step", poisoned)
        return calls

    def check_pretrain_rejects(self, monkeypatch, train, stage, momentum):
        calls = self.poison_window_on_last_step(monkeypatch)
        cfg = ae.PretrainConfig(epochs=2, lr=0.5 if momentum == 0 else 0.05,
                                momentum=momentum, batch_size=BATCH, seed=0)
        with pytest.raises(NumericError, match=f"^{stage}: non-finite"), \
                np.errstate(invalid="ignore"):
            train(cohort(N_TRAIN), ae.AeSpec(list(DIMS)), cfg)
        assert len(calls) == self.STEPS

    def check_derc_rejects(self, monkeypatch, momentum):
        x, params, centroids, _ = derc_setup(0.0)
        calls = self.poison_window_on_last_step(monkeypatch)
        cfg = cl.DercConfig(epochs=2, lr=0.05, momentum=momentum, batch_size=BATCH, k=2,
                            seed=0)
        with pytest.raises(NumericError, match="^train-derc: non-finite"), \
                np.errstate(invalid="ignore"):
            cl.train_derc(x, params, centroids, cfg)
        assert len(calls) == self.STEPS
        # the dense layer is back in place, holding the inf the check found
        assert type(params.decoder_layers[-1]) is nw.DenseLayer
        assert not np.isfinite(params.decoder_layers[-1].weights).all()

    PRETRAIN_STAGES = pytest.mark.parametrize(
        "train, stage", [(ae.pretrain_ae, "pretrain ae"), (ae.pretrain_vae, "pretrain vae")])

    @PRETRAIN_STAGES
    def test_pretrain_rejects_non_finite_window(self, monkeypatch, train, stage):
        self.check_pretrain_rejects(monkeypatch, train, stage, 0.0)

    @PRETRAIN_STAGES
    def test_pretrain_rejects_non_finite_window_at_momentum(self, monkeypatch, train, stage):
        self.check_pretrain_rejects(monkeypatch, train, stage, MOMENTUM)

    def test_derc_rejects_non_finite_window(self, monkeypatch):
        self.check_derc_rejects(monkeypatch, 0.0)

    def test_derc_rejects_non_finite_window_at_momentum(self, monkeypatch):
        self.check_derc_rejects(monkeypatch, MOMENTUM)


class TestDeferredLayer:
    # at batch 1 a full window, K rows of 40 + 50, is smaller than the 40 x 50 W
    CFG = nw.SgdConfig(epochs=1, lr=0.1, momentum=0.0, batch_size=1)

    def factors(self, rng, rows):
        return rng.normal(size=(rows, 50)), rng.normal(size=(rows, 40))

    def test_reads_go_through_the_effective_weights(self):
        rng = np.random.default_rng(15)
        dense = nw.DenseLayer.create(40, 50, "sigmoid", rng)
        w = dense.weights.copy()
        layer = nw.DeferredLayer(dense, window=6)
        for _ in range(2):
            dz, h = self.factors(rng, 3)
            layer.defer(dz, h, 0.1)
            w -= 0.1 * dz.T @ h
        effective = nw.DenseLayer(w, dense.bias, dense.activation)
        h, grad_out = rng.normal(size=(3, 40)), rng.normal(size=(3, 50))
        (got, cache), (want, ref_cache) = (nw.forward_layers([layer], h),
                                           nw.forward_layers([effective], h))
        assert_close(got, want)
        got_grads, got_in = nw.backward_layers([layer], cache, grad_out)
        want_grads, want_in = nw.backward_layers([effective], ref_cache, grad_out)
        assert_close(got_in, want_in)
        assert_close(flatten_grads(got_grads)[0], flatten_grads(want_grads)[0])

    def test_reads_at_momentum_go_through_the_effective_weights(self):
        # batches of 3 rows in a window of K of them: after 2K + 3 steps the
        # window holds 3 steps on top of a velocity formed from two windows
        rng = np.random.default_rng(18)
        dense = nw.DenseLayer.create(40, 50, "sigmoid", rng)
        w, v = dense.weights.copy(), np.zeros_like(dense.weights)
        layer = nw.DeferredLayer(dense, window=3 * K, momentum=MOMENTUM)
        for step in range(2 * K + 3):
            dz, h = self.factors(rng, 3)
            layer.defer(dz, h, 0.1)
            v = MOMENTUM * v - 0.1 * dz.T @ h
            w += v
            if step % K == K - 1:
                # flushed: W is exact, the velocity still the previous window's
                assert layer.rows == 0
                assert_close(dense.weights, w)
        assert layer.rows == 9 and layer.velocity is not None
        effective = nw.DenseLayer(w, dense.bias, dense.activation)
        h, grad_out = rng.normal(size=(3, 40)), rng.normal(size=(3, 50))
        (got, cache), (want, ref_cache) = (nw.forward_layers([layer], h),
                                           nw.forward_layers([effective], h))
        assert_close(got, want)
        got_in = nw.backward_layers([layer], cache, grad_out)[1]
        assert_close(got_in, nw.backward_layers([effective], ref_cache, grad_out)[1])
        layer.flush()
        assert_close(dense.weights, w)
        # the next step first forms the velocity the flushed window ended with
        layer.defer(*self.factors(rng, 3), 0.1)
        assert_close(layer.velocity, v)

    def test_flush_at_momentum_0_is_the_windows_product(self):
        # 2000 output rows of 300 inputs span three FOLD_BLOCK row blocks of
        # the window's product; at momentum 0 every b_ts is 1, so the flush
        # subtracts the plain product's blocks from W, bit for bit
        rng = np.random.default_rng(20)
        dense = nw.DenseLayer.create(300, 2000, "sigmoid", rng)
        assert len(range(0, 2000, nw.FOLD_BLOCK // 300)) == 3
        layer = nw.DeferredLayer(dense, window=12)
        for _ in range(3):
            layer.defer(rng.normal(size=(4, 2000)), rng.normal(size=(4, 300)), 0.1)
        want = dense.weights.copy()
        for rows, block in nw._product_blocks(layer.pending[:12], layer.pending_in[:12]):
            want[rows] -= block
        layer.flush()
        assert layer.rows == 0 and layer.velocity is None
        assert dense.weights.tobytes() == want.tobytes()

    @pytest.mark.parametrize("momentum", [0.0, MOMENTUM])
    def test_window_reads_only_rows_it_wrote(self, momentum):
        # the window starts as whatever memory np.empty gives; filled with
        # NaN, any read of a row not yet written would reach the outputs.
        # Steps of 3 rows fill 3 * K of its rows and flush; the last 2 are
        # never written. Step K + 1 forms the velocity at a momentum, and
        # step K + 2 reads through it
        rng = np.random.default_rng(21)
        dense = nw.DenseLayer.create(40, 50, "sigmoid", rng)
        layers = [nw.DeferredLayer(nw.DenseLayer(dense.weights.copy(), dense.bias.copy(),
                                                 dense.activation),
                                   window=3 * K + 2, momentum=momentum) for _ in range(2)]
        for buf in (layers[1].pending, layers[1].pending_in, layers[1]._scaled_in):
            buf.fill(np.nan)
        opts = [nw.SgdMomentum([layer], lr=0.1, momentum=momentum) for layer in layers]
        for _ in range(K + 2):
            h, grad_out = rng.normal(size=(3, 40)), rng.normal(size=(3, 50))
            seen = []
            for layer, opt in zip(layers, opts):
                out, cache = nw.forward_layers([layer], h)
                grads, g_in = nw.backward_layers([layer], cache, grad_out)
                opt.step(grads)
                seen.append([out, g_in, layer.weights, layer.bias])
            assert [a.tobytes() for a in seen[0]] == [a.tobytes() for a in seen[1]]
        assert layers[1].rows == 6
        for layer in layers:
            layer.flush()
        assert layers[0].weights.tobytes() == layers[1].weights.tobytes()
        if momentum:
            assert layers[0].velocity.tobytes() == layers[1].velocity.tobytes()

    def test_rejects_mismatched_momentum_and_overflow(self):
        rng = np.random.default_rng(16)
        layer = nw.DeferredLayer(nw.DenseLayer.create(40, 50, "sigmoid", rng), window=6)
        with pytest.raises(ValidationError, match="made at momentum 0.0 cannot train "
                                                  "at momentum 0.9"):
            nw.SgdMomentum([layer], lr=0.1, momentum=0.9).step(
                [(self.factors(rng, 1), np.zeros(50))])
        layer.defer(*self.factors(rng, 5), 0.1)
        with pytest.raises(ValidationError, match="overflows the pending window of 6"):
            layer.defer(*self.factors(rng, 2), 0.1)

    # the first encoder layer trains in row space except in the VAE without a
    # trunk; the 40 -> 50 output layer is deferred in all three
    @pytest.mark.parametrize("build, dims, row_space",
                             [(ae.build_ae, [50, 40, 3], True),
                              (ae.build_vae, [50, 40, 3], True),
                              (ae.build_vae, [50, 40], False)],
                             ids=["ae", "vae", "trunkless-vae"])
    def test_context_puts_the_flushed_dense_layer_back_on_error(self, build, dims,
                                                                row_space):
        rng = np.random.default_rng(17)
        params = build(dims, rng)
        layers = params.all_layers()
        first, dense = params.encoder_layers[0], params.decoder_layers[-1]
        x = rng.uniform(size=(10, 50))
        dz, h = self.factors(rng, 1)
        want = dense.weights - 0.1 * dz.T @ h
        want_first = first.weights + (np.outer(np.ones(40), x[1]) if row_space else 0.0)
        with pytest.raises(RuntimeError):
            with nw.training_layers(params, x, self.CFG):
                layer, held = params.decoder_layers[-1], params.encoder_layers[0]
                assert type(layer) is nw.DeferredLayer and len(layer.pending) == 10
                layer.defer(dz, h, 0.1)
                assert type(held) is (nw.RowSpaceLayer if row_space else nw.DenseLayer)
                if row_space:
                    held.coef[1] = 1.0
                raise RuntimeError("stop")
        assert all(a is b for a, b in zip(params.all_layers(), layers, strict=True))
        assert all(type(layer) is nw.DenseLayer for layer in layers)
        assert_close(dense.weights, want)
        np.testing.assert_allclose(first.weights, want_first, rtol=1e-15)


class TestMemory:
    # W is 9.6 MB, far wider than one FOLD_BLOCK; the window is 3.9 MB
    N_IN, N_OUT, BS = 400, 3000, 8

    def test_window_and_flush_hold_no_weight_sized_array(self):
        rng = np.random.default_rng(14)
        dense = nw.DenseLayer.create(self.N_IN, self.N_OUT, "sigmoid", rng)
        assert nw.DeferredLayer.pays(dense, self.BS)
        w_bytes = 8 * self.N_IN * self.N_OUT
        window = K * self.BS
        layer = nw.DeferredLayer(dense, window)
        assert layer.pending.base is layer.pending_in.base is layer._scaled_in.base
        assert (layer.pending.nbytes + layer.pending_in.nbytes
                == 8 * window * (self.N_IN + self.N_OUT) < w_bytes)
        opt = nw.SgdMomentum([layer], lr=0.1)
        grads = [((rng.normal(size=(self.BS, self.N_OUT)), rng.normal(size=(self.BS, self.N_IN))),
                  rng.normal(size=self.N_OUT)) for _ in range(K)]
        want = dense.weights - 0.1 * sum(dz.T @ h for (dz, h), _ in grads)
        for g in grads[:-1]:
            opt.step([g])
        assert layer.rows == (K - 1) * self.BS
        # the K-th step fills the window and flushes it, in FOLD_BLOCK blocks
        peak = traced_peak(lambda: opt.step([grads[-1]]))
        assert layer.rows == 0
        assert peak <= 8 * nw.FOLD_BLOCK + 4096 < w_bytes
        assert_close(dense.weights, want)

    def test_momentum_flush_and_velocity_forming_hold_no_weight_sized_array(self):
        rng = np.random.default_rng(19)
        dense = nw.DenseLayer.create(self.N_IN, self.N_OUT, "sigmoid", rng)
        w_bytes = 8 * self.N_IN * self.N_OUT
        layer = nw.DeferredLayer(dense, K * self.BS, MOMENTUM)
        opt = nw.SgdMomentum([layer], lr=0.1, momentum=MOMENTUM)
        # the layer keeps its own velocity; the optimizer keeps only the bias's
        assert [v.shape for v in opt.velocity] == [(self.N_OUT,)]
        w, v = dense.weights.copy(), np.zeros_like(dense.weights)
        peaks = []
        for _ in range(2 * K + 1):
            dz, h = rng.normal(size=(self.BS, self.N_OUT)), rng.normal(size=(self.BS, self.N_IN))
            grads = [((dz, h), rng.normal(size=self.N_OUT))]
            peaks.append(traced_peak(lambda: opt.step(grads)))
            v = MOMENTUM * v - 0.1 * dz.T @ h
            w += v
        # step K flushes with no velocity yet, step K + 1 allocates it (and
        # nothing more), step 2K flushes through it and step 2K + 1 brings
        # it up to date, each in FOLD_BLOCK row blocks
        assert peaks[K] <= w_bytes + 8 * nw.FOLD_BLOCK + 4096
        bound = 8 * nw.FOLD_BLOCK + 4096
        assert max(peaks[K - 1], peaks[2 * K - 1], peaks[2 * K]) <= bound < w_bytes
        assert layer.rows == self.BS
        layer.flush()
        assert_close(dense.weights, w)

    @pytest.mark.parametrize("train", ["pretrain", "derc"])
    def test_one_window_trainer_never_forms_the_velocity(self, train):
        # one epoch of exactly K steps ends on the window's own flush
        x = cohort(K * BATCH)
        seen, flushed = [], []
        with spied(seen, flushed):
            if train == "pretrain":
                cfg = ae.PretrainConfig(epochs=1, lr=0.05, momentum=MOMENTUM,
                                        batch_size=BATCH, seed=2)
                ae.pretrain_ae(x, ae.AeSpec(list(DIMS)), cfg)
            else:
                params = ae.build_ae(list(DIMS), np.random.default_rng(3))
                # the untrained 3-unit ReLU latent is all zero on this cohort,
                # which k-means rejects; biases off zero bring it to life
                jitter_biases(params.encoder_layers, np.random.default_rng(3))
                centroids = kmeans.kmeans_fit(ae.encode(params, x), k=2, restarts=3).centroids
                cfg = cl.DercConfig(epochs=1, lr=0.05, momentum=MOMENTUM, batch_size=BATCH,
                                    target_interval=4, k=2, seed=5)
                cl.train_derc(x, params, centroids, cfg)
        layer = seen[0][1]
        assert flushed[0] == K * BATCH and not any(flushed[1:])
        assert layer.velocity is None and layer.unformed == (K * BATCH, K)
