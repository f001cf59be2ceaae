import numpy as np
import pytest

from conftest import finite_diff, jitter_biases, traced_peak
from derc import network as nw
from derc.autoencoder import build_ae
from derc.errors import ValidationError


class TestInit:
    def test_bound_small_fanin(self):
        rng = np.random.default_rng(0)
        w = nw.init_uniform((50, 3), 3, rng)
        l = np.sqrt(1.0 / 3.0)
        assert nw.init_bound(3) == pytest.approx(l)
        assert np.all(np.abs(w) <= l)

    def test_bound_large_fanin(self):
        assert nw.init_bound(10153) == pytest.approx(0.0099246, abs=1e-6)

    def test_seed_determinism(self):
        a = nw.init_uniform((4, 4), 4, np.random.default_rng(7))
        b = nw.init_uniform((4, 4), 4, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestForward:
    def test_identity_linear(self):
        layer = nw.DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="linear")
        x = np.random.default_rng(0).uniform(size=(5, 3))
        out, _ = nw.forward_layers([layer], x)
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_sigmoid(self):
        layer = nw.DenseLayer(weights=np.zeros((2, 3)), bias=np.zeros(2),
                              activation="sigmoid")
        out, _ = nw.forward_layers([layer], np.ones((4, 3)))
        np.testing.assert_allclose(out, 0.5)

    def test_against_hand_rolled_arithmetic(self):
        rng = np.random.default_rng(1)
        l1 = nw.DenseLayer.create(4, 3, "relu", rng)
        l2 = nw.DenseLayer.create(3, 2, "sigmoid", rng)
        x = rng.uniform(size=(6, 4))
        out, _ = nw.forward_layers([l1, l2], x)
        # independent duplicate computation
        h = np.maximum(x @ l1.weights.T + l1.bias, 0.0)
        z2 = h @ l2.weights.T + l2.bias
        ref = 1.0 / (1.0 + np.exp(-z2))
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_shape_mismatch(self):
        layer = nw.DenseLayer.create(4, 2, "relu", np.random.default_rng(0))
        with pytest.raises(ValidationError):
            nw.forward_layers([layer], np.ones((3, 5)))

    def test_activation_ranges(self):
        rng = np.random.default_rng(2)
        relu_l = nw.DenseLayer.create(5, 4, "relu", rng)
        sig_l = nw.DenseLayer.create(5, 4, "sigmoid", rng)
        x = rng.normal(size=(10, 5)) * 10
        r, _ = nw.forward_layers([relu_l], x)
        s, _ = nw.forward_layers([sig_l], x)
        assert np.all(r >= 0)
        assert np.all((s > 0) & (s < 1))


class TestMseLoss:
    def test_zero_at_equality(self):
        x = np.random.default_rng(0).uniform(size=(3, 4))
        assert nw.mse_loss(x, x)[0] == 0.0

    def test_per_element_convention(self):
        loss, _ = nw.mse_loss(np.zeros((1, 2)), np.ones((1, 2)))
        assert loss == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(3, 4))
        r = rng.uniform(size=(3, 4))
        _, grad = nw.mse_loss(x, r)
        err = finite_diff(lambda: nw.mse_loss(x, r)[0], [r], [grad])
        assert err <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            nw.mse_loss(np.ones((2, 2)), np.ones((2, 3)))


class TestBackward:
    def test_single_linear_layer_closed_form(self):
        rng = np.random.default_rng(4)
        layer = nw.DenseLayer(weights=rng.normal(size=(3, 3)), bias=np.zeros(3),
                              activation="linear")
        x = rng.uniform(size=(5, 3))
        target = rng.uniform(size=(5, 3))
        out, cache = nw.forward_layers([layer], x)
        _, dmse = nw.mse_loss(target, out)
        grads, _ = nw.backward_layers([layer], cache, dmse)
        closed_dw = 2.0 * (x @ layer.weights.T - target).T @ x / target.size
        np.testing.assert_allclose(nw.flatten_grads(grads)[0], closed_dw, atol=1e-12)

    def test_three_layer_net_finite_differences(self):
        rng = np.random.default_rng(5)
        params = build_ae([6, 5, 3], rng)
        jitter_biases(params.all_layers(), rng)
        x = rng.uniform(0.2, 0.8, size=(4, 6))

        def loss_fn():
            z, _ = nw.forward_layers(params.encoder_layers, x)
            r, _ = nw.forward_layers(params.decoder_layers, z)
            return nw.mse_loss(x, r)[0]

        z, ec = nw.forward_layers(params.encoder_layers, x)
        r, dc = nw.forward_layers(params.decoder_layers, z)
        _, dmse = nw.mse_loss(x, r)
        dg, dz = nw.backward_layers(params.decoder_layers, dc, dmse)
        eg, _ = nw.backward_layers(params.encoder_layers, ec, dz)
        err = finite_diff(loss_fn, nw.collect_params(params.all_layers()),
                          nw.flatten_grads([*eg, *dg]))
        assert err <= 1e-4

    def test_weight_grads_are_factors(self):
        rng = np.random.default_rng(7)
        layers = [nw.DenseLayer.create(4, 3, "relu", rng)]
        x = rng.uniform(size=(5, 4))
        _, cache = nw.forward_layers(layers, x)
        ((dz, x_in), db), = nw.backward_layers(layers, cache, rng.normal(size=(5, 3)))[0]
        assert x_in is cache[0][0] and dz.shape == (5, 3)
        assert np.array_equal(db, dz.sum(axis=0))

    def test_zero_output_grad(self):
        rng = np.random.default_rng(6)
        layers = [nw.DenseLayer.create(4, 3, "relu", rng)]
        _, cache = nw.forward_layers(layers, rng.uniform(size=(2, 4)))
        grads, gin = nw.backward_layers(layers, cache, np.zeros((2, 3)))
        dw, db = nw.flatten_grads(grads)
        assert not dw.any() and not db.any() and not gin.any()


class TestRowSpaceLayer:
    def layer(self, n=7, d=30, h=5, seed=12):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, d))
        dense = nw.DenseLayer.create(d, h, "relu", rng)
        dense.bias += rng.normal(size=h)
        layer = nw.RowSpaceLayer(dense, x)
        layer.coef[...] = rng.normal(size=(n, h))
        return dense, layer, x, rng

    def test_affine_is_the_dense_layer(self):
        dense, layer, x, rng = self.layer()
        w = dense.weights + layer.coef.T @ x
        rows = np.array([4, 0, 6])
        other = rng.uniform(size=(3, x.shape[1]))
        for got, a in ((layer.affine(x[rows], rows), x[rows]),
                       (layer.affine(x, None), x),
                       (layer.affine(other, None), other)):
            np.testing.assert_allclose(got, a @ w.T + dense.bias, rtol=1e-13)

    def test_forward_caches_rows_for_backward(self):
        _, layer, x, rng = self.layer()
        rows = np.array([2, 5])
        _, cache = nw.forward_layers([layer], x[rows], rows)
        e = cache[0][0]
        assert np.array_equal(e, np.eye(len(x))[rows])
        grads, none_in = nw.backward_layers([layer], cache, rng.normal(size=(2, 5)))
        (got_e, dz), _ = grads[0]
        assert got_e is e and dz.shape == (2, 5) and none_in is None
        # e.T @ dz is the gradient whose row rows[i] is dz[i], in coef's shape
        want = np.zeros_like(layer.coef)
        want[rows] = dz
        assert np.array_equal(nw.flatten_grads(grads)[0], want)
        assert nw.collect_params([layer])[0] is layer.coef

    @pytest.mark.parametrize("rows", [[-1], [0, 7]], ids=["negative-row", "row-past-end"])
    def test_forward_rejects_rows_outside_x(self, rows):
        _, layer, x, _ = self.layer(n=7)
        with pytest.raises(ValidationError, match="outside the 7 training rows"):
            nw.forward_layers([layer], x[:len(rows)], np.array(rows))

    def test_w0_is_read_only(self):
        _, layer, _, _ = self.layer()
        with pytest.raises(ValueError):
            layer.w0[0, 0] = 1.0

    def test_fold_writes_weights_in_place_in_blocks(self):
        # W is about 9 MiB, far wider than one FOLD_BLOCK
        dense, layer, x, _ = self.layer(n=20, d=4000, h=300)
        weights = dense.weights
        want = weights + layer.coef.T @ x
        peak = traced_peak(lambda: layer.fold_into(weights))
        np.testing.assert_allclose(weights, want, rtol=1e-13)
        assert peak <= 8 * (nw.FOLD_BLOCK + x.shape[1]) + 4096

    def test_context_puts_the_dense_layer_back_on_error(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(size=(6, 9))
        layers = [nw.DenseLayer.create(9, 4, "relu", rng)]
        dense = layers[0]
        w0 = dense.weights.copy()
        with pytest.raises(RuntimeError):
            with nw.row_space_first_layer(layers, x) as layer:
                assert layers[0] is layer
                layer.coef[1] = 1.0
                raise RuntimeError("stop")
        assert layers[0] is dense
        np.testing.assert_allclose(dense.weights, w0 + np.outer(np.ones(4), x[1]),
                                   rtol=1e-15)


def reference_sgd_step(params, velocity, grads, lr, momentum):
    """The whole-array update the blocked SgdMomentum.step must reproduce."""
    for p, v, g in zip(params, velocity, grads):
        v *= momentum
        v -= lr * g
        p += v


class TestSgdMomentum:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_blocked_update_matches_reference(self, momentum):
        rng = np.random.default_rng(8)
        shapes = [(3 * nw.UPDATE_BLOCK + 17,), (7, 5), (4,)]
        params = [rng.normal(size=s) for s in shapes]
        ref_params = [p.copy() for p in params]
        ref_velocity = [np.zeros_like(p) for p in params]
        opt = nw.SgdMomentum(params, lr=0.05, momentum=momentum)
        if momentum == 0.0:
            assert opt.velocity is None
        for _ in range(4):
            grads = [rng.normal(size=s) for s in shapes]
            grads_before = [g.copy() for g in grads]
            opt.step(grads)
            reference_sgd_step(ref_params, ref_velocity, grads, 0.05, momentum)
            for g, before in zip(grads, grads_before):
                assert np.array_equal(g, before)
            for p, ref in zip(params, ref_params):
                assert np.array_equal(p, ref)
            if momentum:
                for v, ref in zip(opt.velocity, ref_velocity):
                    assert np.array_equal(v, ref)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_factored_update_matches_dense_reference(self, momentum):
        rng = np.random.default_rng(9)
        batch = 8
        # rows longer than a block; many rows per block with a ragged last
        # block; a ragged last block of five rows; a last row that would be
        # alone, joined to the block before it; then a dense bias
        shapes = [(5, nw.UPDATE_BLOCK + 17), (2000, 50), (37, 1000), (65, 1000)]
        params = [rng.normal(size=s) for s in shapes] + [rng.normal(size=50)]
        ref_params = [p.copy() for p in params]
        ref_velocity = [np.zeros_like(p) for p in params]
        opt = nw.SgdMomentum(params, lr=0.05, momentum=momentum)
        for _ in range(4):
            factors = [(rng.normal(size=(batch, n_out)), rng.normal(size=(batch, n_in)))
                       for n_out, n_in in shapes]
            bias_grad = rng.normal(size=50)
            before = [a.copy() for pair in factors for a in pair]
            opt.step([*factors, bias_grad])
            dense = [dz.T @ x_in for dz, x_in in factors]
            reference_sgd_step(ref_params, ref_velocity, [*dense, bias_grad],
                               0.05, momentum)
            for a, b in zip([a for pair in factors for a in pair], before):
                assert np.array_equal(a, b)
            for p, ref in zip(params, ref_params):
                assert np.array_equal(p, ref)
            if momentum:
                for v, ref in zip(opt.velocity, ref_velocity):
                    assert np.array_equal(v, ref)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_row_scatter_matches_dense_reference(self, momentum):
        # a RowSpaceLayer's coef gradient: one-hot rows e of distinct rows, as
        # a permutation's batches give, and dz, each product of several blocks
        rng = np.random.default_rng(10)
        n, width = 40, 3000
        assert nw.UPDATE_BLOCK // width < n
        params = [rng.normal(size=(n, width)), rng.normal(size=width)]
        ref_params = [p.copy() for p in params]
        ref_velocity = [np.zeros_like(p) for p in params]
        opt = nw.SgdMomentum(params, lr=0.05, momentum=momentum)
        for rows in ([3, 0, 39, 7], [5, 12, 1], rng.permutation(n)):
            dz = rng.normal(size=(len(rows), width))
            bias_grad = rng.normal(size=width)
            dense = np.zeros((n, width))
            np.add.at(dense, rows, dz)
            opt.step([(np.eye(n)[rows], dz), bias_grad])
            reference_sgd_step(ref_params, ref_velocity, [dense, bias_grad], 0.05, momentum)
            for p, ref in zip(params, ref_params):
                assert np.array_equal(p, ref)
            if momentum:
                for v, ref in zip(opt.velocity, ref_velocity):
                    assert np.array_equal(v, ref)

    @pytest.mark.parametrize("e, dz", [(np.eye(3)[[0, 1]], np.ones((2, 5))),
                                       (np.eye(3)[[0, 1]], np.ones((3, 4)))],
                             ids=["width", "count"])
    def test_row_scatter_mismatch(self, e, dz):
        opt = nw.SgdMomentum([np.zeros((3, 4))], lr=0.1)
        with pytest.raises(ValidationError):
            opt.step([(e, dz)])

    def test_factor_shape_mismatch(self):
        opt = nw.SgdMomentum([np.zeros((3, 4))], lr=0.1)
        with pytest.raises(ValidationError):
            opt.step([(np.ones((2, 4)), np.ones((2, 3)))])

    def test_vanilla_step(self):
        p = np.array([0.0])
        opt = nw.SgdMomentum([p], lr=0.1, momentum=0.0)
        opt.step([np.array([1.0])])
        assert p[0] == pytest.approx(-0.1)

    def test_two_momentum_steps(self):
        p = np.array([0.0])
        opt = nw.SgdMomentum([p], lr=0.1, momentum=0.9)
        opt.step([np.array([1.0])])
        assert opt.velocity[0][0] == pytest.approx(-0.1)
        opt.step([np.array([1.0])])
        assert opt.velocity[0][0] == pytest.approx(-0.19)
        assert p[0] == pytest.approx(-0.29)

    def test_zero_gradient_velocity_decays(self):
        p = np.array([0.0])
        opt = nw.SgdMomentum([p], lr=0.1, momentum=0.5)
        opt.step([np.array([1.0])])
        mags = []
        for _ in range(30):
            opt.step([np.array([0.0])])
            mags.append(abs(opt.velocity[0][0]))
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1e-9

    def test_small_step_does_not_increase_loss(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = build_ae([6, 4, 2], rng)
            x = rng.uniform(0.2, 0.8, size=(4, 6))
            opt = nw.SgdMomentum(nw.collect_params(params.all_layers()), lr=1e-4)

            def batch_loss():
                z, _ = nw.forward_layers(params.encoder_layers, x)
                r, _ = nw.forward_layers(params.decoder_layers, z)
                return nw.mse_loss(x, r)[0]

            before = batch_loss()
            z, ec = nw.forward_layers(params.encoder_layers, x)
            r, dc = nw.forward_layers(params.decoder_layers, z)
            _, dmse = nw.mse_loss(x, r)
            dg, dz = nw.backward_layers(params.decoder_layers, dc, dmse)
            eg, _ = nw.backward_layers(params.encoder_layers, ec, dz)
            opt.step(nw.flatten_grads([*eg, *dg]))
            assert batch_loss() <= before

    def test_training_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            params = build_ae([5, 3, 2], rng)
            x = rng.uniform(size=(6, 5))
            opt = nw.SgdMomentum(nw.collect_params(params.all_layers()),
                                 lr=0.05, momentum=0.9)
            for _ in range(20):
                z, ec = nw.forward_layers(params.encoder_layers, x)
                r, dc = nw.forward_layers(params.decoder_layers, z)
                _, dmse = nw.mse_loss(x, r)
                dg, dz = nw.backward_layers(params.decoder_layers, dc, dmse)
                eg, _ = nw.backward_layers(params.encoder_layers, ec, dz)
                opt.step(nw.flatten_grads([*eg, *dg]))
            return params

        a, b = run(), run()
        for la, lb in zip(a.all_layers(), b.all_layers()):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
