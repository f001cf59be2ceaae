import ast
import collections
import concurrent.futures
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import finite_diff, flatten_grads, jitter_biases, traced_peak
from derc import network as nw
from derc import prescreen
from derc.autoencoder import build_ae, encode, vae_loss_and_grads
from derc.cluster import clustering_term, soft_assign, target_distribution
from derc.data import Dataset
from derc.errors import NumericError, ValidationError


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


def later_draws(rng):
    """What the trainers draw after the weights: doubles, permutations, and
    32-bit integers, which use the buffered half of a 64-bit draw first."""
    return [rng.random(3), rng.permutation(10),
            rng.integers(0, 2**31 - 1, size=5, dtype=np.int32)]


def assert_same_bits(xs, ys):
    for x, y in zip(xs, ys, strict=True):
        x, y = np.asarray(x), np.asarray(y)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


class TestInitSplit:
    """init_uniform against rng.uniform, bit for bit."""

    @staticmethod
    def both(shape, n_input, make_rng):
        """(init_uniform draw, rng.uniform draw), each with the draws around
        it; a 32-bit draw comes first, so the generator's buffered half is live."""
        out = []
        for draw in (nw.init_uniform,
                     lambda shape, n, rng: rng.uniform(-nw.init_bound(n), nw.init_bound(n),
                                                       size=shape)):
            rng = make_rng()
            first = rng.integers(0, 1000, dtype=np.int32)
            assert rng.bit_generator.state["has_uint32"] == 1
            out.append([first, draw(shape, n_input, rng), *later_draws(rng)])
        return out

    @pytest.mark.parametrize("cpus", [1, 2, 3, 7])
    def test_parts_match_serial(self, cpus, monkeypatch):
        # the draw is one rng.uniform call whatever the CPU count: no thread
        # pool is made, and small blocks change nothing
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(nw, "FOLD_BLOCK", 16)
        monkeypatch.setattr(nw, "UPDATE_BLOCK", 5)
        pools = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda *args, **kwargs: pools.append(args))
        got, serial = self.both((13, 17), 17, lambda: np.random.default_rng(11))
        assert pools == []
        assert got[1].flags.c_contiguous
        assert_same_bits(got, serial)

    @pytest.mark.parametrize("values", [2 * nw.FOLD_BLOCK, 2 * nw.FOLD_BLOCK - 1])
    def test_large_arrays(self, values):
        got, serial = self.both((values,), 300, lambda: np.random.default_rng(3))
        assert_same_bits(got, serial)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.Philox])
    def test_other_bit_generators(self, bit_generator):
        got, serial = self.both((9, 11), 11,
                                lambda: np.random.Generator(bit_generator(5)))
        assert_same_bits(got, serial)


def masked_sigmoid(z):
    """The branch form sigmoid replaced, kept as its bitwise oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_matches_masked_form_bitwise(self):
        edges = [0.0, 1e-300, 5e-324, 1e-8, 0.5, 1.0, 36.7, 37.0, 709.0, 710.0,
                 745.2, 800.0, 1e308, np.inf, np.nan]
        z = np.array(edges + [-v for v in edges])
        z = np.concatenate([z, np.random.default_rng(0).normal(0.0, 20.0, 200)])
        with np.errstate(all="ignore"):
            expected = masked_sigmoid(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nw.sigmoid(z)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        grid = z[:-200].reshape(2, -1)
        with np.errstate(all="ignore"):
            assert np.array_equal(nw.sigmoid(grid).view(np.uint64),
                                  masked_sigmoid(grid).view(np.uint64))


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 3, 4, 7, 9])
    def test_catches_at_block_and_array_ends(self, bad, at, monkeypatch):
        # blocks of 4 over 10 values: [0, 4), [4, 8), [8, 10)
        monkeypatch.setattr(nw, "UPDATE_BLOCK", 4)
        x = np.full(10, 1e308)
        x[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^stage: non-finite value in "
                                                   "trained parameter 2$"):
                nw.check_finite([np.ones(3), np.zeros((2, 2)), x.reshape(2, 5)], "stage")

    @pytest.mark.parametrize("at", [0, nw.UPDATE_BLOCK - 1, nw.UPDATE_BLOCK])
    def test_catches_at_real_block_ends(self, at):
        x = np.zeros(nw.UPDATE_BLOCK + 1)
        x[at] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="parameter 0"):
                nw.check_finite([x], "stage")

    def test_accepts_finite_and_empty(self):
        extremes = np.array([1e308, -1e308, 5e-324, -0.0, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nw.check_finite([extremes, np.empty(0), np.empty((0, 3)),
                             np.ones((3, nw.UPDATE_BLOCK // 2))], "stage")


class TestAllFinite:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finds_a_nan_or_an_inf_at_either_end(self, dtype, bad):
        x = np.full(nw.UPDATE_BLOCK + 1, np.finfo(dtype).max, dtype=dtype)
        assert nw.all_finite(x)
        for at in (0, nw.UPDATE_BLOCK - 1, nw.UPDATE_BLOCK):
            y = x.copy()
            y[at] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not nw.all_finite(y)

    def test_integer_and_empty_arrays_are_finite(self):
        big = np.iinfo(np.int64).max
        assert nw.all_finite(np.array([big, -big - 1, 0]))
        assert nw.all_finite(np.arange(7, dtype=np.uint8).reshape(7, 1))
        for empty in (np.empty(0), np.empty((0, 3)), np.empty((2, 0), dtype=np.float32)):
            assert nw.all_finite(empty)

    def test_reads_an_f_ordered_array_without_a_copy(self):
        x = np.asfortranarray(np.random.default_rng(0).uniform(size=(300, 400)))
        assert x.flags.f_contiguous and not x.flags.c_contiguous
        x[-1, -1] = np.nan  # the last value read
        result = []
        peak = traced_peak(lambda: result.append(nw.all_finite(x)))
        assert result == [False]
        assert peak <= 8 * nw.UPDATE_BLOCK + 4096 < x.nbytes


class TestProductBlocks:
    """_product_blocks: the one rule for a blocked a.T @ b's row blocks."""

    # a product of one column is a GEMV whole and in blocks, whose rows round
    # by their place in the call; from two columns on every block is a GEMM
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5, 7, 9, 33])
    @pytest.mark.parametrize("width", [2, 3, 8, 50])
    @pytest.mark.parametrize("block", [1, 6, 16, 100, nw.FOLD_BLOCK])
    def test_blocks_cover_rows_once_and_match_the_whole_product(self, n_rows, width, block):
        rng = np.random.default_rng([n_rows, width, block])
        a, b = rng.normal(size=(8, n_rows)), rng.normal(size=(8, width))
        whole = a.T @ b
        rows, scratch = [], set()
        for r, out in nw._product_blocks(a, b, block):
            rows.append((r.start, r.stop))
            scratch.add(id(out.base))
            assert out.tobytes() == whole[r].tobytes()
            # a lone row would be a GEMV, rounded unlike the whole GEMM
            assert r.stop - r.start > 1 or n_rows == 1
            widest = out.base.size
        starts, stops = zip(*rows)
        assert starts[0] == 0 and stops[-1] == n_rows and starts[1:] == stops[:-1]
        assert len(scratch) == 1
        assert widest == max(r1 - r0 for r0, r1 in rows) * width

    @pytest.mark.parametrize("n_rows", [6, 7, 8])
    def test_last_row_joins_the_block_before(self, n_rows):
        a, b = np.ones((2, n_rows)), np.ones((2, 4))
        spans = [(r.start, r.stop) for r, _ in nw._product_blocks(a, b, block=8)]
        assert spans == {6: [(0, 2), (2, 4), (4, 6)], 7: [(0, 2), (2, 4), (4, 7)],
                         8: [(0, 2), (2, 4), (4, 6), (6, 8)]}[n_rows]

    def test_given_scratch_is_used(self):
        scratch = np.empty(64)
        blocks = list(nw._product_blocks(np.ones((3, 10)), np.ones((3, 4)), 8, scratch))
        assert all(out.base is scratch for _, out in blocks)


class TestDivergence:
    """sgd_epochs stops a run whose epoch mean rises DIVERGENCE_FACTOR-fold
    over the lowest earlier one, while every loss is still finite."""

    @staticmethod
    def run(losses):
        """Epoch means of sgd_epochs over one 1-step epoch per loss."""
        w = np.zeros(2)
        it = iter(losses)
        cfg = nw.SgdConfig(epochs=len(losses), lr=0.1, momentum=0.0, batch_size=4)
        return list(nw.sgd_epochs([w], 4, cfg, np.random.default_rng(0),
                                  lambda idx: (next(it), [np.zeros(2)]), "stage"))

    def test_rise_over_lowest_earlier_mean_raises(self):
        f = nw.DIVERGENCE_FACTOR
        with pytest.raises(NumericError, match=r"^stage: epoch 3 mean loss .* exceeds "
                                               r"1e\+08 times the lowest earlier epoch "
                                               r"mean 0\.5; training diverges$"):
            # epoch 3 is measured against epoch 1's 0.5, not epoch 2's 1.0
            self.run([2.0, 0.5, 1.0, 0.5 * f * 1.5])

    def test_rise_up_to_the_factor_passes(self):
        f = nw.DIVERGENCE_FACTOR
        assert self.run([1.0, f, 0.5, 0.5 * f]) == [1.0, f, 0.5, 0.5 * f]

    def test_zero_mean_sets_no_bound(self):
        assert self.run([0.0, 1.0, 0.0]) == [0.0, 1.0, 0.0]


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
        with pytest.raises(ValidationError, match="^batch must be 2-D"):
            nw.forward_layers([layer], np.ones(4))

    @pytest.mark.parametrize("name", ["tanh", ["relu"], None], ids=["tanh", "list", "null"])
    def test_unknown_activation_rejected_when_made(self, name):
        # checked when the layer is made, so no forward pass is needed
        with pytest.raises(ValidationError, match="unknown activation"):
            nw.DenseLayer(weights=np.eye(2), bias=np.zeros(2), activation=name)

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
        np.testing.assert_allclose(flatten_grads(grads)[0], closed_dw, atol=1e-12)

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
                          flatten_grads([*eg, *dg]))
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
        dw, db = flatten_grads(grads)
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
        assert np.array_equal(flatten_grads(grads)[0], want)
        assert nw.collect_params([layer])[0] is layer.coef

    @pytest.mark.parametrize("rows", [[-1], [0, 7]], ids=["negative-row", "row-past-end"])
    def test_forward_rejects_rows_outside_x(self, rows):
        _, layer, x, _ = self.layer(n=7)
        with pytest.raises(ValidationError, match="outside the 7 training rows"):
            nw.forward_layers([layer], x[:len(rows)], np.array(rows))

    def test_w0_is_read_only(self):
        # W0 is the dense layer's own matrix, held as the layer's weights
        dense, layer, _, _ = self.layer()
        assert np.shares_memory(layer.weights, dense.weights)
        assert (layer.n_in, layer.n_out) == (dense.n_in, dense.n_out)
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 1.0

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
        params = build_ae([9, 4], rng)
        dense = params.encoder_layers[0]
        w0 = dense.weights.copy()
        with pytest.raises(RuntimeError):
            with nw.training_layers(params, x, nw.SgdConfig(epochs=1, lr=0.1, momentum=0.0)):
                layer = params.encoder_layers[0]
                assert type(layer) is nw.RowSpaceLayer
                layer.coef[1] = 1.0
                raise RuntimeError("stop")
        assert params.encoder_layers[0] is dense
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
        with pytest.raises(ValidationError, match=r"^gradient shape \(4, 3\) does not match"):
            opt.step([np.ones((4, 3))])
        with pytest.raises(ValidationError, match="^gradient list does not match"):
            opt.step([np.ones((3, 4)), np.ones(4)])

    def test_fortran_ordered_parameter_rejected(self):
        with pytest.raises(ValidationError, match="C-contiguous"):
            nw.SgdMomentum([np.zeros((3, 4), order="F")], lr=0.1)

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
            opt.step(flatten_grads([*eg, *dg]))
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
                opt.step(flatten_grads([*eg, *dg]))
            return params

        a, b = run(), run()
        for la, lb in zip(a.all_layers(), b.all_layers()):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


def gradient_arrays(grads) -> list[np.ndarray]:
    """Every array of backward_layers' ((a, b), db) entries and of dense ones."""
    return [a for g in grads
            for a in ((*g[0], g[1]) if isinstance(g, tuple) else (g,))]


class TestDtypeBoundary:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_float32_training_stays_float32(self, momentum, monkeypatch):
        # only the stages' entries convert to float64: a float32 model on
        # float32 samples, trained through the row-space first layer and the
        # deferred output layer (batch 2: 18 pending steps of 2 x (64 + 600)
        # rows are fewer cells than its 64 x 600 weights), and through one
        # clustering batch, computes every array in float32, the optimizer's
        # scratch and velocities too, and forms every product of float32
        # operands
        f32 = np.dtype(np.float32)
        operands = []
        seam = nw.matmul

        def recording_matmul(a, b, out=None):
            operands.append((a.dtype, b.dtype))
            return seam(a, b, out=out)

        monkeypatch.setattr(nw, "matmul", recording_matmul)
        rng = np.random.default_rng(0)
        params = build_ae([600, 64, 4], rng)
        for layer in params.all_layers():
            layer.weights, layer.bias = layer.weights.astype(f32), layer.bias.astype(f32)
        x = rng.uniform(size=(40, 600)).astype(f32)
        centroids = rng.uniform(size=(2, 4)).astype(f32)
        cfg = nw.SgdConfig(epochs=2, lr=0.1, momentum=momentum, batch_size=2)
        grads = []

        def batch_step(idx):
            loss, g, _ = vae_loss_and_grads(params, x[idx], None, 1.0, idx)
            grads.extend(gradient_arrays(g))
            return loss, g

        with nw.training_layers(params, x, cfg):
            deferred = params.decoder_layers[-1]
            assert isinstance(params.encoder_layers[0], nw.RowSpaceLayer)
            assert isinstance(deferred, nw.DeferredLayer)
            for _ in nw.sgd_epochs(params.all_layers(), len(x), cfg, rng, batch_step,
                                   "float32"):
                pass
            p = target_distribution(soft_assign(encode(params, x), centroids))
            idx = np.arange(2)
            _, g, _ = vae_loss_and_grads(params, x[idx], None, 0.75, idx,
                                         clustering_term(p[idx], centroids))
            grads.extend(gradient_arrays(g))
            opt = nw.SgdMomentum([*params.all_layers(), centroids], cfg.lr, momentum)
            opt.step(g)
            trained = [*nw.collect_params(opt.params), opt._scratch, *(opt.velocity or ())]
            # mid-window: the step's rows are pending, weighted by b_ts
            assert deferred.rows == 2
            windows = [deferred.pending, deferred.pending_in, deferred._scaled_in,
                       deferred._b()]
            assert (deferred.velocity is not None) == bool(momentum)
            if momentum:
                windows.append(deferred.velocity)
        dense = nw.collect_params(params.all_layers())
        assert {a.dtype for a in [*grads, *trained, *windows, *dense]} == {f32}
        assert len(operands) > 200 and set(operands) == {(f32, f32)}


LAYER_TYPES = {"DenseLayer", "RowSpaceLayer", "DeferredLayer"}


def layer_type_checks(source: str) -> list[int]:
    """Lines of the isinstance calls on a layer type outside the layer
    classes' bodies."""
    tree = ast.parse(source)
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name in LAYER_TYPES
              for node in ast.walk(cls)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and id(node) not in inside
            and LAYER_TYPES & {getattr(n, "id", getattr(n, "attr", None))
                               for n in ast.walk(node.args[1])}]


class TestLayersOwnTheirUpdate:
    def test_finds_a_layer_type_check(self):
        source = ("class DeferredLayer:\n    def f(self, p):\n"
                  "        return isinstance(p, DenseLayer)\n"
                  "def g(p):\n    return isinstance(p, (np.ndarray, nw.DeferredLayer))\n"
                  "def h(p):\n    return isinstance(p, RowSpaceLayer | DenseLayer)\n")
        assert layer_type_checks(source) == [5, 7]

    def test_no_layer_type_check_outside_the_layers(self):
        # the optimizer, the trainers and the I/O treat every layer alike
        src = Path(nw.__file__).parent
        found = {path.name: lines for path in sorted(src.glob("*.py"))
                 if (lines := layer_type_checks(path.read_text(encoding="utf-8")))}
        assert found == {}


def products_outside_the_seam(source: str) -> list[int]:
    """Lines of the `@` products and np.matmul calls outside a function
    named matmul."""
    tree = ast.parse(source)
    seam = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "matmul"
            for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in seam and (
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "matmul" and getattr(node.func.value, "id", None) in {"np", "numpy"}))


def seam_callers(monkeypatch) -> collections.Counter:
    """Count each call of nw.matmul by (layer kind, method): the outermost
    method of a layer on the call's stack, or (None, None) off any layer."""
    calls = collections.Counter()
    seam = nw.matmul

    def counting_matmul(a, b, out=None):
        caller = (None, None)
        frame = sys._getframe(1)
        while frame is not None:
            owner = frame.f_locals.get("self")
            if isinstance(owner, nw.Layer):
                caller = (type(owner).__name__, frame.f_code.co_name)
            frame = frame.f_back
        calls[caller] += 1
        return seam(a, b, out=out)

    monkeypatch.setattr(nw, "matmul", counting_matmul)
    return calls


class TestMatmulSeam:
    def test_finds_products(self):
        source = ("def matmul(a, b):\n    return np.matmul(a, b) @ a\n"
                  "def f(a, b):\n    a @= b\n    return numpy.matmul(a, b)\n"
                  "def g(a, b):\n    return np.dot(a, b) + matmul(a @ b, b)\n")
        assert products_outside_the_seam(source) == [4, 5, 7]

    @pytest.mark.parametrize("module", ["network.py", "prescreen.py"])
    def test_no_product_outside_the_seam(self, module):
        path = Path(nw.__file__).parent / module
        assert products_outside_the_seam(path.read_text(encoding="utf-8")) == []

    def test_correlation_prune_forms_its_blocks_at_the_seam(self, monkeypatch):
        # prescreen reads the seam through the network module, so one patch
        # sees its products too
        calls = seam_callers(monkeypatch)
        n, d = 10, 600
        x = np.random.default_rng(4).uniform(size=(n, d))
        cohort = Dataset(values=x, feature_ids=[f"f{j}" for j in range(d)],
                         sample_ids=[f"s{i}" for i in range(n)])
        prescreen.correlation_prune(cohort, prescreen.PrescreenConfig())
        assert calls == {(None, None): -(-d // prescreen.PRUNE_BLOCK)}

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_every_layer_kind_forms_its_products_at_the_seam(self, momentum, monkeypatch):
        # a row-space first layer, dense middle layers and a deferred output
        # layer (batch 2: 18 pending steps of 2 x (64 + 600) rows are fewer
        # cells than its 64 x 600 weights); two steps and a flush, then one
        # with rows pending and, at momentum 0.9, a formed velocity, so the
        # deferred layer reads every term of its effective weights
        rng = np.random.default_rng(3)
        params = build_ae([600, 64, 16, 4], rng)
        x = rng.uniform(size=(6, 600))
        cfg = nw.SgdConfig(epochs=1, lr=0.1, momentum=momentum, batch_size=2)
        calls = seam_callers(monkeypatch)

        def step(idx):
            _, g, _ = vae_loss_and_grads(params, x[idx], None, 1.0, idx)
            opt.step(g)

        with nw.training_layers(params, x, cfg):
            assert calls == {("RowSpaceLayer", "__init__"): 2}
            opt = nw.SgdMomentum(params.all_layers(), cfg.lr, cfg.momentum)
            step(np.array([0, 1]))
            opt.flush()
            step(np.array([2, 3]))
            assert (params.decoder_layers[-1].velocity is not None) == bool(momentum)
            calls.clear()
            step(np.array([4, 5]))
            opt.flush()
            # forward, backward and update (for the deferred layer, its
            # flush) of each kind; a row-space layer has no input gradient,
            # and the other four layers are dense
            velocity = 1 if momentum else 0
            assert calls == {
                ("RowSpaceLayer", "forward"): 1, ("RowSpaceLayer", "update"): 1,
                ("DenseLayer", "forward"): 4, ("DenseLayer", "backward"): 4,
                ("DenseLayer", "update"): 4,
                ("DeferredLayer", "forward"): 3 + velocity,
                ("DeferredLayer", "backward"): 3 + velocity,
                ("DeferredLayer", "flush"): 1,
            }
            calls.clear()
        # the row-space layer's weights are folded into the dense layer's
        assert calls == {("RowSpaceLayer", "fold_into"): 1}
