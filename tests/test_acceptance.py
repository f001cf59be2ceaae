"""Acceptance suite: one test per release criterion, one PASS line each."""

import os
import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from conftest import finite_diff, flatten_grads, jitter_biases
from derc import autoencoder as ae
from derc import cluster as cl
from derc import data, kmeans
from derc import network as nw
from derc.cli import main as cli_main
from derc.metrics import clustering_accuracy, evaluate
from derc.prescreen import PrescreenConfig, discriminative_filter, wilcoxon_rank_sum

GEO_ENV = "DERC_GSE32393"
GEO_LABELS_ENV = "DERC_GSE32393_LABELS"


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        start = time.time()
        rng = np.random.default_rng(0)
        worst = 0.0

        # dense layers + MSE on a seeded random autoencoder
        params = ae.build_ae([6, 5, 3], rng)
        jitter_biases(params.all_layers(), rng)
        x = rng.uniform(0.2, 0.8, size=(4, 6))

        def ae_loss():
            z, _ = nw.forward_layers(params.encoder_layers, x)
            r, _ = nw.forward_layers(params.decoder_layers, z)
            return nw.mse_loss(x, r)[0]

        z, ec = nw.forward_layers(params.encoder_layers, x)
        r, dc = nw.forward_layers(params.decoder_layers, z)
        _, dmse = nw.mse_loss(x, r)
        dg, dz = nw.backward_layers(params.decoder_layers, dc, dmse)
        eg, _ = nw.backward_layers(params.encoder_layers, ec, dz)
        worst = max(worst, finite_diff(ae_loss, nw.collect_params(params.all_layers()),
                                       flatten_grads([*eg, *dg])))

        # VAE KL-weighted loss with frozen sampling noise
        vparams = ae.build_vae([6, 5, 3], rng)
        jitter_biases(vparams.all_layers(), rng)
        eps = rng.standard_normal((4, 3))
        _, vgrads, _ = ae.vae_loss_and_grads(vparams, x, eps, 0.8)
        worst = max(worst, finite_diff(
            lambda: ae.vae_loss_and_grads(vparams, x, eps, 0.8)[0],
            nw.collect_params(vparams.all_layers()), flatten_grads(vgrads)))

        # clustering-layer gradients w.r.t. z and centroids
        zc = rng.normal(size=(4, 3))
        mu = rng.normal(size=(2, 3))
        p = cl.target_distribution(cl.soft_assign(zc + 0.3, mu))
        _, dzc, dmu = cl.cluster_kl_loss(p, zc, mu)
        worst = max(worst, finite_diff(
            lambda: cl.cluster_kl_loss(p, zc, mu)[0],
            [zc, mu], [dzc, dmu], eps=1e-6))

        elapsed = time.time() - start
        assert worst <= 1e-4
        assert elapsed < 10.0
        report(1, f"all analytic gradients within 1e-4 of central differences "
                  f"(worst {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion2DistributionInvariants:
    def test_q_p_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(2, 5))
            d = int(rng.integers(2, 6))
            z = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
            mu = rng.normal(size=(k, d))
            q = cl.soft_assign(z, mu)
            p = cl.target_distribution(q)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
            loss = cl.cluster_kl_loss(p, z, mu)[0]
            assert loss >= 0.0
            assert cl.cluster_kl_loss(q, z, mu)[0] <= 1e-12
            if np.max(np.abs(p - q)) > 1e-6:
                assert loss > 1e-12
        report(2, "Q/P rows sum to 1 within 1e-9 and KL(P||Q) >= 0 with "
                  "equality iff P = Q, over 1000 draws")


class TestCriterion3OracleEquivalences:
    def test_target_single_sample_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.dirichlet(np.ones(3)).reshape(1, 3)
            np.testing.assert_allclose(cl.target_distribution(q), q, atol=1e-12)

    def test_kmeans_exhaustive_optimum(self):
        z = np.array([[0.0], [0.1], [10.0], [10.1]])
        # oracle: enumerate every 2-subset split of the 4 points
        best = np.inf
        for subset in combinations(range(4), 2):
            a = z[list(subset)]
            b = z[[i for i in range(4) if i not in subset]]
            inertia = (np.sum((a - a.mean(0)) ** 2) + np.sum((b - b.mean(0)) ** 2))
            best = min(best, inertia)
        result = kmeans.kmeans_fit(z, k=2, restarts=10, seed=0)
        assert result.inertia == pytest.approx(best)
        assert result.inertia == pytest.approx(0.01)

    def test_wilcoxon_exact_vs_enumeration(self):
        a = [1.0, 2.0, 3.0]
        b = [10.0, 11.0, 12.0]
        ranks = stats.rankdata(np.concatenate([a, b]))
        w_obs = ranks[:3].sum()
        mean = 3 * 7 / 2.0
        count = sum(
            1
            for idx in combinations(range(6), 3)
            if abs(ranks[list(idx)].sum() - mean) >= abs(w_obs - mean) - 1e-12
        )
        assert wilcoxon_rank_sum(a, b) == pytest.approx(count / 20)
        assert wilcoxon_rank_sum(a, b) == pytest.approx(0.1)
        report(3, "target identity, exhaustive K-means optimum and exact "
                  "Wilcoxon enumeration all reproduced")


class TestCriterion4SyntheticEndToEnd:
    def test_pipeline_ordering(self):
        start = time.time()
        acc_raw, acc_ae, acc_derc = [], [], []
        for seed in range(5):
            ds = data.generate_synthetic(data.SynthSpec(seed=seed))
            spec = ae.AeSpec(layer_dims=[500, 128, 32, 10])
            params, _ = ae.pretrain_ae(
                ds.values, spec,
                ae.PretrainConfig(epochs=100, lr=1.0, batch_size=8, seed=seed))
            z = ae.encode(params, ds.values)
            raw_km = kmeans.kmeans_fit(ds.values, 2, restarts=20, seed=seed)
            ae_km = kmeans.kmeans_fit(z, 2, restarts=80, seed=seed)
            result = cl.train_derc(
                ds.values, params, ae_km.centroids,
                cl.DercConfig(beta=0.75, seed=seed, stop_delta=0.001))
            acc_raw.append(clustering_accuracy(ds.labels, raw_km.assignments)[0])
            acc_ae.append(clustering_accuracy(ds.labels, ae_km.assignments)[0])
            acc_derc.append(clustering_accuracy(ds.labels, result.cluster_ids)[0])
        raw_m, ae_m, derc_m = map(np.mean, (acc_raw, acc_ae, acc_derc))
        elapsed = time.time() - start
        assert derc_m >= ae_m >= raw_m
        assert derc_m >= 0.95
        assert elapsed < 300.0
        report(4, f"5-seed means raw {raw_m:.3f} <= ae+km {ae_m:.3f} <= "
                  f"derc {derc_m:.3f} (>= 0.95), {elapsed:.0f}s")


@pytest.mark.skipif(GEO_ENV not in os.environ,
                    reason=f"set {GEO_ENV} to a GSE32393 series-matrix file "
                           f"(and {GEO_LABELS_ENV} to a labels file) to run")
class TestCriterion5PaperNumbers:
    @pytest.fixture(scope="class")
    def geo(self):
        ds = data.load_series_matrix(os.environ[GEO_ENV])
        if GEO_LABELS_ENV in os.environ:
            ds.labels = data.load_labels(os.environ[GEO_LABELS_ENV], ds.n_samples)
        if ds.labels is None:
            pytest.skip("labels file required for the paper-number criteria")
        return ds

    @pytest.fixture(scope="class")
    def prescreened(self, geo):
        rep = discriminative_filter(geo, PrescreenConfig())
        return geo.subset_features(rep.kept_indices), rep

    def test_survivor_count(self, geo, prescreened):
        assert geo.n_features == 27578
        kept = len(prescreened[1].kept_feature_ids)
        assert 9645 <= kept <= 10661
        report("5a", f"prescreen kept {kept} features (within 5% of 10153)")

    @pytest.fixture(scope="class")
    def trained(self, prescreened):
        ds, _ = prescreened
        cfg = ae.PretrainConfig(epochs=300, lr=1.0, batch_size=8, seed=0)
        spec = ae.AeSpec(layer_dims=[ds.n_features, 2000, 500, 70, 10])
        ae_params, ae_hist = ae.pretrain_ae(ds.values, spec, cfg)
        vae_params, _ = ae.pretrain_vae(ds.values, spec, cfg)
        return ds, ae_params, vae_params

    def test_reconstruction_ordering(self, trained):
        ds, ae_params, vae_params = trained
        ae_loss = nw.mse_loss(ds.values, ae.vae_forward(ae_params, ds.values, None)[0])[0]
        vae_loss = ae.vae_reconstruction_loss(vae_params, ds.values, seed=0)
        assert ae_loss < vae_loss
        report("5b", f"reconstruction AE {ae_loss:.4f} < VAE {vae_loss:.4f}")

    def test_kmeans_accuracy_ordering(self, trained):
        ds, ae_params, vae_params = trained
        accs = {}
        for name, feats in (
            ("raw", ds.values),
            ("ae", ae.encode(ae_params, ds.values)),
            ("vae", ae.encode(vae_params, ds.values)),
        ):
            km = kmeans.kmeans_fit(feats, 2, restarts=80, seed=0)
            accs[name] = clustering_accuracy(ds.labels, km.assignments)[0]
        assert accs["ae"] > accs["raw"] > accs["vae"]
        assert abs(accs["ae"] - 0.9343) <= 0.03
        report("5c", f"AE+KM {accs['ae']:.4f} > raw {accs['raw']:.4f} > "
                     f"VAE+KM {accs['vae']:.4f}")

    def test_beta_sweep_peak(self, trained):
        ds, ae_params, _ = trained
        import copy

        z = ae.encode(ae_params, ds.values)
        km = kmeans.kmeans_fit(z, 2, restarts=80, seed=0)
        accs = {}
        for beta in (0.95, 0.85, 0.75, 0.65):
            params = copy.deepcopy(ae_params)
            result = cl.train_derc(ds.values, params, km.centroids,
                                   cl.DercConfig(beta=beta, seed=0))
            accs[beta] = clustering_accuracy(ds.labels, result.cluster_ids)[0]
        assert max(accs, key=accs.get) == 0.75
        assert accs[0.75] >= 0.97
        report("5d", f"beta sweep {accs} peaks at 0.75")


class TestCriterion6Determinism:
    def test_byte_identical_reports(self, tmp_path):
        from test_cli import pipeline

        report_a, pred_a = pipeline(tmp_path / "a", seed=11)
        report_b, pred_b = pipeline(tmp_path / "b", seed=11)
        assert report_a.read_bytes() == report_b.read_bytes()
        assert pred_a.read_bytes() == pred_b.read_bytes()
        report(6, "identical configs produce byte-identical reports")


class TestCriterion7MetricsArithmetic:
    def test_table_row_arithmetic(self):
        y = np.zeros(137, dtype=int)
        y[:114] = 1
        c = y.copy()
        c[5] = 0
        rep = evaluate(y, c)
        assert rep.acc == 136 / 137
        assert round(rep.acc, 4) == 0.9927
        assert rep.error_rate_percent == (1 - 136 / 137) * 100
        assert round(rep.error_rate_percent, 2) == 0.73
        assert rep.fp == 0 and rep.fn == 1
        report(7, "1 mismatch in 137 -> ACC 0.9927, error 0.73%")
