import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate, stats

from derc import data, prescreen
from derc.errors import ValidationError
from derc.prescreen import (
    PrescreenConfig,
    class_test,
    correlation_prune,
    discriminative_filter,
    normality_gate,
    welch_ttest,
    wilcoxon_rank_sum,
)


def pearson_correlation_test(x, y):
    """Oracle for the pruner: Pearson rho and two-sided p from
    t = rho*sqrt((n-2)/(1-rho^2)), one pair at a time.

    Constant vectors yield (0, 1) by convention.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValidationError("vectors must have equal length")
    n = len(x)
    if n < 3:
        raise ValidationError("need at least 3 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.sum(xc * xc))
    sy = np.sqrt(np.sum(yc * yc))
    if sx == 0.0 or sy == 0.0:
        return 0.0, 1.0
    rho = float(np.clip(np.dot(xc, yc) / (sx * sy), -1.0, 1.0))
    if abs(rho) >= 1.0 - 1e-12:  # collinear up to rounding
        return float(np.sign(rho)), 0.0
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * stats.t.sf(abs(t), df=n - 2)
    return rho, float(min(p, 1.0))


# --- the scipy.stats reference for the class tests ---------------------------


def reference_normality_gate(x, alpha):
    x = np.asarray(x, dtype=float)
    if len(x) < prescreen.MIN_NORMALITY_N or np.ptp(x) == 0.0:
        return False
    return bool(stats.normaltest(x).pvalue > alpha)


def reference_welch_ttest(a, b):
    return float(stats.ttest_ind(a, b, equal_var=False).pvalue)


def reference_wilcoxon_rank_sum(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled = np.concatenate([a, b])
    if np.ptp(pooled) == 0.0:
        return 1.0
    ranks = stats.rankdata(pooled)
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    w = ranks[:n_a].sum()
    if n_a <= prescreen.EXACT_WILCOXON_MAX and n_b <= prescreen.EXACT_WILCOXON_MAX:
        return prescreen._exact_rank_sum_pvalue(2.0 * ranks, n_a, 2.0 * w)
    mean = n_a * (n + 1) / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = np.sum(tie_counts**3 - tie_counts) / (n * (n - 1))
    var = n_a * n_b / 12.0 * (n + 1 - tie_term)
    if var == 0.0:
        return 1.0
    z = (w - mean) / np.sqrt(var)
    return float(min(2.0 * stats.norm.sf(abs(z)), 1.0))


def reference_class_test(x, labels, cfg):
    """class_test as computed through the scipy.stats front ends."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    a = x[labels == 0]
    b = x[labels == 1]
    if np.ptp(x) == 0.0:
        return 1.0
    if (reference_normality_gate(a, cfg.normality_alpha)
            and reference_normality_gate(b, cfg.normality_alpha)):
        return reference_welch_ttest(a, b)
    return reference_wilcoxon_rank_sum(a, b)


def _imputed_mean_ties(v, rng):
    # as data._impute_feature_means leaves them: missing cells take the mean
    v = v.copy()
    missing = rng.choice(len(v), size=max(2, len(v) // 4), replace=False)
    v[missing] = np.delete(v, missing).mean()
    return v


def _ulp_spread(v, rng):
    # a few ulps around 0.5: m2 just above (eps * mean)^2, the cut under
    # which a sample counts as constant
    return 0.5 + np.spacing(0.5) * rng.integers(0, 4, size=len(v))


def _ulp_outliers(v, rng):
    # one ulp up in every 7th cell: m2 just below that cut
    out = np.full(len(v), 0.5)
    out[::7] += np.spacing(0.5)
    return out


def _symmetric(v, rng):
    # +-pairs: for an even length the sample skewness is exactly 0
    out = np.empty(len(v))
    out[0::2] = v[0::2]
    out[1::2] = -v[0::2][:len(v) // 2]
    return out


def _subnormal_variance(v, rng):
    # mean exactly 0 and m2 subnormal: m2**1.5 underflows to 0
    out = np.zeros(len(v))
    out[:2] = [1e-160, -1e-160]
    return out


SAMPLE_KINDS = {
    "normal": lambda v, rng: 0.5 + 0.1 * v,
    "skewed": lambda v, rng: np.exp(v) / 10.0,
    "symmetric": _symmetric,
    "ties": lambda v, rng: np.round(0.5 + 0.1 * v, 1),
    "imputed-mean-ties": _imputed_mean_ties,
    "near-constant-above-cut": _ulp_spread,
    "near-constant-below-cut": _ulp_outliers,
    # zero variance: Welch's df and t must stay defined without warnings
    "constant": lambda v, rng: np.full(len(v), 0.3),
    "zero-mean-subnormal-variance": _subnormal_variance,
}
CLASS_SIZES = [(5, 5), (8, 8), (20, 20), (21, 30), (114, 23)]


def make_dataset(columns, labels=None):
    values = np.column_stack(columns)
    return data.Dataset(
        values=np.clip(values, 0, 1),
        feature_ids=[f"f{i}" for i in range(values.shape[1])],
        sample_ids=[f"s{i}" for i in range(values.shape[0])],
        labels=None if labels is None else np.asarray(labels),
    )


def full_width_prune(ds, cfg):
    """correlation_prune with each block correlated against every column,
    the loop it replaced; the oracle for its upper-triangle blocks."""
    xc = ds.values - ds.values.mean(axis=0)
    norms = np.sqrt(np.sum(xc * xc, axis=0))
    xs = np.zeros_like(xc)
    xs[:, norms > 0] = xc[:, norms > 0] / norms[norms > 0]
    n, d = xs.shape
    removed = np.zeros(d, dtype=bool)
    for start in range(0, d, prescreen.PRUNE_BLOCK):
        stop = min(start + prescreen.PRUNE_BLOCK, d)
        block = xs[:, start:stop].T @ xs
        for i in range(start, stop):
            if removed[i]:
                continue
            row = block[i - start]
            j = np.nonzero(np.abs(row[i + 1:]) >= cfg.rho_threshold)[0] + i + 1
            j = j[~removed[j]]
            if len(j):
                removed[j[prescreen._pvalue_from_rho(row[j], n) <= cfg.alpha]] = True
    return np.nonzero(~removed)[0], np.nonzero(removed)[0]


class TestPearson:
    def test_self_correlation(self):
        rho, p = pearson_correlation_test([1, 2, 3, 4], [1, 2, 3, 4])
        assert rho == 1.0 and p == 0.0

    def test_anticorrelation(self):
        rho, _ = pearson_correlation_test([1, 2, 3, 4], [4, 3, 2, 1])
        assert rho == -1.0

    def test_hand_computed_case(self):
        # rho by hand: centered products sum 8, sqrt(10*10) = 10 -> 0.8
        rho, p = pearson_correlation_test([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
        assert rho == pytest.approx(0.8)
        # independent oracle for p: quadrature of the t density, df = 3
        t = 0.8 * np.sqrt(3 / (1 - 0.64))
        tail, _ = integrate.quad(lambda u: stats.t.pdf(u, df=3), t, np.inf)
        assert p == pytest.approx(2 * tail, rel=1e-6)

    def test_constant_vector_convention(self):
        rho, p = pearson_correlation_test([1, 1, 1, 1], [1, 2, 3, 4])
        assert (rho, p) == (0.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson_correlation_test([1, 2, 3], [1, 2])


class TestCorrelationPrune:
    def test_duplicate_columns(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=20)
        kept, removed = correlation_prune(make_dataset([a, a]), PrescreenConfig())
        assert kept.tolist() == [0] and removed.tolist() == [1]

    def test_orthogonal_noise_untouched(self):
        rng = np.random.default_rng(1)
        cols = [rng.uniform(size=40) for _ in range(6)]
        kept, removed = correlation_prune(make_dataset(cols), PrescreenConfig())
        assert len(removed) == 0 and len(kept) == 6

    def test_aba_pattern(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=25)
        b = rng.uniform(size=25)
        kept, removed = correlation_prune(make_dataset([a, b, a]), PrescreenConfig())
        assert kept.tolist() == [0, 1] and removed.tolist() == [2]

    def test_matches_bruteforce_greedy(self):
        # oracle: same greedy using the scalar pearson test pair by pair
        rng = np.random.default_rng(3)
        base = rng.uniform(size=(30, 4))
        mix = base @ rng.uniform(size=(4, 12)) + 0.05 * rng.normal(size=(30, 12))
        mix = (mix - mix.min()) / (mix.max() - mix.min())
        ds = make_dataset(list(mix.T))
        cfg = PrescreenConfig()

        d = ds.n_features
        removed = set()
        for i in range(d):
            if i in removed:
                continue
            for j in range(i + 1, d):
                if j in removed:
                    continue
                rho, p = pearson_correlation_test(ds.values[:, i], ds.values[:, j])
                if abs(rho) >= cfg.rho_threshold and p <= cfg.alpha:
                    removed.add(j)
        kept, rem = correlation_prune(ds, cfg)
        assert set(rem.tolist()) == removed

    def test_matches_full_width_blocks(self):
        # d is not a multiple of PRUNE_BLOCK, and near-duplicate pairs
        # (chains too) straddle the block boundaries at 256 and 512
        rng = np.random.default_rng(5)
        n, d = 24, 600
        x = rng.uniform(size=(n, d))
        for i, j in [(250, 260), (255, 256), (100, 300), (300, 520),
                     (511, 512), (0, 599), (400, 257)]:
            x[:, j] = x[:, i] + 0.01 * rng.normal(size=n)
        ds = make_dataset(list(x.T))
        cfg = PrescreenConfig()
        kept, removed = correlation_prune(ds, cfg)
        want_kept, want_removed = full_width_prune(ds, cfg)
        assert len(removed) >= 7
        np.testing.assert_array_equal(kept, want_kept)
        np.testing.assert_array_equal(removed, want_removed)

    def test_permutation_consistency(self):
        # shuffling columns changes which duplicate survives but not the count
        rng = np.random.default_rng(4)
        a, b, c = (rng.uniform(size=30) for _ in range(3))
        ds1 = make_dataset([a, a, b, c])
        ds2 = make_dataset([b, a, c, a])
        cfg = PrescreenConfig()
        assert len(correlation_prune(ds1, cfg)[0]) == len(correlation_prune(ds2, cfg)[0])


class TestNormalityGate:
    def test_normal_samples_pass(self):
        hits = sum(
            normality_gate(np.random.default_rng(s).normal(size=500), 0.05)
            for s in range(100)
        )
        assert hits >= 95

    def test_bernoulli_fails(self):
        x = np.random.default_rng(0).integers(0, 2, size=500).astype(float)
        assert normality_gate(x, 0.05) is False
        # oracle: the omnibus statistic is astronomically significant
        assert stats.normaltest(x).pvalue < 1e-30

    def test_short_sample_rule(self):
        assert normality_gate([1.0, 2.0, 0.5, 1.5, 1.2], 0.05) is False


class TestClassTest:
    cfg = PrescreenConfig()

    def test_identical_multisets(self):
        x = np.array([1, 2, 3, 1, 2, 3], dtype=float)
        y = np.array([0, 0, 0, 1, 1, 1])
        assert class_test(x, y, self.cfg) == 1.0

    def test_exact_wilcoxon_3v3(self):
        p = wilcoxon_rank_sum([1, 2, 3], [10, 11, 12])
        assert p == pytest.approx(0.1)

    def test_exact_wilcoxon_matches_enumeration(self):
        # oracle: enumerate all C(6,3) = 20 rank splits
        a = np.array([0.11, 0.35, 0.52])
        b = np.array([0.6, 0.72, 0.9])
        pooled = np.concatenate([a, b])
        ranks = stats.rankdata(pooled)
        w_obs = ranks[:3].sum()
        mean = 3 * 7 / 2.0
        count = sum(
            1
            for idx in combinations(range(6), 3)
            if abs(ranks[list(idx)].sum() - mean) >= abs(w_obs - mean) - 1e-12
        )
        x = np.concatenate([a, b])
        y = np.array([0, 0, 0, 1, 1, 1])
        assert class_test(x, y, self.cfg) == pytest.approx(count / 20)

    def test_large_sample_tie_correction(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, size=40).astype(float)
        b = rng.integers(2, 7, size=40).astype(float)
        p = wilcoxon_rank_sum(a, b)
        ref = stats.ranksums(a, b).pvalue
        # scipy's ranksums has no tie correction; ours shifts p slightly down
        assert 0 < p <= ref + 1e-12

    def test_welch_strong_separation(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(0, 1, 50), rng.normal(3, 1, 50)])
        y = np.repeat([0, 1], 50)
        assert class_test(x, y, self.cfg) < 1e-10

    def test_empty_class_error(self):
        with pytest.raises(ValidationError):
            class_test(np.ones(4), np.zeros(4, dtype=int), self.cfg)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=30)
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        assert class_test(x, y, self.cfg) == pytest.approx(
            class_test(x + 5.0, y, self.cfg))

    def test_monotone_invariance_on_wilcoxon_path(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 2, size=30).astype(float)  # forces non-normal path
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        assert class_test(x, y, self.cfg) == pytest.approx(
            class_test(np.exp(3 * x), y, self.cfg))


class TestScipyOracle:
    """The direct statistics reproduce the scipy.stats p-values."""

    cfg = PrescreenConfig()

    @staticmethod
    def _samples(n_a, n_b, kind_a, kind_b, seed):
        rng = np.random.default_rng(seed)
        a = SAMPLE_KINDS[kind_a](rng.normal(size=n_a), rng)
        b = SAMPLE_KINDS[kind_b](rng.normal(0.5, 1.5, size=n_b), rng)
        return a, b

    def _check(self, a, b):
        x = np.concatenate([a, b])
        labels = np.repeat([0, 1], [len(a), len(b)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on near-constant input
            ref = (reference_class_test(x, labels, self.cfg),
                   reference_welch_ttest(a, b),
                   reference_wilcoxon_rank_sum(a, b),
                   reference_normality_gate(a, self.cfg.normality_alpha),
                   reference_normality_gate(b, self.cfg.normality_alpha))
            normal_p = [stats.normaltest(s).pvalue if reference_normality_gate(s, 0.0)
                        else np.nan for s in (a, b)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (class_test(x, labels, self.cfg),
                   welch_ttest(a, b),
                   wilcoxon_rank_sum(a, b),
                   normality_gate(a, self.cfg.normality_alpha),
                   normality_gate(b, self.cfg.normality_alpha))
            # the gate's own p-value lies within 1e-12 of normaltest's
            for s, p in zip((a, b), normal_p):
                if p > 0.0:
                    assert normality_gate(s, p * (1 - 1e-12))
                    assert not normality_gate(s, p * (1 + 1e-12))
        np.testing.assert_allclose(got[:3], ref[:3], rtol=1e-12, atol=0)
        assert got[3:] == ref[3:]

    @pytest.mark.parametrize("n_a,n_b", CLASS_SIZES)
    @pytest.mark.parametrize("kind", SAMPLE_KINDS)
    def test_grid(self, n_a, n_b, kind):
        for seed in range(3):
            self._check(*self._samples(n_a, n_b, kind, kind, seed))
            self._check(*self._samples(n_a, n_b, "normal", kind, seed))

    def test_both_paths_covered(self):
        # the grid reaches the t-test and both rank-sum paths through class_test
        cases = [self._samples(114, 23, "normal", "normal", 0),
                 self._samples(20, 20, "skewed", "skewed", 0),
                 self._samples(21, 30, "skewed", "skewed", 0)]
        gates = [normality_gate(a, 0.05) and normality_gate(b, 0.05) for a, b in cases]
        assert gates == [True, False, False]

    def test_pruning_pvalues(self):
        rng = np.random.default_rng(0)
        for n in (5, 40, 137):
            for _ in range(20):
                x = rng.uniform(size=n)
                y = x + rng.normal(0, rng.uniform(0.01, 1.0), size=n)
                rho, p = pearson_correlation_test(x, y)
                np.testing.assert_allclose(
                    prescreen._pvalue_from_rho(np.array([rho]), n), [p],
                    rtol=1e-12, atol=0)
        assert prescreen._pvalue_from_rho(np.array([1.0, -1.0]), 10).tolist() == [0.0, 0.0]


class TestDiscriminativeFilter:
    def test_constant_feature_removed(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], 10)
        ds = make_dataset([np.full(20, 0.5), rng.uniform(size=20)], labels)
        report = discriminative_filter(ds, PrescreenConfig())
        assert "f0" in report.removed_by_class_test
        assert report.per_feature_pvalues["f0"] == 1.0

    def test_label_tracking_feature_kept(self):
        rng = np.random.default_rng(1)
        labels = np.repeat([0, 1], 20)
        strong = np.clip(labels * 0.5 + 0.25 + rng.normal(0, 0.01, 40), 0, 1)
        ds = make_dataset([strong, rng.uniform(size=40)], labels)
        report = discriminative_filter(ds, PrescreenConfig())
        assert "f0" in report.kept_feature_ids
        assert report.per_feature_pvalues["f0"] < 1e-4

    def test_partition_and_order(self):
        ds = data.generate_synthetic(
            data.SynthSpec(n_samples=50, n_features=30, n_informative=8, seed=2))
        report = discriminative_filter(ds, PrescreenConfig())
        all_ids = (set(report.kept_feature_ids)
                   | set(report.removed_by_correlation)
                   | set(report.removed_by_class_test))
        assert all_ids == set(ds.feature_ids)
        total = (len(report.kept_feature_ids) + len(report.removed_by_correlation)
                 + len(report.removed_by_class_test))
        assert total == ds.n_features
        order = {fid: i for i, fid in enumerate(ds.feature_ids)}
        kept_pos = [order[f] for f in report.kept_feature_ids]
        assert kept_pos == sorted(kept_pos)

    def test_alpha_extremes(self):
        ds = data.generate_synthetic(
            data.SynthSpec(n_samples=40, n_features=20, n_informative=5, seed=3))
        tiny = discriminative_filter(ds, PrescreenConfig(alpha=1e-12))
        assert len(tiny.kept_feature_ids) <= 5
        loose = discriminative_filter(ds, PrescreenConfig(alpha=0.999999))
        assert (len(loose.kept_feature_ids)
                == ds.n_features - len(loose.removed_by_correlation))

    def test_pvalues_in_unit_interval(self):
        ds = data.generate_synthetic(
            data.SynthSpec(n_samples=45, n_features=25, n_informative=6, seed=4))
        report = discriminative_filter(ds, PrescreenConfig())
        ps = np.array(list(report.per_feature_pvalues.values()))
        assert np.all((ps >= 0) & (ps <= 1))

    def test_requires_labels(self):
        ds = data.generate_synthetic(data.SynthSpec(n_samples=20, n_features=10,
                                                    n_informative=2, seed=5))
        ds.labels = None
        with pytest.raises(ValidationError):
            discriminative_filter(ds, PrescreenConfig())
