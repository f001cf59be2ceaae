import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy import integrate, special, stats

from conftest import traced_peak, write_series_matrix
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


# --- the class tests before the per-call rewrite ------------------------------
# Kept verbatim as the bitwise reference for the direct-ufunc path and the
# memoised exact null distribution: every p-value and gate decision must
# equal these exactly.


def current_skewtest_z(b2, n):
    y = b2 * np.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n**2 + 27*n - 70) * (n+1) * (n+3) /
             ((n-2.0) * (n+5) * (n+7) * (n+9)))
    w2 = -1 + np.sqrt(2 * (beta2 - 1))
    delta = 1 / np.sqrt(0.5 * np.log(w2))
    alpha = np.sqrt(2.0 / (w2 - 1))
    if y == 0:
        y = 1.0
    return delta * np.log(y / alpha + np.sqrt((y / alpha)**2 + 1))


def current_kurtosistest_z(b2, n):
    e = 3.0*(n-1) / (n+1)
    varb2 = 24.0*n*(n-2)*(n-3) / ((n+1)*(n+1.)*(n+3)*(n+5))
    x = (b2-e) / varb2**0.5
    sqrtbeta1 = 6.0*(n*n-5*n+2)/((n+7)*(n+9)) * ((6.0*(n+3)*(n+5))
                                                 / (n*(n-2)*(n-3)))**0.5
    a = 6.0 + 8.0/sqrtbeta1 * (2.0/sqrtbeta1 + (1+4.0/(sqrtbeta1**2))**0.5)
    term1 = 1 - 2/(9.0*a)
    denom = 1 + x * (2/(a-4.0))**0.5
    if denom == 0.0:
        return np.nan
    term2 = ((1-2.0/a) / abs(denom))**(1/3)
    if denom < 0:
        term2 = -term2
    return (term1 - term2) / (2/(9.0*a))**0.5


def current_normality_gate(x, alpha):
    x = np.asarray(x, dtype=float)
    if len(x) < prescreen.MIN_NORMALITY_N:
        return False
    if np.ptp(x) == 0.0:
        return False
    n = float(len(x))
    mean = x.mean()
    dev = x - mean
    dev2 = dev**2
    m2 = dev2.mean()
    if m2 <= (prescreen.EPS * mean)**2:
        return False
    m3 = (dev2 * dev).mean()
    m4 = (dev2**2).mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        z_skew = current_skewtest_z(m3 / m2**1.5, n)
        z_kurt = current_kurtosistest_z(m4 / m2**2.0, n)
    return bool(special.chdtrc(2, z_skew*z_skew + z_kurt*z_kurt) > alpha)


def current_exact_rank_sum_pvalue(ranks2, n_a, w2):
    vals = np.rint(ranks2).astype(int)
    n = len(vals)
    max_sum = int(vals.sum())
    dp = np.zeros((n_a + 1, max_sum + 1))
    dp[0, 0] = 1.0
    for v in vals:
        dp[1:, v:] = dp[1:, v:] + dp[:-1, :max_sum + 1 - v]
    dist = dp[n_a]
    total = comb(n, n_a)
    mean2 = n_a * (n + 1)
    dev = abs(w2 - mean2) - 1e-9
    sums = np.arange(max_sum + 1)
    extreme = dist[np.abs(sums - mean2) >= dev].sum()
    return float(min(extreme / total, 1.0))


def current_wilcoxon_rank_sum(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled = np.concatenate([a, b])
    if np.ptp(pooled) == 0.0:
        return 1.0
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    order = np.argsort(pooled, kind="stable")
    ordered = pooled[order]
    run_start = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    tie_counts = np.diff(np.append(run_start, n))
    ranks = np.empty(n)
    ranks[order] = np.repeat(run_start + (tie_counts + 1) / 2.0, tie_counts)
    w = ranks[:n_a].sum()
    if n_a <= prescreen.EXACT_WILCOXON_MAX and n_b <= prescreen.EXACT_WILCOXON_MAX:
        return current_exact_rank_sum_pvalue(2.0 * ranks, n_a, 2.0 * w)
    mean = n_a * (n + 1) / 2.0
    tie_term = np.sum(tie_counts**3 - tie_counts) / (n * (n - 1))
    var = n_a * n_b / 12.0 * (n + 1 - tie_term)
    if var == 0.0:
        return 1.0
    z = (w - mean) / np.sqrt(var)
    return float(min(2.0 * special.ndtr(-abs(z)), 1.0))


def current_welch_ttest(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = len(a), len(b)
    m1, m2 = a.mean(), b.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        vn1 = ((a - m1)**2).mean() * (np.float64(n1) / (n1 - 1)) / n1
        vn2 = ((b - m2)**2).mean() * (np.float64(n2) / (n2 - 1)) / n2
        df = (vn1 + vn2)**2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        if np.isnan(df):
            df = 1.0
        t = (m1 - m2) / np.sqrt(vn1 + vn2)
    return float(2 * special.stdtr(df, -abs(t)))


def current_class_test(x, labels, cfg):
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    a = x[labels == 0]
    b = x[labels == 1]
    if np.ptp(x) == 0.0:
        return 1.0
    if (current_normality_gate(a, cfg.normality_alpha)
            and current_normality_gate(b, cfg.normality_alpha)):
        return current_welch_ttest(a, b)
    return current_wilcoxon_rank_sum(a, b)


def class_test_outputs(tests, a, b, cfg):
    """(class_test, welch, wilcoxon, gate a, gate b) from one set of tests."""
    class_fn, welch_fn, wilcoxon_fn, gate_fn = tests
    x = np.concatenate([a, b])
    labels = np.repeat([0, 1], [len(a), len(b)])
    return (class_fn(x, labels, cfg), welch_fn(a, b), wilcoxon_fn(a, b),
            gate_fn(a, cfg.normality_alpha), gate_fn(b, cfg.normality_alpha))


def bits(values):
    """float64 bit patterns: NaN matches NaN, 0.0 does not match -0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


NEW_TESTS = (class_test, welch_ttest, wilcoxon_rank_sum, normality_gate)
CURRENT_TESTS = (current_class_test, current_welch_ttest, current_wilcoxon_rank_sum,
                 current_normality_gate)


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


def current_correlation_prune(data, cfg):
    """correlation_prune as it was before it standardized in place into one
    array and reused one block buffer: the oracle for its decisions."""
    cfg.validate()
    x = np.asarray(data.values, dtype=float)
    n, d = x.shape
    if n < 3:
        raise ValidationError("need at least 3 samples for correlation pruning")

    # standardized columns: constant features become zero vectors (rho = 0)
    xc = x - x.mean(axis=0)
    norms = np.sqrt(np.sum(xc * xc, axis=0))
    nonzero = norms > 0
    xs = np.zeros_like(xc)
    xs[:, nonzero] = xc[:, nonzero] / norms[nonzero]

    removed = np.zeros(d, dtype=bool)
    for start in range(0, d, prescreen.PRUNE_BLOCK):
        stop = min(start + prescreen.PRUNE_BLOCK, d)
        # (block, d - start) correlations: row i reads only columns > i
        block = xs[:, start:stop].T @ xs[:, start:]
        for i in range(start, stop):
            if removed[i]:
                continue
            row = block[i - start]
            cand = np.abs(row[i + 1 - start:]) >= cfg.rho_threshold
            if not cand.any():
                continue
            j = np.nonzero(cand)[0] + i + 1
            j = j[~removed[j]]
            if len(j) == 0:
                continue
            pvals = prescreen._pvalue_from_rho(row[j - start], n)
            removed[j[pvals <= cfg.alpha]] = True
    kept = np.nonzero(~removed)[0]
    return kept, np.nonzero(removed)[0]


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

    @pytest.mark.parametrize("rho_threshold", [0.9, 0.3])
    def test_matches_current_prune(self, tmp_path, rho_threshold):
        # a loaded matrix (F-contiguous, imputed, a constant probe) with
        # near-duplicates across the block edges; at 0.3 many rows have
        # candidates and many pairs are tested
        ds = data.load_series_matrix(write_series_matrix(tmp_path / "m.txt", 24, 600, 5))
        assert ds.values.flags.f_contiguous
        cfg = PrescreenConfig(rho_threshold=rho_threshold)
        kept, removed = correlation_prune(ds, cfg)
        want_kept, want_removed = current_correlation_prune(ds, cfg)
        assert len(removed) >= 6
        assert kept.tolist() == want_kept.tolist()
        assert removed.tolist() == want_removed.tolist()

    def test_peak_one_matrix_and_one_block(self, tmp_path):
        # the standardized copy plus one PRUNE_BLOCK x d buffer; a second
        # block alive, or the centered, squared and divided copies, break it
        ds = data.load_series_matrix(write_series_matrix(tmp_path / "m.txt", 60, 3000, 6))
        cfg = PrescreenConfig()
        correlation_prune(ds, cfg)  # the first p-value imports scipy.special
        peak = traced_peak(lambda: correlation_prune(ds, cfg))
        block_bytes = 8 * prescreen.PRUNE_BLOCK * ds.n_features
        assert peak < 1.25 * (ds.values.nbytes + block_bytes)

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

    @pytest.mark.parametrize("a, b", [([], [1.0, 2.0, 3.0]), ([0.5], [0.1, 0.2, 0.3]),
                                      ([0.1, 0.2, 0.3], [0.4])])
    def test_welch_needs_two_per_group(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="at least 2 samples"):
                welch_ttest(a, b)

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
            got = class_test_outputs(NEW_TESTS, a, b, self.cfg)
            current = class_test_outputs(CURRENT_TESTS, a, b, self.cfg)
            # the gate's own p-value lies within 1e-12 of normaltest's
            for s, p in zip((a, b), normal_p):
                if p > 0.0:
                    assert normality_gate(s, p * (1 - 1e-12))
                    assert not normality_gate(s, p * (1 + 1e-12))
        np.testing.assert_allclose(got[:3], ref[:3], rtol=1e-12, atol=0)
        assert got[3:] == ref[3:]
        assert bits(got) == bits(current)

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


class TestPerCallPath:
    """The direct-ufunc class tests and the memoised exact null distribution
    give the pre-rewrite p-values bit for bit, one class_test per survivor."""

    cfg = PrescreenConfig()

    def _check_matrix(self, values, labels):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in values.T:
                a, b = x[labels == 0], x[labels == 1]
                got = (class_test(x, labels, self.cfg),
                       *class_test_outputs(NEW_TESTS, a, b, self.cfg)[1:])
                want = (current_class_test(x, labels, self.cfg),
                        *class_test_outputs(CURRENT_TESTS, a, b, self.cfg)[1:])
                assert bits(got) == bits(want)

    def test_seeded_matrix_114_23(self):
        # the benchmark's cohort shape, every sample kind, classes interleaved
        rng = np.random.default_rng(2021)
        kinds = list(SAMPLE_KINDS)
        labels = rng.permutation(np.repeat([0, 1], [114, 23]))
        values = np.empty((137, 2000))
        for j in range(values.shape[1]):
            values[labels == 0, j] = SAMPLE_KINDS[kinds[j % len(kinds)]](
                rng.normal(size=114), rng)
            values[labels == 1, j] = SAMPLE_KINDS[kinds[j // len(kinds) % len(kinds)]](
                rng.normal(0.3, 1.2, size=23), rng)
        self._check_matrix(values, labels)

    def test_exact_path_with_planted_ties(self):
        # 20 vs 20: the exact rank-sum path; rounding to 1-3 decimals plants
        # tie runs of every length, and the unrounded features have none
        rng = np.random.default_rng(7)
        labels = rng.permutation(np.repeat([0, 1], 20))
        values = rng.beta(2.0, 5.0, size=(40, 120)) + 0.2 * labels[:, None]
        for j in range(values.shape[1]):
            if j % 4:
                values[:, j] = np.round(values[:, j], j % 4)
        self._check_matrix(values, labels)

    def test_tie_free_features_share_one_null(self):
        assert comb(2 * prescreen.EXACT_WILCOXON_MAX,
                    prescreen.EXACT_WILCOXON_MAX) < 2**53  # counts exact in float64
        rng = np.random.default_rng(3)
        prescreen._rank_sum_null.cache_clear()
        for _ in range(30):
            wilcoxon_rank_sum(rng.normal(size=20), rng.normal(size=20))
        info = prescreen._rank_sum_null.cache_info()
        assert (info.misses, info.hits) == (1, 29)

    def test_tie_pattern_gets_own_entry(self):
        prescreen._rank_sum_null.cache_clear()
        base = np.arange(40.0)
        tied_low = base.copy()
        tied_low[1] = tied_low[0]     # one tie between the two smallest values
        tied_high = base.copy()
        tied_high[39] = tied_high[38]  # the same run length, higher up
        for x in (base, tied_low, tied_low + 100.0, tied_high, base * 2.0):
            wilcoxon_rank_sum(x[::2], x[1::2])
        assert prescreen._rank_sum_null.cache_info().misses == 3
        # one sample size, two group sizes
        wilcoxon_rank_sum(base[:19], base[19:38])
        wilcoxon_rank_sum(base[:18], base[18:38])
        assert prescreen._rank_sum_null.cache_info().misses == 5

    def test_memoised_matches_fresh_dp_and_enumeration(self):
        rng = np.random.default_rng(11)
        for n_a in range(1, 6):
            for n_b in range(1, 6):
                for _ in range(4):
                    a = rng.integers(0, 4, size=n_a).astype(float)
                    b = rng.integers(1, 5, size=n_b).astype(float)
                    # brute force over the doubled midranks, all integers
                    ranks2 = np.rint(2 * stats.rankdata(np.concatenate([a, b]))).astype(int)
                    n = n_a + n_b
                    mean2 = n_a * (n + 1)
                    obs = abs(int(ranks2[:n_a].sum()) - mean2)
                    count = sum(1 for idx in combinations(range(n), n_a)
                                if abs(int(ranks2[list(idx)].sum()) - mean2) >= obs)
                    p = wilcoxon_rank_sum(a, b)
                    assert p == current_wilcoxon_rank_sum(a, b) == count / comb(n, n_a)
                    assert wilcoxon_rank_sum(a, b) == p  # from the memo

    def test_one_class_test_per_survivor(self, monkeypatch):
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 1], [25, 15])
        cols = [rng.uniform(size=40) for _ in range(12)]
        cols += [cols[0], cols[3] + 0.001 * rng.normal(size=40), np.full(40, 0.5)]
        ds = make_dataset(cols, labels)
        cfg = PrescreenConfig()
        survivors, removed = correlation_prune(ds, cfg)
        assert len(removed) == 2
        seen = []

        def counting(x, labels, cfg):
            seen.append(np.array(x))
            return class_test(x, labels, cfg)

        monkeypatch.setattr(prescreen, "class_test", counting)
        discriminative_filter(ds, cfg)
        assert len(seen) == len(survivors)
        np.testing.assert_array_equal(np.column_stack(seen), ds.values[:, survivors])

    def test_pvalues_are_python_floats(self):
        # welch, exact and approximate rank sums, and the constant shortcut
        rng = np.random.default_rng(5)
        for n_a, n_b in [(114, 23), (20, 20), (21, 30)]:
            labels = np.repeat([0, 1], [n_a, n_b])
            n = n_a + n_b
            cols = [rng.normal(0.5, 0.1, size=n), rng.beta(0.5, 4.0, size=n),
                    np.round(rng.uniform(size=n), 1), np.full(n, 0.25)]
            report = discriminative_filter(make_dataset(cols, labels), self.cfg)
            assert len(report.per_feature_pvalues) == 4
            assert all(type(p) is float for p in report.per_feature_pvalues.values())
            a, b = cols[0][:n_a], cols[0][n_a:]
            assert type(welch_ttest(a, b)) is float
            assert type(wilcoxon_rank_sum(a, b)) is float
            assert type(normality_gate(a, 0.05)) is bool
