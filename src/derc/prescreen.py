"""Statistical feature prescreening.

Two passes: (1) drop near-duplicate features whose pairwise correlation is
both strong (|rho| >= threshold) and significant (p <= alpha); (2) keep
only features that discriminate the two classes, using Welch's t-test when
both class subsamples look normal and the Wilcoxon rank-sum test otherwise.

The test statistics are computed directly with numpy and scipy.special,
following scipy.stats operation for operation (normaltest, ttest_ind with
equal_var=False, rankdata, norm.sf, t.sf), so the p-values are those of
scipy.stats without the cost of its per-call front ends. The helpers import
scipy.special when they first compute a p-value, so importing this module
loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .data import Dataset
from .errors import ValidationError

MIN_NORMALITY_N = 8
EXACT_WILCOXON_MAX = 20
PRUNE_BLOCK = 256
EPS = np.finfo(float).eps


@dataclass
class PrescreenConfig:
    alpha: float = 0.05
    rho_threshold: float = 0.90
    normality_alpha: float = 0.05

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        if not 0.0 < self.rho_threshold <= 1.0:
            raise ValidationError("rho_threshold must be in (0, 1]")
        if not 0.0 < self.normality_alpha < 1.0:
            raise ValidationError("normality_alpha must be in (0, 1)")


@dataclass
class PrescreenReport:
    kept_feature_ids: list[str]
    removed_by_correlation: list[str]
    removed_by_class_test: list[str]
    per_feature_pvalues: dict[str, float] = field(default_factory=dict)
    kept_indices: np.ndarray | None = None


def _pvalue_from_rho(rho: np.ndarray, n: int) -> np.ndarray:
    from scipy import special

    rho = np.clip(rho, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        t = np.abs(rho) * np.sqrt((n - 2) / np.maximum(1.0 - rho * rho, 0.0))
    return 2.0 * special.stdtr(n - 2, -t)  # stdtr(df, -inf) == 0


def correlation_prune(data: Dataset, cfg: PrescreenConfig):
    """Greedy pruning of significantly near-duplicate feature pairs.

    Pairs (i, j), i < j, are scanned in index order; when a still-kept pair
    has |rho| >= threshold and p <= alpha the higher index is removed.
    Returns (kept indices, removed indices).
    """
    cfg.validate()
    x = np.asarray(data.values, dtype=float)
    n, d = x.shape
    if n < 3:
        raise ValidationError("need at least 3 samples for correlation pruning")

    # standardized columns in one array: constant features become zero
    # vectors (rho = 0)
    xs = x - x.mean(axis=0)
    norms = np.sqrt(np.sum(xs * xs, axis=0))
    nonzero = norms > 0
    np.divide(xs, norms, out=xs, where=nonzero)
    xs[:, ~nonzero] = 0.0

    # one buffer serves every block; the block shapes, and so the BLAS
    # kernels and the bits of each correlation, are those of a fresh product
    buf = np.empty(min(PRUNE_BLOCK, d) * d)
    removed = np.zeros(d, dtype=bool)
    for start in range(0, d, PRUNE_BLOCK):
        stop = min(start + PRUNE_BLOCK, d)
        # (block, d - start) correlations: row i reads only columns > i
        block = buf[:(stop - start) * (d - start)].reshape(stop - start, d - start)
        np.matmul(xs[:, start:stop].T, xs[:, start:], out=block)
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
            pvals = _pvalue_from_rho(row[j - start], n)
            removed[j[pvals <= cfg.alpha]] = True
    kept = np.nonzero(~removed)[0]
    return kept, np.nonzero(removed)[0]


# The two scores below repeat scipy.stats' expressions in scipy's order, with
# `**0.5` where scipy has it, so that they round exactly as scipy does. The
# terms that depend on n alone are computed once per sample size.


@lru_cache(maxsize=64)
def _skewtest_constants(n: float) -> tuple[float, float, float]:
    scale = np.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n**2 + 27*n - 70) * (n+1) * (n+3) /
             ((n-2.0) * (n+5) * (n+7) * (n+9)))
    w2 = -1 + np.sqrt(2 * (beta2 - 1))
    delta = 1 / np.sqrt(0.5 * np.log(w2))
    alpha = np.sqrt(2.0 / (w2 - 1))
    return scale, delta, alpha


def _skewtest_z(b2: float, n: float) -> float:
    """D'Agostino's normal score of the sample skewness b2 (scipy's skewtest)."""
    scale, delta, alpha = _skewtest_constants(n)
    y = b2 * scale
    if y == 0:
        y = 1.0
    return delta * np.log(y / alpha + np.sqrt((y / alpha)**2 + 1))


@lru_cache(maxsize=64)
def _kurtosistest_constants(n: float) -> tuple[float, ...]:
    e = 3.0*(n-1) / (n+1)
    varb2 = 24.0*n*(n-2)*(n-3) / ((n+1)*(n+1.)*(n+3)*(n+5))
    sqrtbeta1 = 6.0*(n*n-5*n+2)/((n+7)*(n+9)) * ((6.0*(n+3)*(n+5))
                                                 / (n*(n-2)*(n-3)))**0.5
    a = 6.0 + 8.0/sqrtbeta1 * (2.0/sqrtbeta1 + (1+4.0/(sqrtbeta1**2))**0.5)
    return (e, varb2**0.5, 1 - 2/(9.0*a), (2/(a-4.0))**0.5, 1-2.0/a,
            (2/(9.0*a))**0.5)


def _kurtosistest_z(b2: float, n: float) -> float:
    """Anscombe-Glynn normal score of the sample kurtosis b2 (scipy's
    kurtosistest); NaN where the transform is undefined."""
    e, sd_b2, term1, slope, base, scale = _kurtosistest_constants(n)
    x = (b2-e) / sd_b2
    denom = 1 + x * slope
    if denom == 0.0:
        return np.nan
    term2 = (base / abs(denom))**(1/3)
    if denom < 0:
        term2 = -term2
    return (term1 - term2) / scale


# The class tests below run once per feature on short samples, where numpy's
# Python-level wrappers (ndarray.mean, np.ptp, np.diff) cost as much as the
# arithmetic; they call ufuncs directly and square in place.


def _mean(x: np.ndarray) -> np.float64:
    """x.mean() without its wrapper: the same pairwise sum and single division."""
    return np.add.reduce(x) / len(x)


def normality_gate(x, alpha: float) -> bool:
    """D'Agostino-Pearson omnibus normality check (skewness + kurtosis, chi2 df=2).

    Returns True iff the sample is long enough (>= 8) and the test fails to
    reject normality at alpha. Skewness and kurtosis come from the biased
    central moments; a sample constant up to rounding is not normal.
    """
    from scipy import special

    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < MIN_NORMALITY_N or x.max() == x.min():
        return False
    mean = _mean(x)
    dev = x - mean
    dev2 = dev * dev
    m2 = _mean(dev2)
    if m2 <= (EPS * mean)**2:
        return False
    m3 = _mean(np.multiply(dev2, dev, out=dev))
    m4 = _mean(np.multiply(dev2, dev2, out=dev2))
    with np.errstate(divide="ignore", invalid="ignore"):  # m2**1.5 may underflow
        z_skew = _skewtest_z(m3 / m2**1.5, float(n))
        z_kurt = _kurtosistest_z(m4 / m2**2.0, float(n))
    return bool(special.chdtrc(2, z_skew*z_skew + z_kurt*z_kurt) > alpha)


@lru_cache(maxsize=128)
def _rank_sum_null(n_a: int, vals: tuple[int, ...]) -> np.ndarray:
    """dist[s] = number of size-n_a subsets of vals that sum to s.

    The counts are exact integers in float64 (comb(40, 20) < 2**53), so they
    do not depend on the order of vals. Shared between calls: read-only.
    """
    max_sum = sum(vals)
    dp = np.zeros((n_a + 1, max_sum + 1))  # dp[k, s]: k-subsets summing to s
    dp[0, 0] = 1.0
    for v in vals:
        dp[1:, v:] = dp[1:, v:] + dp[:-1, :max_sum + 1 - v]
    dist = dp[n_a]
    dist.flags.writeable = False
    return dist


def _exact_rank_sum_pvalue(ranks2: np.ndarray, n_a: int, w2: float) -> float:
    """Exact two-sided p for the rank-sum statistic by subset-sum counting.

    ranks2 holds doubled midranks (integers even with ties); counts the
    number of size-n_a subsets whose doubled rank sum deviates from the
    null mean at least as much as the observed one. The null distribution
    is memoised on (n_a, sorted doubled ranks), so every tie-free sample of
    one group size shares one subset-sum pass.
    """
    vals = np.rint(ranks2).astype(int)
    vals.sort()
    dist = _rank_sum_null(n_a, tuple(vals.tolist()))
    n = len(vals)
    mean2 = n_a * (n + 1)  # doubled null mean of the rank sum
    dev = abs(w2 - mean2) - 1e-9
    sums = np.arange(len(dist))
    extreme = dist[np.abs(sums - mean2) >= dev].sum()
    return float(min(extreme / comb(n, n_a), 1.0))


def wilcoxon_rank_sum(a, b) -> float:
    """Two-sided Wilcoxon rank-sum p-value.

    Exact permutation distribution (subset-sum counting over midranks) when
    both groups have <= 20 observations; normal approximation with tie
    correction otherwise.
    """
    from scipy import special

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise ValidationError("both groups must be non-empty")
    n = n_a + n_b
    pooled = np.concatenate((a, b))
    order = pooled.argsort(kind="stable")
    ordered = pooled[order]
    if ordered[0] == ordered[-1]:  # a constant sample
        return 1.0
    # tie runs of the sorted sample: run i spans ordered[edges[i]:edges[i + 1]]
    # and its members share the midrank (edges[i] + edges[i + 1] + 1) / 2
    new_run = np.empty(n + 1, dtype=bool)
    new_run[0] = new_run[n] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:n])
    edges = new_run.nonzero()[0]
    tie_counts = edges[1:] - edges[:-1]
    ranks = np.empty(n)
    ranks[order] = ((edges[:-1] + edges[1:] + 1) / 2.0).repeat(tie_counts)
    w = np.add.reduce(ranks[:n_a])
    if n_a <= EXACT_WILCOXON_MAX and n_b <= EXACT_WILCOXON_MAX:
        return _exact_rank_sum_pvalue(2.0 * ranks, n_a, 2.0 * w)
    mean = n_a * (n + 1) / 2.0
    tie_term = np.add.reduce(tie_counts**3 - tie_counts) / (n * (n - 1))
    var = n_a * n_b / 12.0 * (n + 1 - tie_term)
    if var == 0.0:
        return 1.0
    z = (w - mean) / np.sqrt(var)
    return float(min(2.0 * special.ndtr(-abs(z)), 1.0))


def welch_ttest(a, b) -> float:
    """Two-sided Welch (unequal variance) t-test p-value."""
    from scipy import special

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        raise ValidationError("both groups must hold at least 2 samples")
    m1, m2 = _mean(a), _mean(b)
    da, db = a - m1, b - m2
    with np.errstate(divide="ignore", invalid="ignore"):
        # ddof=1 variances over the sample size: v / n
        vn1 = _mean(np.multiply(da, da, out=da)) * (np.float64(n1) / (n1 - 1)) / n1
        vn2 = _mean(np.multiply(db, db, out=db)) * (np.float64(n2) / (n2 - 1)) / n2
        df = (vn1 + vn2)**2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        if np.isnan(df):  # both variances zero: any df will do
            df = 1.0
        t = (m1 - m2) / np.sqrt(vn1 + vn2)
    return float(2 * special.stdtr(df, -abs(t)))


def class_test(x, labels, cfg: PrescreenConfig) -> float:
    """Per-feature class-discrimination p-value with a normality gate.

    Welch's t-test when both class subsamples pass the gate, Wilcoxon
    rank-sum otherwise.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    a = x[labels == 0]
    b = x[labels == 1]
    if len(a) == 0 or len(b) == 0:
        raise ValidationError("both classes must be non-empty")
    if x.max() == x.min():
        return 1.0
    if normality_gate(a, cfg.normality_alpha) and normality_gate(b, cfg.normality_alpha):
        return welch_ttest(a, b)
    return wilcoxon_rank_sum(a, b)


def discriminative_filter(data: Dataset, cfg: PrescreenConfig) -> PrescreenReport:
    """Correlation pruning followed by the class-discrimination filter."""
    if data.labels is None:
        raise ValidationError("discriminative_filter requires labels")
    cfg.validate()
    kept_corr, removed_corr = correlation_prune(data, cfg)

    kept_ids = []
    kept_idx = []
    removed_test = []
    pvalues = {}
    for j in kept_corr:
        fid = data.feature_ids[j]
        p = class_test(data.values[:, j], data.labels, cfg)
        pvalues[fid] = p
        if p <= cfg.alpha:
            kept_ids.append(fid)
            kept_idx.append(int(j))
        else:
            removed_test.append(fid)
    return PrescreenReport(
        kept_feature_ids=kept_ids,
        removed_by_correlation=[data.feature_ids[j] for j in removed_corr],
        removed_by_class_test=removed_test,
        per_feature_pvalues=pvalues,
        kept_indices=np.asarray(kept_idx, dtype=int),
    )
