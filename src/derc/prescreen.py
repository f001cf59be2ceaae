"""Statistical feature prescreening.

Two passes: (1) drop near-duplicate features whose pairwise correlation is
both strong (|rho| >= threshold) and significant (p <= alpha); (2) keep
only features that discriminate the two classes, using Welch's t-test when
both class subsamples look normal and the Wilcoxon rank-sum test otherwise.
The survivors of (1) are split by class and gated over blocks of features
(normality_gates); each survivor then gets one class_test of its own.

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

from . import network
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
    x = data.values
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
    buf = np.empty(min(PRUNE_BLOCK, d) * d, dtype=xs.dtype)
    removed = np.zeros(d, dtype=bool)
    for start in range(0, d, PRUNE_BLOCK):
        stop = min(start + PRUNE_BLOCK, d)
        # (block, d - start) correlations: row i reads only columns > i
        block = buf[:(stop - start) * (d - start)].reshape(stop - start, d - start)
        network.matmul(xs[:, start:stop].T, xs[:, start:], out=block)
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
# `**0.5` where scipy has it, so that they round exactly as scipy does. scipy
# scores one sample, so its powers are the C library's pow on scalars; on
# arrays `**` may take numpy's SIMD power, which rounds differently in the
# last bit, while np.float_power calls pow on each element.


def _skewtest_z(b2: np.ndarray, n: float) -> np.ndarray:
    """D'Agostino's normal score of each sample skewness in b2 (scipy's skewtest)."""
    scale = np.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n**2 + 27*n - 70) * (n+1) * (n+3) /
             ((n-2.0) * (n+5) * (n+7) * (n+9)))
    w2 = -1 + np.sqrt(2 * (beta2 - 1))
    delta = 1 / np.sqrt(0.5 * np.log(w2))
    alpha = np.sqrt(2.0 / (w2 - 1))
    y = b2 * scale
    y[y == 0] = 1.0
    return delta * np.log(y / alpha + np.sqrt(np.float_power(y / alpha, 2) + 1))


def _kurtosistest_z(b2: np.ndarray, n: float) -> np.ndarray:
    """Anscombe-Glynn normal score of each sample kurtosis in b2 (scipy's
    kurtosistest); NaN where the transform is undefined."""
    e = 3.0*(n-1) / (n+1)
    varb2 = 24.0*n*(n-2)*(n-3) / ((n+1)*(n+1.)*(n+3)*(n+5))
    sqrtbeta1 = 6.0*(n*n-5*n+2)/((n+7)*(n+9)) * ((6.0*(n+3)*(n+5))
                                                 / (n*(n-2)*(n-3)))**0.5
    a = 6.0 + 8.0/sqrtbeta1 * (2.0/sqrtbeta1 + (1+4.0/(sqrtbeta1**2))**0.5)
    x = (b2-e) / varb2**0.5
    denom = 1 + x * (2/(a-4.0))**0.5
    term2 = np.float_power((1-2.0/a) / np.abs(denom), 1/3)
    np.negative(term2, out=term2, where=denom < 0)
    term2[denom == 0.0] = np.nan
    return (1 - 2/(9.0*a) - term2) / (2/(9.0*a))**0.5


# The class tests below run once per feature on short samples, where numpy's
# Python-level wrappers (ndarray.mean, np.ptp, np.diff) cost as much as the
# arithmetic; they call ufuncs directly and square in place.


def _mean(x: np.ndarray) -> np.float64:
    """x.mean() without its wrapper: the same pairwise sum and single division."""
    return np.add.reduce(x) / len(x)


def normality_gates(samples, alpha: float) -> np.ndarray:
    """D'Agostino-Pearson omnibus normality check (skewness + kurtosis, chi2
    df=2) of each row of a features x observations block.

    A row passes iff it is long enough (>= 8) and the test fails to reject
    normality at alpha. Skewness and kurtosis come from the biased central
    moments; a row constant up to rounding is not normal. Every moment is a
    pairwise sum along the contiguous axis, as in the 1-D _mean, so each
    row's moments, K² and decision do not depend on the rows beside it.
    """
    from scipy import special

    x = np.ascontiguousarray(samples)
    rows, n = x.shape
    if n < MIN_NORMALITY_N:
        return np.zeros(rows, dtype=bool)
    mean = np.add.reduce(x, axis=1) / n
    dev = x - mean[:, None]
    dev2 = dev * dev
    m2 = np.add.reduce(dev2, axis=1) / n
    m3 = np.add.reduce(np.multiply(dev2, dev, out=dev), axis=1) / n
    m4 = np.add.reduce(np.multiply(dev2, dev2, out=dev2), axis=1) / n
    # constant and near-constant rows are scored too, then cut: their
    # moments may be 0, subnormal or NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z_skew = _skewtest_z(m3 / np.float_power(m2, 1.5), float(n))
        z_kurt = _kurtosistest_z(m4 / np.float_power(m2, 2.0), float(n))
        passed = special.chdtrc(2, z_skew*z_skew + z_kurt*z_kurt) > alpha
    passed &= np.maximum.reduce(x, axis=1) != np.minimum.reduce(x, axis=1)
    passed &= m2 > np.float_power(EPS * mean, 2)
    return passed


def normality_gate(x, alpha: float) -> bool:
    """normality_gates of one sample: True iff it looks normal at alpha."""
    return bool(normality_gates(np.atleast_2d(x), alpha)[0])


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
    dist = dp[n_a].copy()  # a view would keep the whole table alive
    dist.flags.writeable = False
    return dist


def _exact_rank_sum_pvalue(ranks2: np.ndarray, n_a: int, w2: int) -> float:
    """Exact two-sided p for the rank-sum statistic by subset-sum counting.

    ranks2 holds the pooled sample's integer doubled midranks, in any order,
    and w2 the doubled rank sum of the group of n_a; counts the number of
    size-n_a subsets whose doubled rank sum deviates from the null mean at
    least as much as the observed one. The null distribution is memoised on
    (n_a, sorted doubled ranks), so every tie-free sample of one group size
    shares one subset-sum pass.
    """
    vals = np.sort(ranks2)
    dist = _rank_sum_null(n_a, tuple(vals.tolist()))
    n = len(vals)
    mean2 = n_a * (n + 1)  # doubled null mean of the rank sum
    sums = np.arange(len(dist))
    extreme = dist[np.abs(sums - mean2) >= abs(w2 - mean2)].sum()
    return float(min(extreme / comb(n, n_a), 1.0))


def wilcoxon_rank_sum(a, b) -> float:
    """Two-sided Wilcoxon rank-sum p-value.

    Exact permutation distribution (subset-sum counting over midranks) when
    both groups have <= 20 observations; normal approximation with tie
    correction otherwise.
    """
    from scipy import special

    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise ValidationError("both groups must be non-empty")
    n = n_a + n_b
    pooled = np.concatenate((a, b))
    order = pooled.argsort()
    ordered = pooled[order]
    if ordered[0] == ordered[-1]:  # a constant sample
        return 1.0
    # the tie run of ordered[i] spans ordered[lo[i]:hi[i]], and its members
    # share the doubled midrank lo + hi + 1: every rank sum is an exact
    # integer, whatever order a sort leaves within a run. Sorted keys keep
    # the binary searches' branches predictable.
    lo = ordered.searchsorted(ordered, "left")
    hi = ordered.searchsorted(ordered, "right")
    ranks2 = lo + hi + 1
    w2 = int(np.add.reduce(ranks2, where=order < n_a))
    if n_a <= EXACT_WILCOXON_MAX and n_b <= EXACT_WILCOXON_MAX:
        return _exact_rank_sum_pvalue(ranks2, n_a, w2)
    mean = n_a * (n + 1) / 2.0
    # a run of t ties adds t**3 - t to the tie term: t**2 - 1 for each member
    t = hi - lo
    tie_term = np.add.reduce(t * t - 1) / (n * (n - 1))
    # var > 0: a non-constant sample's tie_term is at most n - 2 (runs of n - 1 and 1)
    var = n_a * n_b / 12.0 * (n + 1 - tie_term)
    z = (w2 / 2.0 - mean) / np.sqrt(var)
    return float(min(2.0 * special.ndtr(-abs(z)), 1.0))


def welch_ttest(a, b) -> float:
    """Two-sided Welch (unequal variance) t-test p-value."""
    from scipy import special

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


def class_test(a: np.ndarray, b: np.ndarray, normal: bool) -> float:
    """Class-discrimination p-value of one feature from its two class
    subsamples: Welch's t-test when the normality gate passed both (`normal`),
    Wilcoxon rank-sum otherwise. A constant feature fails the gate, and its
    rank sum gives p = 1.
    """
    return welch_ttest(a, b) if normal else wilcoxon_rank_sum(a, b)


def discriminative_filter(data: Dataset, cfg: PrescreenConfig) -> PrescreenReport:
    """Correlation pruning followed by the class-discrimination filter.

    The survivors are gathered and their class subsamples gated one block
    of features at a time; each survivor then gets one class_test on its
    row of the two subsamples.
    """
    if data.labels is None:
        raise ValidationError("discriminative_filter requires labels")
    cfg.validate()
    labels = np.asarray(data.labels)
    rows_a, rows_b = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    if len(rows_a) == 0 or len(rows_b) == 0:
        raise ValidationError(f"labels hold {len(rows_a)} samples of class 0 and "
                              f"{len(rows_b)} of class 1; the class tests need both")
    kept_corr, removed_corr = correlation_prune(data, cfg)

    # a loaded matrix is F-contiguous, so its columns gather fast as rows
    values = data.values
    kept_ids = []
    kept_idx = []
    removed_test = []
    pvalues = {}
    for start in range(0, len(kept_corr), PRUNE_BLOCK):
        cols = kept_corr[start:start + PRUNE_BLOCK]
        block = values.T[cols]
        a, b = block.take(rows_a, axis=1), block.take(rows_b, axis=1)
        normal = (normality_gates(a, cfg.normality_alpha)
                  & normality_gates(b, cfg.normality_alpha))
        for j, a_j, b_j, gate in zip(cols.tolist(), a, b, normal.tolist()):
            fid = data.feature_ids[j]
            p = class_test(a_j, b_j, gate)
            pvalues[fid] = p
            if p <= cfg.alpha:
                kept_ids.append(fid)
                kept_idx.append(j)
            else:
                removed_test.append(fid)
    return PrescreenReport(
        kept_feature_ids=kept_ids,
        removed_by_correlation=[data.feature_ids[j] for j in removed_corr],
        removed_by_class_test=removed_test,
        per_feature_pvalues=pvalues,
        kept_indices=np.asarray(kept_idx, dtype=int),
    )
