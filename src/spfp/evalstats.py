"""Nonparametric comparison machinery for run matrices of a metric.

A run matrix holds one metric observed over n runs (blocks) for k models
(treatments). Comparisons follow the rank-based route: tie-corrected
Friedman test, Conover post-hoc on the same within-block ranks, multiple-
comparison adjustment, and Cliff's delta effect sizes with percentile
bootstrap intervals.

The verdict rule: a model beats the benchmark on a metric when the adjusted
Friedman p and the adjusted Conover p are both below alpha and delta is
positive after orienting values so that larger means better.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dataset import _sorted_quantiles
from .errors import ConfigError, DataError
from .seeding import BOOTSTRAP_STREAM, substream

__all__ = [
    "BOOTSTRAP_BLOCK",
    "midranks",
    "RunMatrix",
    "ComparisonVerdict",
    "friedman",
    "conover_posthoc",
    "adjust",
    "cliffs_delta",
    "bootstrap_ci",
    "win_tie_loss",
]

_MAGNITUDE_BANDS = ((0.147, "negligible"), (0.333, "small"), (0.474, "medium"))

# Numerics of the survival functions behind the p-values.
_SERIES_RESCALE = 2.0**512
_LOG_SERIES_RESCALE = 512 * math.log(2.0)
_LGAMMA_HALF = math.lgamma(0.5)
_CF_MAX_TERMS = 10_000
_CF_TINY = 1e-300

# Replicates drawn per block in bootstrap_ci. Part of the stream contract:
# changing it changes every interval.
BOOTSTRAP_BLOCK = 64


@dataclass
class RunMatrix:
    """n runs x k models of one metric, plus the metric's orientation."""

    values: np.ndarray
    treatment_names: list[str]
    higher_is_better: bool = True

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("run matrix must be 2-D (runs x models)")
        n, k = self.values.shape
        if k < 2 or n < 2:
            raise DataError("run matrix needs >= 2 runs and >= 2 models")
        if len(self.treatment_names) != k:
            raise DataError("one treatment name per column required")
        if len(set(self.treatment_names)) != k:
            raise DataError("treatment names must be unique")
        finite = np.isfinite(self.values)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise DataError(f"run matrix has a non-finite cell in run row {i + 1}, "
                            f"model {self.treatment_names[j]!r}")


@dataclass
class ComparisonVerdict:
    outcome: str  # "win" | "tie" | "loss"
    delta: float
    magnitude: str
    ci: tuple[float, float]
    p_friedman_adj: float
    p_conover_adj: float
    # The metric's (statistic, unadjusted p), shared by its verdicts and
    # written once per metric, so to_dict leaves it out.
    friedman: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "delta": self.delta,
            "magnitude": self.magnitude,
            "ci": list(self.ci),
            "p_friedman_adj": self.p_friedman_adj,
            "p_conover_adj": self.p_conover_adj,
        }


def midranks(values, axis: int = -1) -> np.ndarray:
    """1-based ranks of finite values along `axis`, ties sharing the mean
    of their positions (scipy's ``rankdata(method="average")``).

    A midrank is a whole or half number, so the result is exact. One
    argsort orders every slice; a tie run's members share the mean of its
    first and last sorted positions, whatever order the sort left them in.
    """
    x = np.moveaxis(np.asarray(values, dtype=np.float64), axis, -1)
    order = np.argsort(x, axis=-1)
    s = np.take_along_axis(x, order, axis=-1)
    n = s.shape[-1]
    tied = s[..., 1:] == s[..., :-1]  # sorted position i + 1 ties position i
    pos = np.arange(n)
    first = np.zeros(s.shape, dtype=np.intp)  # each position's tie-run start
    first[..., 1:] = np.where(tied, 0, pos[1:])
    np.maximum.accumulate(first, axis=-1, out=first)
    last = np.full(s.shape, n - 1, dtype=np.intp)  # ... and its run's end
    last[..., :-1] = np.where(tied, n - 1, pos[:-1])
    last = np.minimum.accumulate(last[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty_like(s)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=-1)
    return np.moveaxis(ranks, -1, axis)


def _rank_terms(values: np.ndarray):
    """Shared pieces of the tie-corrected Friedman statistic.

    Returns (rank sums per treatment, sum of squared ranks A2, the
    no-information baseline C2, statistic T1)."""
    n, k = values.shape
    ranks = midranks(values, axis=1)
    rank_sums = ranks.sum(axis=0)
    a2 = float((ranks**2).sum())
    c2 = n * k * (k + 1) ** 2 / 4.0
    if a2 == c2:  # every block fully tied
        return rank_sums, a2, c2, 0.0
    t1 = (k - 1) * float(((rank_sums - n * (k + 1) / 2.0) ** 2).sum()) / (a2 - c2)
    return rank_sums, a2, c2, t1


def friedman(m: RunMatrix) -> tuple[float, float]:
    """Tie-corrected Friedman statistic and its chi-squared p-value."""
    n, k = m.values.shape
    _, a2, c2, t1 = _rank_terms(m.values)
    if a2 == c2:
        return 0.0, 1.0
    return t1, _chi2_sf(k - 1, t1)


def conover_posthoc(m: RunMatrix) -> np.ndarray:
    """Pairwise two-sided p-values of the Conover-Iman comparisons.

    Uses the rank sums of the Friedman layout with pooled variance and
    (n-1)(k-1) degrees of freedom. Fully tied data yields p=1 everywhere;
    a zero variance estimate with differing rank sums yields p=0 (the
    statistic diverges).
    """
    n, k = m.values.shape
    rank_sums, a2, c2, t1 = _rank_terms(m.values)
    df = (n - 1) * (k - 1)
    out = np.ones((k, k))
    if a2 == c2:
        return out
    spread = max(0.0, 1.0 - t1 / (n * (k - 1)))
    se2 = 2.0 * n * (a2 - c2) * spread / df
    for i in range(k):
        for j in range(i + 1, k):
            diff = abs(float(rank_sums[i] - rank_sums[j]))
            if se2 <= 0.0:
                p = 0.0 if diff > 0.0 else 1.0
            else:
                p = 2.0 * _t_sf(df, diff / math.sqrt(se2))
            out[i, j] = out[j, i] = min(1.0, p)
    return out


def _chi2_sf(df: int, x: float) -> float:
    """P(X > x) for a chi-squared X with integer df >= 1 (Abramowitz &
    Stegun 26.4.4 and 26.4.21).

    Even df: the Poisson sum e^-h (1 + h + ... + h^(df/2-1)/(df/2-1)!) at
    h = x/2. Odd df: erfc(sqrt h) + 2 sqrt(h/pi) e^-h (1 + x/3 + x^2/(3*5)
    + ...) with (df-1)/2 terms. The factor e^-h joins the series in log
    space, so a large x gives a small p (or 0.0) instead of 0 * inf. Near
    x = 0 rounding can lift the sum past 1, hence the clamp.
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    if df % 2 == 0:
        p = math.exp(_log_series(h / i for i in range(1, df // 2)) - h)
    elif df == 1:
        p = math.erfc(math.sqrt(h))
    else:
        log_series = _log_series(x / (2 * r + 1) for r in range(1, (df - 1) // 2))
        p = math.erfc(math.sqrt(h)) + math.exp(
            log_series + 0.5 * math.log(4.0 * h / math.pi) - h
        )
    return min(1.0, p)


def _log_series(ratios) -> float:
    """log(1 + r1 + r1 r2 + r1 r2 r3 + ...) over the given term ratios.

    Partial sums are scaled down by exact powers of two before they can
    overflow."""
    term = total = 1.0
    shift = 0
    for r in ratios:
        term *= r
        total += term
        if total > _SERIES_RESCALE:
            term /= _SERIES_RESCALE
            total /= _SERIES_RESCALE
            shift += 1
    return math.log(total) + shift * _LOG_SERIES_RESCALE


def _t_sf(df: int, t: float) -> float:
    """P(T > t) for a Student t with integer df >= 1 and t >= 0.

    Equals 0.5 * I_x(df/2, 1/2), the regularized incomplete beta at
    x = df / (df + t^2). The prefactor x^a (1-x)^(1/2) is formed from
    log1p(t^2/df) and log1p(df/t^2), never from 1 - x, which rounds to 0
    for small t: so p stays exact to rounding as t -> 0.
    """
    if t == 0.0:
        return 0.5
    a = 0.5 * df
    t2 = t * t
    log_front = (
        math.lgamma(a + 0.5) - math.lgamma(a) - _LGAMMA_HALF
        - a * math.log1p(t2 / df) - 0.5 * math.log1p(df / t2)
    )  # log(x^a (1-x)^(1/2) / B(a, 1/2))
    front = math.exp(log_front)
    x = df / (df + t2)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_cf(a, 0.5, x) / a
    return 0.5 - front * _beta_cf(0.5, a, t2 / (df + t2))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta I_x(a, b), evaluated by
    the modified Lentz method (Numerical Recipes, 3rd ed., 6.4 `betacf`).

    It converges fast for x < (a+1)/(a+b+2), in O(sqrt(max(a, b)))
    terms; the term cap is far beyond that."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        step = d * c
        h *= step
        if abs(step - 1.0) <= sys.float_info.epsilon:
            break
    return h


def _nonzero(v: float) -> float:
    """Lentz's guard: a vanishing partial denominator becomes tiny."""
    return v if abs(v) >= _CF_TINY else _CF_TINY


def adjust(pvals, method: str) -> list[float]:
    """Multiple-comparison adjustment preserving input order."""
    p = np.asarray(list(pvals), dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ConfigError("pvals must be a non-empty 1-D sequence")
    if (p < 0).any() or (p > 1).any():
        raise ConfigError("p-values must lie in [0,1]")
    m = p.size
    if method == "bonferroni":
        return np.minimum(1.0, m * p).tolist()
    if method == "benjamini_hochberg":
        order = np.argsort(p, kind="stable")
        scaled = p[order] * m / np.arange(1, m + 1)
        adjusted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
        out = np.empty(m)
        out[order] = adjusted
        return out.tolist()
    raise ConfigError(f"unknown adjustment method {method!r}")


def cliffs_delta(a, b) -> tuple[float, str]:
    """Dominance effect size of sample a over sample b with its magnitude
    label (negligible / small / medium / large)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise DataError("cliffs_delta requires non-empty samples")
    a_sorted = np.sort(a)
    greater = int((a.size - np.searchsorted(a_sorted, b, side="right")).sum())
    less = int(np.searchsorted(a_sorted, b, side="left").sum())
    delta = (greater - less) / (a.size * b.size)
    return delta, _magnitude(delta)


def _magnitude(delta: float) -> str:
    mag = abs(delta)
    for cut, label in _MAGNITUDE_BANDS:
        if mag < cut:
            return label
    return "large"


def bootstrap_ci(
    a,
    b,
    replicates: int = 10_000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for cliffs_delta(a, b).

    Stream contract: every call opens ``substream(seed, BOOTSTRAP_STREAM)``
    afresh, so the result is deterministic under `seed` and independent of
    evaluation order. Replicates are drawn in blocks of BOOTSTRAP_BLOCK
    (the last block holds the remainder); for a block of m replicates the
    resample indices of a are drawn first as ``integers(0, a.size,
    (m, a.size))``, then those of b as ``integers(0, b.size, (m, b.size))``.
    Row r of the two draws is replicate r, and its delta equals
    ``cliffs_delta(a[ia[r]], b[ib[r]])`` bit for bit: its numerator, the
    exact (greater - less) count, comes from running counts over sorted b
    in O(a.size + b.size) per replicate. `win_tie_loss` scores all models
    of a metric from one such draw, which gives each the interval of its
    own call.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    return _bootstrap_intervals(a[None, :], b, replicates, confidence, seed)[0]


def _bootstrap_intervals(
    samples: np.ndarray, b, replicates: int, confidence: float, seed: int
) -> list[tuple[float, float]]:
    """bootstrap_ci(row, b, ...) for every row of `samples`: the rows have
    one size, so they share the stream contract's one draw."""
    if replicates < 100:
        raise ConfigError("replicates must be >= 100")
    if not 0.0 < confidence < 1.0:
        raise ConfigError("confidence must be in (0,1)")
    b = np.asarray(b, dtype=np.float64).ravel()
    n_a, n_b = samples.shape[1], b.size
    if n_a == 0 or n_b == 0:
        raise DataError("bootstrap_ci requires non-empty samples")
    if not (np.isfinite(samples).all() and np.isfinite(b).all()):
        raise DataError("bootstrap_ci requires finite samples")
    order = np.argsort(b)
    b_sorted = b[order]
    below = np.searchsorted(b_sorted, samples, side="left")
    not_above = np.searchsorted(b_sorted, samples, side="right")
    rng = substream(seed, BOOTSTRAP_STREAM)
    deltas = [np.empty(replicates) for _ in samples]  # no k x replicates block
    for start in range(0, replicates, BOOTSTRAP_BLOCK):
        m = min(BOOTSTRAP_BLOCK, replicates - start)
        wa = _resample_counts(rng.integers(0, n_a, (m, n_a)))
        wb = _resample_counts(rng.integers(0, n_b, (m, n_b)))
        dominance = _dominance(wa, wb[:, order], below, not_above)
        for row, counts in zip(deltas, dominance.T):
            row[start : start + m] = counts / (n_a * n_b)
    tail = (1.0 - confidence) / 2.0
    qs = np.array([tail, 1.0 - tail])
    # np.quantile(row, qs) reads each percentile off the two order
    # statistics around (replicates - 1) * q: partitioned in place at
    # those, a row holds them where _sorted_quantiles reads them
    lo = np.floor((replicates - 1) * qs).astype(np.intp)
    kth = np.minimum(np.concatenate([lo, lo + 1]), replicates - 1)
    for row in deltas:
        row.partition(kth)
    return [tuple(map(float, _sorted_quantiles(row[:, None], qs)[:, 0])) for row in deltas]


def _dominance(
    wa: np.ndarray, wb_sorted: np.ndarray, below: np.ndarray, not_above: np.ndarray
) -> np.ndarray:
    """(m, k) int64: sum over i, j of wa[r, i] sign(a_si - b_j) wb[r, j],
    the exact (greater - less) count of replicate r for sample s.

    wa and wb_sorted are resample counts, rows summing to n_a and n_b, with
    wb_sorted's columns in ascending order of b; below[s, i] and
    not_above[s, i] count the values of b under and not above a_si. With
    running[r, t] the draws among the t smallest values of b, a_si beats
    running[r, below] draws and loses to n_b - running[r, not_above].
    """
    m, n_b = wb_sorted.shape
    running = np.zeros((m, n_b + 1), dtype=np.int64)
    np.cumsum(wb_sorted, axis=1, out=running[:, 1:])
    weighted = (running[:, below] + running[:, not_above]) * wa[:, None, :]
    return weighted.sum(axis=2) - wa.shape[1] * n_b


def _resample_counts(indices: np.ndarray) -> np.ndarray:
    """How often each of n items occurs in each row of an (m, n) index
    draw, as an (m, n) count matrix from one bincount."""
    m, n = indices.shape
    keys = indices + n * np.arange(m)[:, None]
    return np.bincount(keys.ravel(), minlength=m * n).reshape(m, n)


def win_tie_loss(
    matrices: dict[str, RunMatrix],
    benchmark: str,
    alpha: float = 0.05,
    replicates: int = 10_000,
    confidence: float = 0.95,
    seed: int = 0,
) -> dict[str, dict[str, ComparisonVerdict]]:
    """Verdict table: every non-benchmark model vs the benchmark, per metric.

    Friedman p-values are Bonferroni-adjusted across metrics; Conover
    model-vs-benchmark p-values are Benjamini-Hochberg-adjusted within each
    metric. Values of lower-is-better metrics are negated before computing
    delta so that delta > 0 always reads "model better than benchmark".
    """
    if not matrices:
        raise ConfigError("no metric matrices given")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must be in (0,1)")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    metric_names = list(matrices)
    for name in metric_names:
        if benchmark not in matrices[name].treatment_names:
            raise ConfigError(f"benchmark {benchmark!r} missing from metric {name!r}")

    friedman_raw = [friedman(matrices[name]) for name in metric_names]
    friedman_adj = adjust([p for _, p in friedman_raw], "bonferroni")

    table: dict[str, dict[str, ComparisonVerdict]] = {}
    for name, fr, p_fr in zip(metric_names, friedman_raw, friedman_adj):
        m = matrices[name]
        bench_col = m.treatment_names.index(benchmark)
        others = [i for i in range(len(m.treatment_names)) if i != bench_col]
        conover = conover_posthoc(m)
        p_cn_adj = adjust([conover[i, bench_col] for i in others], "benjamini_hochberg")

        sign = 1.0 if m.higher_is_better else -1.0
        bench_vals = sign * m.values[:, bench_col]
        model_vals = sign * m.values[:, others].T
        cis = _bootstrap_intervals(model_vals, bench_vals, replicates, confidence, seed)
        row: dict[str, ComparisonVerdict] = {}
        for i, p_cn, vals, ci in zip(others, p_cn_adj, model_vals, cis):
            delta, magnitude = cliffs_delta(vals, bench_vals)
            if p_fr < alpha and p_cn < alpha and delta > 0.0:
                outcome = "win"
            elif p_fr < alpha and p_cn < alpha and delta < 0.0:
                outcome = "loss"
            else:
                outcome = "tie"
            row[m.treatment_names[i]] = ComparisonVerdict(
                outcome=outcome,
                delta=delta,
                magnitude=magnitude,
                ci=ci,
                p_friedman_adj=p_fr,
                p_conover_adj=p_cn,
                friedman=fr,
            )
        table[name] = row
    return table
