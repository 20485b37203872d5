"""Greedy construction of feature views whose joint information content
matches the full feature set.

Each view is grown one feature at a time by maximizing

    J(f_c) = |R(f_c,Y)| + I(f_c;Y)
             - (1/|S|) * sum_{f_s in S} I(f_s;f_c)
             + (1/|S|) * sum_{f_s in S} I(f_s;f_c|Y)

over the remaining pool (empty sums contribute 0), until the view meets all
three stopping criteria: a minimum size, joint entropy matching H(F), and
joint entropy with the target matching H(F,Y). After each view a configured
fraction of its features is removed from the master feature space, which
drives diversity across views.

|R| is the absolute Pearson correlation of the raw feature values against
the encoded target; the information terms are plug-in estimates over the
discretized codes.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import DISCRETIZERS, CodedMatrix, Dataset, discretize
from .errors import ConfigError, DataError
from .infometrics import PairCache, RowPartition
from .seeding import REMOVAL_STREAM, substream

__all__ = [
    "SpfpConfig",
    "View",
    "ViewSet",
    "PoolDepletedError",
    "criteria_met",
    "build_view",
    "partition",
    "view_stats",
    "conditional_independence_report",
]

@dataclass(frozen=True)
class Range:
    """The numbers v with lo <= v <= hi, or lo < v < hi unless `closed`;
    with `whole`, whole numbers only. The default hi bounds from below only."""

    lo: float
    hi: float = math.inf
    closed: bool = True
    whole: bool = False

    def __contains__(self, v) -> bool:
        inside = self.lo <= v <= self.hi if self.closed else self.lo < v < self.hi
        return inside and (not self.whole or float(v).is_integer())

    def __str__(self) -> str:
        if self.hi < math.inf:
            return "in " + ("[{}, {}]" if self.closed else "({}, {})").format(self.lo, self.hi)
        if self.lo == 0:
            return "non-negative" if self.closed else "positive"
        return f"{'a whole number ' if self.whole else ''}{'>=' if self.closed else '>'} {self.lo}"


FRACTION = Range(0.0, 1.0, closed=False)
MIN_COUNT = Range(1, whole=True)


def require(key: str, value, allowed: tuple) -> None:
    """Raise ConfigError unless `value` equals a str or lies in a Range of `allowed`."""
    if not any(value == a if isinstance(a, str) else value in a for a in allowed):
        what = " or ".join(repr(a) if isinstance(a, str) else str(a) for a in allowed)
        raise ConfigError(f"{key} must be {what}, got {value!r}")


def config_key(default, *allowed):
    """A config field: its default and its allowed values, checked on construction."""
    return field(default=default, metadata={"allowed": allowed})


@dataclass
class SpfpConfig:
    """Parameters of the partitioning run.

    `min_features` is a fraction of the total feature count when in (0,1),
    a whole count otherwise. `relevance_correlation` picks how the
    Pearson term treats a multi-class target: ``codes`` correlates against
    the integer class codes, ``max_ovr`` takes the maximum over one-vs-rest
    class indicators. Every field declared with `config_key` is checked against
    its allowed values on construction, a subclass's fields too.
    """

    n_views: int = config_key(5, Range(1))
    min_features: float = config_key(0.1, FRACTION, MIN_COUNT)
    remove_fraction: float = config_key(0.6, Range(0.0, 1.0))
    entropy_tolerance: float = config_key(1e-9, FRACTION)
    seed: int = config_key(0, Range(0))
    bins: int = config_key(10, Range(2))
    discretizer: str = config_key("equal_frequency", *DISCRETIZERS)
    relevance_correlation: str = config_key("codes", "codes", "max_ovr")

    def __post_init__(self) -> None:
        for f in fields(self):
            if "allowed" in f.metadata:
                require(f.name, getattr(self, f.name), f.metadata["allowed"])

    def resolve_min_features(self, n_features: int) -> int:
        if 0 < self.min_features < 1:
            return max(1, math.ceil(self.min_features * n_features))
        return int(self.min_features)


@dataclass
class StepRecord:
    """One greedy step: pool size scored, chosen feature, criteria after it."""

    candidates: int
    winner: int
    criteria: tuple[bool, bool, bool]


@dataclass
class View:
    feature_ids: list[int]
    scores: list[float]
    h_s: float
    h_sy: float
    termination: str  # "criteria_met" | "pool_exhausted"
    step_trace: list[StepRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.feature_ids)


@dataclass
class ViewSet:
    views: list[View]
    removed_log: list[list[int]]
    elapsed: list[float]
    h_f: float
    h_fy: float
    n_features: int
    winner_sweeps: int = 0  # distinct PairCache.winner_stats computations
    winner_memo_hits: int = 0  # winner_stats calls that reused one
    pairs_counted: int = 0  # pair statistics the sweeps counted

    @property
    def union_ids(self) -> list[int]:
        out: set[int] = set()
        for v in self.views:
            out.update(v.feature_ids)
        return sorted(out)

    @property
    def intersection_ids(self) -> list[int]:
        if not self.views:
            return []
        out = set(self.views[0].feature_ids)
        for v in self.views[1:]:
            out &= set(v.feature_ids)
        return sorted(out)

    @property
    def union_size(self) -> int:
        return len(self.union_ids)

    @property
    def intersection_size(self) -> int:
        return len(self.intersection_ids)


class PoolDepletedError(DataError):
    """Master feature space ran out before the requested number of views."""

    def __init__(self, message: str, views: list[View], removed_log: list[list[int]]):
        super().__init__(message)
        self.views = views
        self.removed_log = removed_log


def relevance_vector(
    features: np.ndarray, target: np.ndarray, n_classes: int, mode: str = "codes"
) -> np.ndarray:
    """|Pearson r| of every raw feature column against the encoded target."""
    if mode == "codes":
        ys = [target.astype(np.float64)]
    else:  # "max_ovr"
        ys = [(target == c).astype(np.float64) for c in range(n_classes)]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = features.mean(axis=0)
    xc = features - mean
    for j in np.flatnonzero(~np.isfinite(mean)):
        # the column sum overflowed: centre the column scaled to |x| <= 1,
        # which leaves |r| as it is
        col = features[:, j] / np.abs(features[:, j]).max()
        xc[:, j] = col - col.mean()
    ycs = [y - y.mean() for y in ys]
    dots = [xc.T @ yc for yc in ycs]
    with np.errstate(over="ignore"):
        xnorm = np.sqrt(np.square(xc, out=xc).sum(axis=0))  # xc is spent
    for j in np.flatnonzero(~np.isfinite(xnorm)):
        # the squares overflowed: take the norm of the column scaled to
        # |xc| <= 1, then scale back
        col = features[:, j] - mean[j]
        scale = np.abs(col).max()
        xnorm[j] = math.sqrt(float(np.square(col / scale).sum())) * scale
    best = np.zeros(features.shape[1])
    for yc, dot in zip(ycs, dots):
        ynorm = math.sqrt(float((yc * yc).sum()))
        denom = xnorm * ynorm
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.abs(dot) / denom
        r[denom == 0.0] = 0.0
        best = np.maximum(best, np.minimum(r, 1.0))
    return best


def criteria_met(
    n_selected: int,
    h_s: float,
    h_sy: float,
    h_f: float,
    h_fy: float,
    n_f: int,
    tol: float,
) -> tuple[bool, bool, bool]:
    """The three stopping predicates for the current selection state.

    Equality of entropies is tested as >= a relative-tolerance threshold;
    the subset entropies can never exceed the full-set ones, so this is the
    float-safe reading of the equality criteria.
    """
    c1 = n_selected >= n_f
    c2 = h_s >= h_f * (1.0 - tol)
    c3 = h_sy >= h_fy * (1.0 - tol)
    return (c1, c2, c3)


@dataclass
class _Context:
    """Shared read-only state for building all views of one run."""

    n_rows: int
    target: np.ndarray
    cache: PairCache
    relevance: np.ndarray
    h_f: float
    h_fy: float
    n_f: int
    tol: float


def _build_context(d: Dataset, coded: CodedMatrix, config: SpfpConfig) -> _Context:
    """The run's shared state; the codes are kept only inside the PairCache."""
    cache = PairCache(coded.codes, coded.cardinalities, d.target)
    relevance = relevance_vector(
        d.features, d.target, d.n_classes, config.relevance_correlation
    )
    full = RowPartition.from_columns(cache.columns)
    h_f = full.entropy()
    h_fy = full.refine(d.target).entropy()
    return _Context(
        n_rows=coded.n_rows,
        target=d.target,
        cache=cache,
        relevance=relevance,
        h_f=h_f,
        h_fy=h_fy,
        n_f=config.resolve_min_features(coded.n_columns),
        tol=config.entropy_tolerance,
    )


def build_view(pool, ctx: _Context) -> View:
    """Grow one view greedily from `pool` until the criteria hold or the
    pool runs out.

    Ties in the argmax go to the lowest feature index; the pool is kept in
    ascending index order so the first maximum is that feature.
    """
    if not isinstance(ctx, _Context):
        raise TypeError("build_view needs a context built by partition()")
    pool_arr = np.array(sorted(int(p) for p in pool), dtype=np.intp)
    if pool_arr.size == 0:
        raise ConfigError("pool is empty")

    part_s = RowPartition.trivial(ctx.n_rows)
    part_sy = part_s.refine(ctx.target)
    h_s, h_sy = 0.0, part_sy.entropy()

    sum_mi = np.zeros(pool_arr.shape[0])
    sum_cmi = np.zeros(pool_arr.shape[0])
    selected: list[int] = []
    scores: list[float] = []
    trace: list[StepRecord] = []
    crit = criteria_met(0, h_s, h_sy, ctx.h_f, ctx.h_fy, ctx.n_f, ctx.tol)

    while pool_arr.size > 0 and not all(crit):
        score = ctx.relevance[pool_arr] + ctx.cache.mi_y[pool_arr]
        if selected:
            score += (sum_cmi - sum_mi) / len(selected)
        best = int(np.argmax(score))  # first max = lowest index
        winner = int(pool_arr[best])

        selected.append(winner)
        scores.append(float(score[best]))
        col = ctx.cache.columns[winner]
        part_s = part_s.refine(col)
        part_sy = part_sy.refine(col)
        h_s, h_sy = part_s.entropy(), part_sy.entropy()

        keep = np.ones(pool_arr.shape[0], dtype=bool)
        keep[best] = False
        pool_arr = pool_arr[keep]
        sum_mi = sum_mi[keep]
        sum_cmi = sum_cmi[keep]

        crit = criteria_met(len(selected), h_s, h_sy, ctx.h_f, ctx.h_fy, ctx.n_f, ctx.tol)
        trace.append(StepRecord(candidates=keep.shape[0], winner=winner, criteria=crit))

        if pool_arr.size > 0 and not all(crit):
            mi_new, cmi_new = ctx.cache.winner_stats(winner)
            sum_mi += mi_new[pool_arr]
            sum_cmi += cmi_new[pool_arr]

    termination = "criteria_met" if all(crit) else "pool_exhausted"
    return View(
        feature_ids=selected,
        scores=scores,
        h_s=h_s,
        h_sy=h_sy,
        termination=termination,
        step_trace=trace,
    )


def partition(d: Dataset, config: SpfpConfig, coded: CodedMatrix | None = None) -> ViewSet:
    """Run the full view-construction loop over a dataset.

    Views are built sequentially; after view g, round(remove_fraction *
    |view|) of its features (sampled without replacement from a per-view
    Philox substream of the master seed) leave the master feature space.
    `coded`, when given, must be ``discretize(d, config.bins,
    config.discretizer)``, computed by a caller that keeps the codes.
    """
    if coded is None:
        coded = discretize(d, config.bins, config.discretizer)
    ctx = _build_context(d, coded, config)
    if ctx.n_f > d.n_features:
        raise ConfigError(
            f"resolved min_features {ctx.n_f} exceeds feature count {d.n_features}"
        )

    available = np.ones(d.n_features, dtype=bool)
    views: list[View] = []
    removed_log: list[list[int]] = []
    elapsed: list[float] = []
    for g in range(config.n_views):
        pool = np.flatnonzero(available)
        if pool.size == 0:
            raise PoolDepletedError(
                f"feature space exhausted after {g} of {config.n_views} views",
                views,
                removed_log,
            )
        start = time.perf_counter()
        view = build_view(pool, ctx)
        elapsed.append(time.perf_counter() - start)
        views.append(view)
        if view.termination == "pool_exhausted":
            warnings.warn(
                f"view {g + 1} exhausted its pool before meeting the stopping "
                f"criteria ({len(view)} features selected)",
                stacklevel=2,
            )

        n_remove = int(math.floor(config.remove_fraction * len(view) + 0.5))
        if n_remove > 0:
            rng = substream(config.seed, REMOVAL_STREAM, g)
            picks = rng.choice(len(view.feature_ids), size=n_remove, replace=False)
            removed = sorted(view.feature_ids[i] for i in picks)
        else:
            removed = []
        removed_log.append(removed)
        available[removed] = False
        ctx.cache.retire(removed)

    return ViewSet(
        views=views,
        removed_log=removed_log,
        elapsed=elapsed,
        h_f=ctx.h_f,
        h_fy=ctx.h_fy,
        n_features=d.n_features,
        winner_sweeps=ctx.cache.sweeps,
        winner_memo_hits=ctx.cache.memo_hits,
        pairs_counted=len(ctx.cache),
    )


def view_stats(vs: ViewSet) -> dict:
    """Size and overlap summary of a ViewSet (the body of view_stats.json).

    `overlap` is the pairwise common-feature count matrix (diagonal =
    view sizes). Wall-clock time stays out: the summary is deterministic.
    """
    if not vs.views:
        raise ConfigError("empty ViewSet")
    sets = [set(v.feature_ids) for v in vs.views]
    k = len(sets)
    overlap = [[len(sets[a] & sets[b]) for b in range(k)] for a in range(k)]
    return {
        "view_sizes": [len(v) for v in vs.views],
        "union_size": vs.union_size,
        "intersection_size": vs.intersection_size,
        "view_ratios": [len(v) / vs.n_features for v in vs.views],
        "union_ratio": vs.union_size / vs.n_features,
        "overlap": overlap,
        "terminations": [v.termination for v in vs.views],
    }


def conditional_independence_report(
    view_ids: list[list[int]],
    coded: CodedMatrix,
    target: np.ndarray,
    tolerance: float = 1e-9,
) -> dict:
    """Empirical check of the view-pair conditional-independence assumption.

    `view_ids` holds each view's feature indices into `coded`. Computes
    I(view_a; view_b | Y) for every pair via row partitions over each
    view's joint state, together with H(F), H(Y), and whether H(F) <= H(Y),
    the necessary condition for all pairwise conditional independences to
    hold at full information content.
    """
    if len(view_ids) < 2:
        raise ConfigError("conditional independence needs at least two views")
    target = np.asarray(target, dtype=np.intp)
    group_cols = [
        RowPartition.from_columns(coded.codes[:, ids].T).group_id for ids in view_ids
    ]
    part_y = RowPartition.trivial(coded.n_rows).refine(target)
    h_y = part_y.entropy()
    parts_view_y = [part_y.refine(g) for g in group_cols]
    h_view_y = [p.entropy() for p in parts_view_y]
    k = len(group_cols)
    cmi = np.zeros((k, k))
    for a in range(k):
        for b in range(a, k):
            h_aby = parts_view_y[a].refine(group_cols[b]).entropy()
            value = max(0.0, h_view_y[a] + h_view_y[b] - h_aby - h_y)
            cmi[a, b] = cmi[b, a] = value
    h_f = RowPartition.from_columns(coded.codes.T).entropy()
    off_diag = cmi[~np.eye(k, dtype=bool)]
    return {
        "pairwise_cmi": cmi.tolist(),
        "h_f": h_f,
        "h_y": h_y,
        "h_f_le_h_y": bool(h_f <= h_y + tolerance),
        "assumption_violated": bool((off_diag > tolerance).any()),
        "tolerance": tolerance,
    }
