"""View construction: greedy selection, stopping criteria, removal bookkeeping.

The central test re-runs the greedy selection with a from-scratch oracle that
recomputes the objective and the stopping entropies per step through the
public information functions, never through the incremental sums or the pair
cache that the production path uses.
"""

import math
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spfp.dataset import CodedMatrix, Dataset, discretize
from spfp.errors import ConfigError, DataError
from spfp.infometrics import (
    PairCache,
    conditional_mutual_information,
    joint_entropy,
    mutual_information,
    pearson_abs,
)
from spfp.partitioning import (
    PoolDepletedError,
    SpfpConfig,
    View,
    ViewSet,
    conditional_independence_report,
    criteria_met,
    partition,
    relevance_vector,
    view_stats,
)


def make_dataset(features, target, names=None):
    features = np.asarray(features, dtype=np.float64)
    names = names or tuple(f"f{i}" for i in range(features.shape[1]))
    target = np.asarray(target, dtype=np.intp)
    classes = tuple(str(c) for c in range(int(target.max()) + 1))
    return Dataset(features=features, feature_names=tuple(names), target=target, class_names=classes)


def random_dataset(rng, n_rows, n_features, n_classes=2):
    X = rng.normal(size=(n_rows, n_features))
    # a couple of low-cardinality integer columns exercise the passthrough path
    for j in range(0, n_features, 3):
        X[:, j] = rng.integers(0, 3, size=n_rows)
    y = rng.integers(0, n_classes, size=n_rows)
    if np.unique(y).shape[0] < 2:
        y[0] = (y[0] + 1) % n_classes
    return make_dataset(X, y)


def oracle_entropy(*columns) -> float:
    counts = Counter(zip(*(np.asarray(c).tolist() for c in columns)))
    n = sum(counts.values())
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def oracle_greedy(coded, raw, target, n_f, tol=1e-9):
    """Greedy selection recomputing every term from scratch each step.

    Returns the selected features and each step's winning score."""
    cols = [coded.codes[:, j] for j in range(coded.n_columns)]
    h_f = joint_entropy(cols)
    h_fy = joint_entropy(cols + [target])
    pool = list(range(coded.n_columns))
    selected: list = []
    scores: list = []
    while pool:
        chosen = [cols[j] for j in selected]
        h_s = joint_entropy(chosen) if selected else 0.0
        h_sy = joint_entropy(chosen + [target])
        if len(selected) >= n_f and h_s >= h_f * (1 - tol) and h_sy >= h_fy * (1 - tol):
            break
        best, best_score = None, -math.inf
        for c in pool:
            score = pearson_abs(raw[:, c], target.astype(np.float64))
            score += mutual_information(cols[c], target)
            if selected:
                mi = sum(mutual_information(cols[s], cols[c]) for s in selected)
                cmi = sum(
                    conditional_mutual_information(cols[s], cols[c], target)
                    for s in selected
                )
                score += (cmi - mi) / len(selected)
            if score > best_score:  # strict: first maximum keeps lowest index
                best_score, best = score, c
        selected.append(best)
        scores.append(best_score)
        pool.remove(best)
    return selected, scores


class TestSpfpConfig:
    def test_defaults_valid(self):
        cfg = SpfpConfig()
        assert cfg.n_views == 5
        assert cfg.remove_fraction == 0.6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_views": 0},
            {"min_features": 0},
            {"min_features": -2},
            {"remove_fraction": -0.1},
            {"remove_fraction": 1.5},
            {"entropy_tolerance": 0.0},
            {"seed": -1},
            {"relevance_correlation": "spearman"},
            {"entropy_tolerance": 1.0},
            {"min_features": 1.5},
            {"bins": 1},
            {"discretizer": "kmeans"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SpfpConfig(**kwargs)

    def test_resolve_min_features(self):
        assert SpfpConfig(min_features=0.1).resolve_min_features(170) == 17
        assert SpfpConfig(min_features=0.1).resolve_min_features(5) == 1
        assert SpfpConfig(min_features=0.01).resolve_min_features(5) == 1
        assert SpfpConfig(min_features=7).resolve_min_features(100) == 7
        assert SpfpConfig(min_features=0.25).resolve_min_features(10) == 3  # ceil


class TestCriteriaMet:
    def test_identity_subset(self):
        rng = np.random.default_rng(1)
        d = random_dataset(rng, 30, 4)
        coded = discretize(d, bins=4)
        cols = [coded.codes[:, j] for j in range(4)]
        h_f = joint_entropy(cols)
        h_fy = joint_entropy(cols + [d.target])
        assert criteria_met(4, h_f, h_fy, h_f, h_fy, 2, 1e-9) == (True, True, True)

    def test_empty_subset(self):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, 30, 4)
        coded = discretize(d, bins=4)
        cols = [coded.codes[:, j] for j in range(4)]
        h_f = joint_entropy(cols)
        h_fy = joint_entropy(cols + [d.target])
        h_y = joint_entropy([d.target])
        assert criteria_met(0, 0.0, h_y, h_f, h_fy, 1, 1e-9) == (False, False, False)

    def test_duplicated_column(self):
        col = np.array([0, 1, 2, 0, 1, 2], dtype=np.intp)
        y = np.array([0, 0, 1, 1, 0, 1], dtype=np.intp)
        h_f = joint_entropy([col, col])
        h_fy = joint_entropy([col, col, y])
        h_s = joint_entropy([col])
        h_sy = joint_entropy([col, y])
        assert criteria_met(1, h_s, h_sy, h_f, h_fy, 1, 1e-9) == (True, True, True)


class TestBuildView:
    def test_target_copy_beats_constant(self):
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.intp)
        X = np.column_stack([y.astype(np.float64), np.full(8, 3.0)])
        d = make_dataset(X, y)
        vs = partition(d, SpfpConfig(n_views=1, min_features=1, remove_fraction=0.0))
        view = vs.views[0]
        assert view.feature_ids == [0]
        assert view.termination == "criteria_met"
        assert len(view.step_trace) == 1
        assert view.step_trace[0].criteria == (True, True, True)

    def test_pool_exhausted_selects_everything(self):
        # two independent informative bits; view 1 needs both, removal takes
        # one, so view 2's pool cannot reach H(F) and must exhaust
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=64)
        b = rng.integers(0, 2, size=64)
        y = (a ^ b).astype(np.intp)
        d = make_dataset(np.column_stack([a, b]).astype(np.float64), y)
        cfg = SpfpConfig(n_views=2, min_features=1, remove_fraction=0.5, seed=0)
        with pytest.warns(UserWarning, match="exhausted its pool"):
            vs = partition(d, cfg)
        assert vs.views[0].termination == "criteria_met"
        second = vs.views[1]
        assert second.termination == "pool_exhausted"
        remaining = set(range(2)) - set(vs.removed_log[0])
        assert set(second.feature_ids) == remaining

    def test_matches_oracle_on_random_datasets(self):
        rng = np.random.default_rng(2024)
        for trial in range(12):
            n_feat = int(rng.integers(3, 9))
            n_rows = int(rng.integers(20, 65))
            d = random_dataset(rng, n_rows, n_feat, n_classes=int(rng.integers(2, 4)))
            n_f = int(rng.integers(1, 4))
            cfg = SpfpConfig(
                n_views=1, min_features=n_f, remove_fraction=0.0, bins=4, seed=trial
            )
            vs = partition(d, cfg)
            coded = discretize(d, bins=4)
            expected, scores = oracle_greedy(coded, d.features, d.target, n_f)
            assert vs.views[0].feature_ids == expected, f"trial {trial}"
            assert_allclose(vs.views[0].scores, scores, rtol=0, atol=1e-9)


class TestPartition:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(30, 120), st.integers(4, 14),
           st.integers(1, 4), st.sampled_from([0.2, 0.6, 1.0]))
    def test_views_equal_full_sweeps_and_scores_stay_finite(self, seed, n, p, views, frac):
        # retired features left out of the sweeps and earlier winners' entries
        # read off their own sweeps: the same views and scores, bit for bit,
        # as counting every pair afresh, and no NaN entry reaches a score
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, n, p, n_classes=3)
        config = SpfpConfig(n_views=views, min_features=2, remove_fraction=frac)
        count = PairCache.winner_stats

        def full_sweep(cache, w):
            return count(PairCache(cache.columns.T, cache._cards, cache._target), w)

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # pools that run out
                try:
                    return partition(d, config)
                except PoolDepletedError as exc:
                    return exc.views, exc.removed_log

        def summary(result):
            if isinstance(result, ViewSet):
                result = result.views, result.removed_log
            views, removed = result
            return [(v.feature_ids, v.scores) for v in views], removed

        got = summary(run())
        with mock.patch.object(PairCache, "winner_stats", full_sweep):
            expected = summary(run())
        assert got == expected
        assert all(math.isfinite(s) for ids, scores in got[0] for s in scores)

    def test_no_removal_repeats_identical_views(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 50, 6)
        vs = partition(d, SpfpConfig(n_views=3, min_features=1, remove_fraction=0.0))
        first = vs.views[0].feature_ids
        for v in vs.views[1:]:
            assert v.feature_ids == first
        assert vs.removed_log == [[], [], []]
        assert vs.intersection_ids == sorted(first)

    def test_full_removal_gives_disjoint_views(self):
        # three redundant copies of each of three bits, target = the full
        # 8-way bit combination: every view needs one copy per bit, already
        # selected bits make further copies worthless, and full removal
        # forbids reuse, so the three views tile the nine columns
        combos = np.array([[b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(8)])
        base = np.repeat(combos, 8, axis=0).astype(np.float64)
        X = np.column_stack([base, base, base])
        y = (base[:, 0] * 4 + base[:, 1] * 2 + base[:, 2]).astype(np.intp)
        d = make_dataset(X, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vs = partition(d, SpfpConfig(n_views=3, min_features=1, remove_fraction=1.0))
        sets = [set(v.feature_ids) for v in vs.views]
        for a in range(3):
            for b in range(a + 1, 3):
                assert not sets[a] & sets[b]
        # r=1 removes exactly the selected features of each view
        for view, removed in zip(vs.views, vs.removed_log):
            assert removed == sorted(view.feature_ids)
        assert vs.views[0].termination == "criteria_met"
        assert vs.intersection_size == 0

    def test_pool_depleted_error_carries_partial_result(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 2, size=64)
        b = rng.integers(0, 2, size=64)
        d = make_dataset(np.column_stack([a, b]).astype(np.float64), (a ^ b).astype(np.intp))
        cfg = SpfpConfig(n_views=3, min_features=1, remove_fraction=1.0)
        with pytest.raises(PoolDepletedError, match="after 1 of 3 views") as info:
            partition(d, cfg)
        assert len(info.value.views) == 1
        assert len(info.value.removed_log) == 1
        assert sorted(info.value.removed_log[0]) == sorted(info.value.views[0].feature_ids)

    def test_min_features_larger_than_feature_count(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, 30, 4)
        with pytest.raises(ConfigError, match="min_features"):
            partition(d, SpfpConfig(n_views=1, min_features=10))

    def test_removal_accounting(self):
        rng = np.random.default_rng(10)
        d = random_dataset(rng, 80, 12)
        cfg = SpfpConfig(n_views=3, min_features=1, remove_fraction=0.6, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vs = partition(d, cfg)
        available = set(range(12))
        for view, removed in zip(vs.views, vs.removed_log):
            assert set(view.feature_ids) <= available
            assert len(set(view.feature_ids)) == len(view.feature_ids)
            expected_n = int(math.floor(0.6 * len(view) + 0.5))
            assert len(removed) == expected_n
            assert set(removed) <= set(view.feature_ids)
            available -= set(removed)

    def test_determinism_and_seed_sensitivity(self):
        rng = np.random.default_rng(11)
        d = random_dataset(rng, 60, 10)
        cfg = SpfpConfig(n_views=2, min_features=1, remove_fraction=0.5, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = partition(d, cfg)
            b = partition(d, cfg)
        assert [v.feature_ids for v in a.views] == [v.feature_ids for v in b.views]
        assert a.removed_log == b.removed_log
        assert [v.scores for v in a.views] == [v.scores for v in b.views]
        # the greedy pass is data-driven, so a new seed can only show up in
        # the removal draws; some nearby seed must draw a different subset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            others = [
                partition(d, SpfpConfig(n_views=2, min_features=1,
                                        remove_fraction=0.5, seed=s)).removed_log
                for s in (8, 9, 10)
            ]
        assert any(log != a.removed_log for log in others)

    def test_criteria_soundness_and_monotonicity(self):
        rng = np.random.default_rng(12)
        d = random_dataset(rng, 64, 7, n_classes=3)
        cfg = SpfpConfig(n_views=2, min_features=2, remove_fraction=0.4, bins=4, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                vs = partition(d, cfg)
            except PoolDepletedError as exc:  # pragma: no cover - seed dependent
                vs = ViewSet(exc.views, exc.removed_log, [], 0.0, 0.0, 7)
        coded = discretize(d, bins=4)
        cols = [coded.codes[:, j] for j in range(7)]
        h_f = joint_entropy(cols)
        h_fy = joint_entropy(cols + [d.target])
        n_f = cfg.resolve_min_features(7)
        for view in vs.views:
            prev_s, prev_sy = 0.0, 0.0
            for k in range(1, len(view) + 1):
                chosen = [cols[j] for j in view.feature_ids[:k]]
                h_s = joint_entropy(chosen)
                h_sy = joint_entropy(chosen + [d.target])
                assert h_s >= prev_s - 1e-12
                assert h_sy >= prev_sy - 1e-12
                prev_s, prev_sy = h_s, h_sy
            assert_allclose(view.h_s, prev_s, rtol=0, atol=1e-9)
            assert_allclose(view.h_sy, prev_sy, rtol=0, atol=1e-9)
            assert view.h_s <= h_f + 1e-9
            assert view.h_sy <= h_fy + 1e-9
            if view.termination == "criteria_met":
                flags = criteria_met(len(view), prev_s, prev_sy, h_f, h_fy, n_f, 1e-9)
                assert all(flags)

    def test_duplicate_columns_collapse_to_single_feature(self):
        y = np.array([0, 1, 1, 0, 0, 1, 0, 1], dtype=np.intp)
        col = y.astype(np.float64)
        d = make_dataset(np.column_stack([col, col, col, col]), y)
        vs = partition(d, SpfpConfig(n_views=1, min_features=1, remove_fraction=0.0))
        assert vs.views[0].feature_ids == [0]
        assert vs.views[0].termination == "criteria_met"


def make_viewset(id_lists, n_features):
    views = [
        View(feature_ids=list(ids), scores=[0.0] * len(ids), h_s=0.0, h_sy=0.0,
             termination="criteria_met")
        for ids in id_lists
    ]
    return ViewSet(
        views=views,
        removed_log=[[] for _ in id_lists],
        elapsed=[0.0] * len(id_lists),
        h_f=0.0,
        h_fy=0.0,
        n_features=n_features,
    )


class TestNarrowCodes:
    def test_views_equal_those_of_intp_codes(self):
        # uint8 codes at 64 bins and 20 classes, where a (f_w, Y) key built
        # in uint8 would wrap (63 * 20 = 1260)
        rng = np.random.default_rng(20)
        n = 1000
        y = np.arange(n) % 20
        d = make_dataset(rng.normal(size=(n, 12)) + (y[:, None] % 3) * 0.5, y)
        cfg = SpfpConfig(n_views=3, min_features=3, bins=64)
        coded = discretize(d, cfg.bins)
        assert coded.codes.dtype == np.uint8
        wide = CodedMatrix(coded.codes.astype(np.intp), coded.cardinalities)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # views may exhaust their pools
            got, expected = partition(d, cfg, coded), partition(d, cfg, wide)
        assert [v.feature_ids for v in got.views] == [v.feature_ids for v in expected.views]
        assert [v.scores for v in got.views] == [v.scores for v in expected.views]
        assert (got.h_f, got.h_fy) == (expected.h_f, expected.h_fy)

    def test_peak_memory_at_the_wide_benchmark_shape(self):
        # 2,010 x 150, 10 classes: the codes in uint8, the table centred once
        # and squared in place, and key blocks of _SWEEP_BLOCK elements peak
        # at 2.7 MiB (3.75 MiB while discretize coded column by column, whose
        # small arrays numpy's allocation cache kept); intp codes, their intp
        # copy and whole-table keys took 8.0 MiB.
        rng = np.random.default_rng(0)
        d = make_dataset(rng.normal(size=(2010, 150)), rng.integers(0, 10, size=2010))
        tracemalloc.start()
        try:
            partition(d, SpfpConfig(), discretize(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestRelevance:
    def test_overflowing_squares_keep_the_correlation(self):
        rng = np.random.default_rng(47)
        y = rng.integers(0, 3, size=200)
        x = y + rng.normal(size=200)
        features = np.column_stack([x, x * 1e160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = relevance_vector(features, y, 3)
        assert_allclose(r[0], pearson_abs(x, y), rtol=0, atol=1e-12)
        assert_allclose(r[1], r[0], rtol=0, atol=1e-12)
        assert r[0] > 0.5

    @pytest.mark.parametrize("mode", ["codes", "max_ovr"])
    @pytest.mark.parametrize("scale", [1e306, -1e306, 1e307])
    def test_overflowing_mean_keeps_the_correlation(self, mode, scale):
        # the column sum overflows: the mean used to be inf and r NaN, which
        # np.argmax in build_view then picked
        rng = np.random.default_rng(47)
        y = rng.integers(0, 3, size=200)
        x = y + rng.normal(size=200)
        features = np.column_stack([x * scale, x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = relevance_vector(features, y, 3, mode)
        assert_allclose(r[0], r[1], rtol=0, atol=1e-12)
        assert r[1] > 0.5


class TestNonFiniteFeature:
    def test_nan_cell_fails_before_selection(self):
        # a NaN in a pure-noise column used to score NaN, win the first
        # step and end up a one-code column in the view
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 6))
        y = (X[:, 0] + X[:, 1] > 0).astype(np.intp)
        X[17, 4] = np.nan
        d = make_dataset(X, y)
        with pytest.raises(DataError, match="column 'f4' holds a non-finite value at row index 17"):
            partition(d, SpfpConfig(n_views=1, seed=0))


class TestViewStats:
    def test_identical_views(self):
        vs = make_viewset([[0, 1, 2], [0, 1, 2]], 6)
        stats = view_stats(vs)
        assert stats["view_sizes"] == [3, 3]
        assert stats["union_size"] == 3
        assert stats["intersection_size"] == 3
        assert stats["overlap"] == [[3, 3], [3, 3]]

    def test_disjoint_views(self):
        vs = make_viewset([[0, 1, 2], [3, 4, 5, 6]], 10)
        stats = view_stats(vs)
        assert stats["union_size"] == 7
        assert stats["intersection_size"] == 0
        assert stats["overlap"][0][1] == 0

    def test_chain_example(self):
        vs = make_viewset([[1, 2], [2, 3], [3, 4]], 5)
        stats = view_stats(vs)
        assert stats["union_size"] == 4
        assert stats["intersection_size"] == 0
        assert stats["overlap"][0][1] == 1
        assert stats["overlap"][0][2] == 0
        assert stats["overlap"][1][2] == 1
        assert stats["view_ratios"] == [0.4, 0.4, 0.4]

    def test_empty_viewset_rejected(self):
        vs = make_viewset([], 5)
        with pytest.raises(ConfigError):
            view_stats(vs)


class TestConditionalIndependenceReport:
    def test_identical_views_self_cmi(self):
        rng = np.random.default_rng(13)
        d = random_dataset(rng, 40, 4)
        coded = discretize(d, bins=4)
        report = conditional_independence_report([[0, 1], [0, 1]], coded, d.target)
        h_view_given_y = oracle_entropy(
            coded.codes[:, 0], coded.codes[:, 1], d.target
        ) - oracle_entropy(d.target)
        assert_allclose(report["pairwise_cmi"][0][1], h_view_given_y, atol=1e-9)
        assert_allclose(report["pairwise_cmi"][1][0], h_view_given_y, atol=1e-9)

    def test_target_determines_features(self):
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2], dtype=np.intp)
        X = np.column_stack([y, (y + 1) % 3]).astype(np.float64)
        d = make_dataset(X, y)
        coded = discretize(d, bins=5)
        report = conditional_independence_report([[0], [1]], coded, d.target)
        assert_allclose(report["pairwise_cmi"], np.zeros((2, 2)), atol=1e-12)
        assert report["h_f_le_h_y"] is True
        assert report["assumption_violated"] is False

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(14)
        d = random_dataset(rng, 48, 6, n_classes=3)
        coded = discretize(d, bins=3)
        report = conditional_independence_report([[0, 1, 2], [3, 4, 5]], coded, d.target)
        a = [coded.codes[:, j] for j in (0, 1, 2)]
        b = [coded.codes[:, j] for j in (3, 4, 5)]
        y = d.target
        expected = max(
            0.0,
            oracle_entropy(*a, y) + oracle_entropy(*b, y)
            - oracle_entropy(*a, *b, y) - oracle_entropy(y),
        )
        assert_allclose(report["pairwise_cmi"][0][1], expected, atol=1e-9)
        assert_allclose(report["h_f"], oracle_entropy(*a, *b), atol=1e-9)
        assert_allclose(report["h_y"], oracle_entropy(y), atol=1e-9)
        assert report["h_f_le_h_y"] == (report["h_f"] <= report["h_y"] + 1e-9)

    def test_requires_two_views(self):
        rng = np.random.default_rng(15)
        d = random_dataset(rng, 20, 3)
        coded = discretize(d, bins=3)
        with pytest.raises(ConfigError):
            conditional_independence_report([[0, 1]], coded, d.target)
