"""Rank-based comparison machinery: Friedman, Conover, adjustments, effects.

The in-package survival functions behind the p-values are validated here
against exact closed forms (chi-squared at df 1/2/4, Student t at df 1/2)
and against scipy's ``chdtrc`` / ``stdtr`` over a grid of degrees of
freedom and statistics, which is what licenses using them inside the
statistic-to-p mappings.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import chdtrc, stdtr
from scipy.stats import friedmanchisquare, rankdata
from scipy.stats import t as student_t

from spfp.errors import ConfigError, DataError
from spfp.evalstats import (
    BOOTSTRAP_BLOCK,
    RunMatrix,
    adjust,
    bootstrap_ci,
    cliffs_delta,
    conover_posthoc,
    friedman,
    midranks,
    win_tie_loss,
)
from spfp.evalstats import _chi2_sf, _dominance, _magnitude, _resample_counts, _t_sf
from spfp.seeding import BOOTSTRAP_STREAM, substream


def ordered_matrix(n=10, k=3):
    """Every block strictly ordered t1 < t2 < ... < tk."""
    base = np.arange(1, k + 1, dtype=np.float64)
    values = np.vstack([base + 10 * i for i in range(n)])
    return RunMatrix(values, [f"t{j}" for j in range(k)])


class TestRunMatrix:
    def test_valid(self):
        m = RunMatrix(np.ones((3, 2)), ["a", "b"])
        assert m.values.shape == (3, 2)

    @pytest.mark.parametrize(
        "values,names",
        [
            (np.ones(4), ["a"]),
            (np.ones((3, 1)), ["a"]),
            (np.ones((1, 3)), ["a", "b", "c"]),
            (np.ones((3, 2)), ["a"]),
            (np.ones((3, 2)), ["a", "a"]),
            (np.array([[1.0, np.nan], [0.0, 1.0]]), ["a", "b"]),
        ],
    )
    def test_invalid(self, values, names):
        with pytest.raises(DataError):
            RunMatrix(values, names)

    def test_non_finite_cell_is_located(self):
        values = np.ones((4, 3))
        values[2, 1] = np.inf
        with pytest.raises(DataError, match=r"non-finite cell in run row 3, model 'b'$"):
            RunMatrix(values, ["a", "b", "c"])


class TestSurvivalFunctionAccuracy:
    """Closed-form checks of the survival functions used for p-values."""

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.84, 10.0, 20.0])
    def test_chi2_closed_forms(self, x):
        assert_allclose(_chi2_sf(2, x), math.exp(-x / 2), rtol=1e-12)
        assert_allclose(_chi2_sf(1, x), math.erfc(math.sqrt(x / 2)), rtol=1e-12)
        assert_allclose(_chi2_sf(4, x), math.exp(-x / 2) * (1 + x / 2), rtol=1e-12)

    # The points below 1e-3 are where scipy's stdtr loses digits
    # (stdtr(1, -1e-8) is off by 3.1e-9 relative); the closed forms are exact.
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 7.0, 1e-8, 1e-6, 1e-4])
    def test_t_closed_forms(self, x):
        assert_allclose(_t_sf(1, x), 0.5 - math.atan(x) / math.pi, rtol=1e-12)
        assert_allclose(_t_sf(2, x), 0.5 * (1 - x / math.sqrt(2 + x * x)), rtol=1e-12)

    def test_zero_statistic(self):
        assert _chi2_sf(3, 0.0) == 1.0
        assert _t_sf(7, 0.0) == 0.5


class TestSurvivalFunctionGrid:
    """The survival functions against scipy at rtol 1e-10. Values below
    1e-300 are compared absolutely: there the float format itself holds
    fewer than 10 significant digits."""

    def test_chi2_matches_chdtrc(self):
        xs = np.concatenate([[0.0], np.geomspace(1e-3, 1500.0, 120), np.arange(1.0, 1501.0, 37.0)])
        for df in range(1, 100):
            got = np.array([_chi2_sf(df, float(x)) for x in xs])
            assert ((got >= 0.0) & (got <= 1.0)).all(), df
            assert_allclose(got, chdtrc(df, xs), rtol=1e-10, atol=1e-300, err_msg=f"df={df}")

    def test_t_matches_stdtr(self):
        ts = np.geomspace(1e-3, 1e5, 60)
        dfs = sorted(set(range(1, 41)) | {int(d) for d in np.geomspace(41, 2000, 40)})
        assert dfs[-1] == 2000
        for df in dfs:
            got = np.array([_t_sf(df, float(t)) for t in ts])
            assert ((got >= 0.0) & (got <= 0.5)).all(), df
            assert_allclose(got, stdtr(df, -ts), rtol=1e-10, atol=1e-300, err_msg=f"df={df}")

    @pytest.mark.parametrize("sf,df,stat", [
        (_chi2_sf, 2, 1e5),
        (_chi2_sf, 3, 1e6),
        (_chi2_sf, 99, 1e7),
        (_t_sf, 2000, 1e5),
        (_t_sf, 1, 1e200),  # t*t overflows to inf
    ], ids=["chi2_df2", "chi2_df3", "chi2_df99", "t_df2000", "t_squared_inf"])
    def test_underflow_is_zero(self, sf, df, stat):
        assert sf(df, stat) == 0.0

    @pytest.mark.parametrize("df", [800, 801])
    def test_series_past_float_range(self, df):
        # the series sums to about 1e331 before e^-1000 brings p to 1e-103
        assert_allclose(_chi2_sf(df, 2000.0), chdtrc(df, 2000.0), rtol=1e-10)


class TestMidranks:
    @pytest.mark.parametrize("seed", range(5))
    def test_equal_scipy_rankdata_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.normal(size=(9, 7)), 0)  # many ties
        assert np.array_equal(midranks(values, axis=1), rankdata(values, axis=1))
        assert np.array_equal(midranks(values[0]), rankdata(values[0]))
        assert np.array_equal(midranks(values.ravel()), rankdata(values.ravel()))

    def test_single_value_and_all_tied(self):
        assert midranks([5.0]).tolist() == [1.0]
        assert midranks([[2.0, 2.0, 2.0]], axis=1).tolist() == [[2.0, 2.0, 2.0]]

    @staticmethod
    def unique_ranks(values, axis):
        """The midranks of every slice along `axis` from np.unique's tie runs."""

        def ranks_1d(x):
            _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
            return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]

        return np.apply_along_axis(ranks_1d, axis, np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_equal_unique_reference_bitwise(self, seed, axis):
        rng = np.random.default_rng(seed)
        values = rng.integers(-3, 4, size=(11, 8)).astype(float)  # tie-heavy
        values[2] = 1.5  # an all-tied row
        values[:, 5] = -0.0
        values[::2, 5] = 0.0  # -0.0 ties 0.0
        got = midranks(values, axis=axis)
        expected = self.unique_ranks(values, axis)
        assert got.shape == values.shape
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
        column = values[:, :1]  # a single column
        assert midranks(column, axis=axis).tobytes() == self.unique_ranks(column, axis).tobytes()
        row = values[seed]
        assert midranks(row).tobytes() == self.unique_ranks(row, 0).tobytes()


class TestFriedman:
    def test_strictly_ordered_fixture(self):
        stat, p = friedman(ordered_matrix())
        assert_allclose(stat, 20.0, atol=1e-12)
        assert_allclose(p, math.exp(-10.0), rtol=1e-12)  # chi2 sf at df=2

    def test_fully_tied(self):
        m = RunMatrix(np.ones((5, 3)), ["a", "b", "c"])
        assert friedman(m) == (0.0, 1.0)

    def test_p_monotone_in_statistic(self):
        strong = ordered_matrix()
        weaker_vals = strong.values.copy()
        weaker_vals[0] = weaker_vals[0][::-1]
        weaker_vals[1] = weaker_vals[1][::-1]
        weak = RunMatrix(weaker_vals, strong.treatment_names)
        s1, p1 = friedman(strong)
        s2, p2 = friedman(weak)
        assert s2 < s1
        assert p2 > p1

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(12, 4))
        m = RunMatrix(values, ["a", "b", "c", "d"])
        stat, p = friedman(m)
        ref = friedmanchisquare(*[values[:, j] for j in range(4)])
        assert_allclose(stat, ref.statistic, atol=1e-10)
        assert_allclose(p, ref.pvalue, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_p_equals_chi2_sf(self, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.normal(size=(10, 4)), 1)
        stat, p = friedman(RunMatrix(values, list("abcd")))
        assert p == _chi2_sf(3, stat)

    def test_tie_corrected_hand_example(self):
        # ranks: block 1 -> (1.5, 1.5, 3), block 2 -> (1, 2, 3)
        values = np.array([[1.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
        m = RunMatrix(values, ["a", "b", "c"])
        stat, _ = friedman(m)
        assert_allclose(stat, 13.0 / 3.5, atol=1e-12)

    def test_rank_invariance(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(8, 3))
        m1 = RunMatrix(values, ["a", "b", "c"])
        transformed = np.exp(values) + np.arange(8)[:, None]  # per-block shift
        m2 = RunMatrix(transformed, ["a", "b", "c"])
        assert friedman(m1) == friedman(m2)


class TestConoverPosthoc:
    def test_identical_columns(self):
        col = np.arange(6, dtype=np.float64)
        m = RunMatrix(np.column_stack([col, col, col]), ["a", "b", "c"])
        assert np.array_equal(conover_posthoc(m), np.ones((3, 3)))

    def test_strictly_ordered_fixture_significant(self):
        # perfect ordering drives the pooled variance to zero: p collapses
        p = conover_posthoc(ordered_matrix())
        off = p[~np.eye(3, dtype=bool)]
        assert (off < 0.001).all()
        assert (off == 0.0).all()

    def test_matches_formula_recomputation(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(9, 4))
        m = RunMatrix(values, list("abcd"))
        got = conover_posthoc(m)

        ranks = rankdata(values, axis=1)
        sums = ranks.sum(axis=0)
        n, k = values.shape
        a2 = float((ranks**2).sum())
        c2 = n * k * (k + 1) ** 2 / 4.0
        t1 = (k - 1) * float(((sums - n * (k + 1) / 2) ** 2).sum()) / (a2 - c2)
        df = (n - 1) * (k - 1)
        se2 = 2 * n * (a2 - c2) * (1 - t1 / (n * (k - 1))) / df
        for i in range(k):
            for j in range(k):
                if i == j:
                    assert got[i, j] == 1.0
                    continue
                t_stat = abs(sums[i] - sums[j]) / math.sqrt(se2)
                expected = min(1.0, 2 * float(student_t.sf(t_stat, df)))
                assert_allclose(got[i, j], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_p_equals_t_sf(self, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.normal(size=(8, 4)), 1)
        got = conover_posthoc(RunMatrix(values, list("abcd")))
        ranks = rankdata(values, axis=1)
        sums = ranks.sum(axis=0)
        n, k = values.shape
        a2 = float((ranks**2).sum())
        c2 = n * k * (k + 1) ** 2 / 4.0
        t1 = (k - 1) * float(((sums - n * (k + 1) / 2.0) ** 2).sum()) / (a2 - c2)
        df = (n - 1) * (k - 1)
        se2 = 2.0 * n * (a2 - c2) * max(0.0, 1.0 - t1 / (n * (k - 1))) / df
        for i in range(k):
            for j in range(i + 1, k):
                t_stat = abs(float(sums[i] - sums[j])) / math.sqrt(se2)
                assert got[i, j] == min(1.0, 2.0 * _t_sf(df, t_stat))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        values = np.round(rng.normal(size=(7, 5)), 1)  # provoke ties
        p = conover_posthoc(RunMatrix(values, list("abcde")))
        assert np.array_equal(p, p.T)
        assert np.array_equal(np.diag(p), np.ones(5))


class TestAdjust:
    def test_single_p_identity(self):
        assert adjust([0.01], "bonferroni") == [0.01]
        assert adjust([0.01], "benjamini_hochberg") == [0.01]

    def test_bonferroni_example(self):
        assert_allclose(adjust([0.02, 0.03, 0.5], "bonferroni"), [0.06, 0.09, 1.0])

    def test_bh_flat_example(self):
        got = adjust([0.01, 0.02, 0.03, 0.04], "benjamini_hochberg")
        assert_allclose(got, [0.04, 0.04, 0.04, 0.04], atol=1e-15)

    def test_bh_step_up_hand_example(self):
        # sorted (0.005, 0.03, 0.04) -> scaled (0.015, 0.045, 0.04)
        # -> reverse cumulative min (0.015, 0.04, 0.04), mapped back
        got = adjust([0.005, 0.04, 0.03], "benjamini_hochberg")
        assert_allclose(got, [0.015, 0.04, 0.04], atol=1e-15)

    def test_order_preserved_under_permutation(self):
        rng = np.random.default_rng(4)
        p = rng.random(9)
        perm = rng.permutation(9)
        for method in ("bonferroni", "benjamini_hochberg"):
            base = np.asarray(adjust(p, method))
            shuffled = np.asarray(adjust(p[perm], method))
            assert_allclose(shuffled, base[perm], atol=1e-15)

    def test_dominance_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = rng.random(int(rng.integers(1, 12)))
            bonf = np.asarray(adjust(p, "bonferroni"))
            bh = np.asarray(adjust(p, "benjamini_hochberg"))
            assert (bonf >= p - 1e-15).all() and (bonf <= 1.0).all()
            assert (bh >= p - 1e-15).all() and (bh <= 1.0).all()
            assert (bh <= bonf + 1e-15).all()

    def test_errors(self):
        with pytest.raises(ConfigError):
            adjust([0.5, 1.2], "bonferroni")
        with pytest.raises(ConfigError):
            adjust([-0.1], "bonferroni")
        with pytest.raises(ConfigError):
            adjust([0.5], "holm")
        with pytest.raises(ConfigError):
            adjust([], "bonferroni")


class TestCliffsDelta:
    def test_identical_samples(self):
        assert cliffs_delta([3, 1, 2], [1, 2, 3]) == (0.0, "negligible")

    def test_complete_dominance(self):
        delta, mag = cliffs_delta([4, 5, 6], [1, 2, 3])
        assert delta == 1.0 and mag == "large"
        delta, mag = cliffs_delta([1, 2, 3], [4, 5, 6])
        assert delta == -1.0 and mag == "large"

    def test_two_element_tie_example(self):
        assert cliffs_delta([1, 2], [1, 2])[0] == 0.0

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.integers(0, 6, size=int(rng.integers(1, 15))).astype(float)
            b = rng.integers(0, 6, size=int(rng.integers(1, 15))).astype(float)
            got, _ = cliffs_delta(a, b)
            total = sum(
                1.0 if x > y else (-1.0 if x < y else 0.0) for x in a for y in b
            )
            assert_allclose(got, total / (a.size * b.size), atol=1e-15)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=20)
        b = rng.normal(size=15)
        assert cliffs_delta(a, b)[0] == -cliffs_delta(b, a)[0]

    def test_shift_monotonicity(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=25)
        b = rng.normal(size=25)
        base, _ = cliffs_delta(a, b)
        for c in (0.1, 0.5, 2.0):
            shifted, _ = cliffs_delta(a + c, b)
            assert shifted >= base

    def test_magnitude_bands(self):
        assert _magnitude(0.0) == "negligible"
        assert _magnitude(0.1469) == "negligible"
        assert _magnitude(0.147) == "small"
        assert _magnitude(0.3329) == "small"
        assert _magnitude(0.333) == "medium"
        assert _magnitude(0.4739) == "medium"
        assert _magnitude(0.474) == "large"
        assert _magnitude(-1.0) == "large"

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError):
            cliffs_delta([], [1.0])


class TestBootstrapCi:
    def test_deterministic(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(1, 1, 30), rng.normal(0, 1, 30)
        first = bootstrap_ci(a, b, replicates=500, seed=11)
        second = bootstrap_ci(a, b, replicates=500, seed=11)
        assert first == second
        third = bootstrap_ci(a, b, replicates=500, seed=12)
        assert first != third

    def test_separated_samples(self):
        rng = np.random.default_rng(10)
        a = rng.normal(10, 0.5, size=100)
        b = rng.normal(0, 0.5, size=100)
        lo, hi = bootstrap_ci(a, b, replicates=500, seed=0)
        assert lo >= 0.9
        assert hi <= 1.0

    def test_constant_equal_samples(self):
        lo, hi = bootstrap_ci([2.0] * 8, [2.0] * 8, replicates=200, seed=0)
        assert (lo, hi) == (0.0, 0.0)

    def test_interval_contains_point_estimate(self):
        rng = np.random.default_rng(11)
        hits = 0
        trials = 20
        for _ in range(trials):
            a = rng.normal(rng.normal(), 1, size=12)
            b = rng.normal(rng.normal(), 1, size=12)
            delta, _ = cliffs_delta(a, b)
            lo, hi = bootstrap_ci(a, b, replicates=2000, seed=int(rng.integers(1 << 16)))
            hits += lo - 1e-12 <= delta <= hi + 1e-12
        assert hits >= trials - 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            bootstrap_ci([1.0, 2.0], [1.0], replicates=50)
        with pytest.raises(ConfigError):
            bootstrap_ci([1.0, 2.0], [1.0], confidence=1.0)
        with pytest.raises(DataError):
            bootstrap_ci([], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            bootstrap_ci([1.0, bad], [1.0, 2.0])

    # (replicates - 1) * tail: 10.4 at 209 and 0.9, about 10 at 201 and
    # 0.9, exactly 25 at 101 and 0.5 (an order statistic, no interpolation)
    @pytest.mark.parametrize("replicates, confidence",
                             [(3 * BOOTSTRAP_BLOCK + 17, 0.9), (201, 0.9), (101, 0.5)])
    def test_equals_per_replicate_oracle(self, replicates, confidence):
        """Re-derive the interval from the documented stream contract with
        one cliffs_delta call per replicate."""
        rng = np.random.default_rng(13)
        a = rng.integers(0, 4, size=9).astype(float)  # ties within and across
        b = rng.integers(0, 4, size=14).astype(float)
        stream = substream(5, BOOTSTRAP_STREAM)
        deltas = []
        for start in range(0, replicates, BOOTSTRAP_BLOCK):
            m = min(BOOTSTRAP_BLOCK, replicates - start)
            ia = stream.integers(0, a.size, (m, a.size))
            ib = stream.integers(0, b.size, (m, b.size))
            deltas += [cliffs_delta(a[ia[r]], b[ib[r]])[0] for r in range(m)]
        tail = (1.0 - confidence) / 2.0
        lo, hi = np.quantile(deltas, [tail, 1.0 - tail])
        assert bootstrap_ci(a, b, replicates, confidence=confidence, seed=5) == (lo, hi)

    def test_memory_does_not_grow_with_replicates(self):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=200), rng.normal(size=200)
        bootstrap_ci(a, b, replicates=100)  # warm-up outside the trace
        tracemalloc.start()
        try:
            bootstrap_ci(a, b, replicates=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 0.8 MB here: the 10,000 deltas and one 64-replicate block's
        # count, running-count and gathered arrays; one block of per-replicate
        # sign matrices alone would take 20 MB
        assert peak < 2 * 2**20


class TestDominanceKernel:
    """The running-count kernel against the sign-matrix form it replaced,
    ``einsum("ri,ij,rj->r", wa, sign(a_i - b_j), wb)``, and against
    cliffs_delta on each replicate's resampled values."""

    @pytest.mark.parametrize("samples,b", [
        ([[0, 1, 1, 2, 3, 3, 3, 2, 0]], [1, 1, 0, 3, 3, 2, 4, 1, 1, 2, 0, 3]),  # ties
        ([[0, 1, 2, 2, 3, 1, 1], [3, 3, 0, 1, 2, 2, 0]], [2] * 3 + [1] * 7 + [0] * 30),
        ([[1.5]], [0.5, 1.5, 2.5, 1.5]),  # n = 1 on the sample side
        ([[0.5, 1.5, 2.5, 1.5], [1, 2, 3, 4]], [1.5]),  # n = 1 on the benchmark side
        ([[7.0] * 5, [6.0] * 5, [8.0] * 5], [7.0] * 6),  # constant samples
        ([np.linspace(-1, 1, 12)], np.linspace(-0.5, 1.5, 12)),  # no ties
    ])
    def test_equals_sign_matrix_and_cliffs_delta(self, samples, b):
        samples = np.asarray(samples, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        (k, n_a), n_b = samples.shape, b.size
        order = np.argsort(b)
        below = np.searchsorted(b[order], samples, side="left")
        not_above = np.searchsorted(b[order], samples, side="right")
        stream = substream(3, BOOTSTRAP_STREAM)
        ia = stream.integers(0, n_a, (BOOTSTRAP_BLOCK, n_a))
        ib = stream.integers(0, n_b, (BOOTSTRAP_BLOCK, n_b))
        wa, wb = _resample_counts(ia), _resample_counts(ib)
        assert (wa.sum(axis=1) == n_a).all() and (wb.sum(axis=1) == n_b).all()
        dominance = _dominance(wa, wb[:, order], below, not_above)
        assert dominance.shape == (BOOTSTRAP_BLOCK, k)
        assert dominance.dtype == np.int64
        for s, a in enumerate(samples):
            signs = np.sign(a[:, None] - b[None, :]).astype(np.int64)
            einsum = np.einsum("ri,ij,rj->r", wa, signs, wb)
            assert dominance[:, s].tolist() == einsum.tolist()
            for r in range(BOOTSTRAP_BLOCK):
                delta = cliffs_delta(a[ia[r]], b[ib[r]])[0]
                assert dominance[r, s] / (n_a * n_b) == delta


def dominance_matrix(n=30, better_by=1.0, names=("bench", "model")):
    rng = np.random.default_rng(12)
    base = rng.normal(size=n)
    return RunMatrix(
        np.column_stack([base, base + better_by]), list(names)
    )


class TestWinTieLoss:
    def test_identical_column_is_tie(self):
        rng = np.random.default_rng(13)
        col = rng.normal(size=10)
        m = RunMatrix(np.column_stack([col, col]), ["bench", "model"])
        table = win_tie_loss({"auc": m}, "bench", replicates=200)
        verdict = table["auc"]["model"]
        assert verdict.outcome == "tie"
        assert verdict.delta == 0.0

    def test_strict_dominance_is_win(self):
        m = dominance_matrix(better_by=8.0)
        table = win_tie_loss({"auc": m}, "bench", replicates=200)
        verdict = table["auc"]["model"]
        assert verdict.outcome == "win"
        assert verdict.delta == 1.0
        assert verdict.magnitude == "large"
        assert verdict.ci == (1.0, 1.0)

    def test_strictly_worse_is_loss(self):
        m = dominance_matrix(better_by=-8.0)
        table = win_tie_loss({"auc": m}, "bench", replicates=200)
        assert table["auc"]["model"].outcome == "loss"
        assert table["auc"]["model"].delta == -1.0

    def test_lower_is_better_orientation(self):
        rng = np.random.default_rng(14)
        base = rng.normal(size=30)
        values = np.column_stack([base, base - 8.0])  # model numerically lower everywhere
        m = RunMatrix(values, ["bench", "model"], higher_is_better=False)
        table = win_tie_loss({"log_loss": m}, "bench", replicates=200)
        assert table["log_loss"]["model"].outcome == "win"
        assert table["log_loss"]["model"].delta == 1.0

    def test_friedman_adjusted_across_metrics(self):
        strong = dominance_matrix(better_by=8.0)
        tied = RunMatrix(np.ones((30, 2)), ["bench", "model"])
        table = win_tie_loss({"m1": strong, "m2": tied}, "bench", replicates=200)
        raw = friedman(strong)[1]
        assert_allclose(table["m1"]["model"].p_friedman_adj, min(1.0, 2 * raw))
        assert table["m2"]["model"].outcome == "tie"
        assert table["m2"]["model"].p_friedman_adj == 1.0

    def test_conover_adjusted_within_metric(self):
        rng = np.random.default_rng(15)
        values = np.column_stack(
            [rng.normal(size=20), rng.normal(2, 1, 20), rng.normal(4, 1, 20),
             rng.normal(0.2, 1, 20)]
        )
        names = ["bench", "m1", "m2", "m3"]
        m = RunMatrix(values, names)
        table = win_tie_loss({"auc": m}, "bench", replicates=200)
        conover = conover_posthoc(m)
        expected = adjust([conover[i, 0] for i in (1, 2, 3)], "benjamini_hochberg")
        got = [table["auc"][f"m{i}"].p_conover_adj for i in (1, 2, 3)]
        assert_allclose(got, expected, atol=1e-15)

    def test_verdict_serialization(self):
        table = win_tie_loss({"auc": dominance_matrix()}, "bench", replicates=200)
        d = table["auc"]["model"].to_dict()
        assert set(d) == {
            "outcome", "delta", "magnitude", "ci", "p_friedman_adj", "p_conover_adj"
        }
        assert isinstance(d["ci"], list)

    def test_intervals_equal_separate_bootstrap_calls(self):
        """One draw per metric gives each model the interval of its own
        bootstrap_ci call, metric by metric, whatever the run count."""
        rng = np.random.default_rng(16)
        names = ["bench", "m1", "m2", "m3"]
        matrices = {
            "acc": RunMatrix(rng.normal(size=(12, 4)), names),
            "loss": RunMatrix(rng.integers(0, 3, (7, 4)).astype(float), names,
                              higher_is_better=False),  # ties, fewer runs
            "f1": RunMatrix(rng.normal(size=(30, 4)), names),
        }
        table = win_tie_loss(matrices, "bench", replicates=300, confidence=0.9, seed=4)
        for name, m in matrices.items():
            sign = 1.0 if m.higher_is_better else -1.0
            bench = sign * m.values[:, 0]
            for j in (1, 2, 3):
                expected = bootstrap_ci(sign * m.values[:, j], bench, 300, 0.9, 4)
                assert table[name][names[j]].ci == expected, (name, j)

    def test_errors(self):
        m = dominance_matrix()
        with pytest.raises(ConfigError, match="benchmark"):
            win_tie_loss({"auc": m}, "nope", replicates=200)
        with pytest.raises(ConfigError):
            win_tie_loss({}, "bench")
        with pytest.raises(ConfigError):
            win_tie_loss({"auc": m}, "bench", alpha=1.5)
