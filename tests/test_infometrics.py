"""Estimator correctness against brute-force oracles and hand-derived values."""

import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    interaction_gain,
    joint_entropy,
    mutual_information,
    pearson_abs,
)
from spfp.dataset import Dataset, discretize
from spfp.infometrics import PairCache, RowPartition, _entropies


def oracle_entropy(*columns):
    """Dictionary-counting plug-in entropy, independent of the package."""
    tuples = list(zip(*columns))
    n = len(tuples)
    return -sum(c / n * math.log2(c / n) for c in Counter(tuples).values())


@dataclass
class FrequencyTable:
    """Occurrence counts of joint values over coded columns, counted with
    np.unique apart from RowPartition: a second entropy path.

    `counts` maps the joint-value key (a code, or a tuple for several
    columns) to its number of occurrences; `total` is the row count.
    """

    counts: dict
    total: int

    @classmethod
    def from_codes(cls, *columns) -> "FrequencyTable":
        stacked = np.stack([np.asarray(c) for c in columns], axis=1)
        values, cnt = np.unique(stacked, axis=0, return_counts=True)
        keys = [tuple(int(v) for v in row) for row in values]
        if len(columns) == 1:
            keys = [k[0] for k in keys]
        return cls(counts=dict(zip(keys, cnt.tolist())), total=stacked.shape[0])

    def entropy(self) -> float:
        p = np.fromiter(self.counts.values(), dtype=np.float64) / self.total
        return float(-(p * np.log2(p)).sum())


def random_codes(rng, n, card):
    return rng.integers(0, card, size=n)


class TestEntropy:
    def test_three_one_counts(self):
        assert_allclose(entropy(np.array([0, 0, 0, 1])), 0.8112781244591328, atol=1e-12)

    def test_uniform_four(self):
        assert_allclose(entropy(np.array([0, 1, 2, 3])), 2.0, atol=1e-12)

    def test_constant_is_zero(self):
        assert entropy(np.zeros(17, dtype=int)) == 0.0

    def test_matches_oracle_on_random_columns(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            col = random_codes(rng, int(rng.integers(1, 64)), int(rng.integers(1, 6)))
            assert_allclose(entropy(col), oracle_entropy(col), atol=1e-12)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            entropy(np.array([], dtype=int))
        with pytest.raises(ValueError):
            entropy(np.array([0, -1]))
        with pytest.raises(ValueError):
            entropy(np.zeros((2, 2), dtype=int))


count_rows = st.lists(st.integers(0, 60), min_size=1, max_size=30).filter(any)


def row_entropy(row) -> float:
    """`_entropies` of one count row, called as a one-row table."""
    return _entropies(np.array([row]))[0]


class TestEntropies:
    """The plug-in entropy is a function of a row's count multiset alone."""

    @settings(max_examples=100, deadline=None)
    @given(row=count_rows, data=st.data())
    def test_equal_under_permutation(self, row, data):
        assert row_entropy(data.draw(st.permutations(row))) == row_entropy(row)

    @settings(max_examples=100, deadline=None)
    @given(row=count_rows, extra=st.integers(1, 200))
    def test_equal_with_empty_cells_appended(self, row, extra):
        # enough empty cells move a row from the sparse to the dense profile count
        assert row_entropy(row + [0] * extra) == row_entropy(row)

    @settings(max_examples=100, deadline=None)
    @given(row=count_rows, data=st.data())
    def test_equal_beside_a_larger_maximum(self, row, data):
        row = row + [0] * max(row)  # alone: max(row) + 1 <= width, the dense count
        width = len(row)
        big = data.draw(st.integers(width, 10 * width))  # > width: the sparse count
        other = data.draw(st.permutations([big] + [0] * (width - 1)))
        table = np.array([other, row, other])
        assert _entropies(table)[1] == row_entropy(row)
        assert_allclose(row_entropy(row), oracle_entropy(np.repeat(np.arange(width), row)),
                        atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(count_rows, min_size=2, max_size=8))
    def test_one_row_call_equals_row_in_table(self, rows):
        width = max(len(r) for r in rows)
        table = np.array([r + [0] * (width - len(r)) for r in rows])
        whole = _entropies(table)
        for i, row in enumerate(rows):
            assert whole[i] == row_entropy(row)


class TestJointEntropy:
    def test_hand_example(self):
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 1, 1])
        assert_allclose(joint_entropy([x, y]), 1.5, atol=1e-12)

    def test_matches_oracle_multi_column(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(2, 48))
            cols = [random_codes(rng, n, int(rng.integers(1, 5))) for _ in range(int(rng.integers(1, 5)))]
            assert_allclose(joint_entropy(cols), oracle_entropy(*cols), atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            joint_entropy([np.array([0, 1]), np.array([0, 1, 2])])

    def test_no_columns(self):
        with pytest.raises(ValueError):
            joint_entropy([])


class TestConditionalAndMutual:
    def test_conditional_entropy_hand_example(self):
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 1, 1])
        assert_allclose(conditional_entropy(x, y), 0.6887218755408672, atol=1e-12)

    def test_mi_hand_example(self):
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 1, 1])
        assert_allclose(mutual_information(x, y), 0.3112781244591328, atol=1e-12)

    def test_mi_symmetric_and_bounded(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            x = random_codes(rng, n, 4)
            y = random_codes(rng, n, 3)
            mi = mutual_information(x, y)
            assert mi == mutual_information(y, x)
            assert 0.0 <= mi <= min(entropy(x), entropy(y)) + 1e-12

    def test_self_information(self):
        x = np.array([0, 1, 2, 0, 1, 2])
        assert_allclose(mutual_information(x, x), entropy(x), atol=1e-12)

    def test_cmi_symmetric_in_first_two_args(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            n = int(rng.integers(3, 64))
            x = rng.integers(0, 4, size=n)
            y = rng.integers(0, 3, size=n)
            z = rng.integers(0, 2, size=n)
            assert conditional_mutual_information(x, y, z) == conditional_mutual_information(y, x, z)

    def test_independent_variables_near_zero(self):
        # product design: exactly independent empirical distribution
        x = np.repeat([0, 1], 8)
        y = np.tile([0, 1], 8)
        assert_allclose(mutual_information(x, y), 0.0, atol=1e-12)


class TestCmiAndInteraction:
    def test_xor_cmi_exact(self):
        x1 = np.array([0, 0, 1, 1])
        x2 = np.array([0, 1, 0, 1])
        assert_allclose(conditional_mutual_information(x1, x2, x1 ^ x2), 1.0, atol=1e-12)

    def test_xor_interaction_gain(self):
        x1 = np.array([0, 0, 1, 1])
        x2 = np.array([0, 1, 0, 1])
        assert_allclose(interaction_gain(x1, x2, x1 ^ x2), -1.0, atol=1e-12)

    def test_redundant_pair_positive_gain(self):
        # x thrice: conditioning on z=x removes all shared information
        x = np.array([0, 1, 0, 1, 1, 0])
        assert interaction_gain(x, x, x) > 0.9

    def test_cmi_chain_rule(self):
        """I(X;Y,Z) = I(X;Z) + I(X;Y|Z) on random data."""
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = int(rng.integers(4, 64))
            x = random_codes(rng, n, 3)
            y = random_codes(rng, n, 3)
            z = random_codes(rng, n, 2)
            yz = y * 2 + z
            lhs = mutual_information(x, yz)
            rhs = mutual_information(x, z) + conditional_mutual_information(x, y, z)
            assert_allclose(lhs, rhs, atol=1e-9)

    def test_cmi_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            n = int(rng.integers(3, 48))
            x = random_codes(rng, n, 3)
            y = random_codes(rng, n, 3)
            z = random_codes(rng, n, 2)
            expected = (
                oracle_entropy(x, z)
                + oracle_entropy(y, z)
                - oracle_entropy(x, y, z)
                - oracle_entropy(z)
            )
            got = conditional_mutual_information(x, y, z)
            assert_allclose(got, max(0.0, expected), atol=1e-9)


class TestPearsonAbs:
    def test_perfect_linear(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert_allclose(pearson_abs(x, 2 * x + 1), 1.0, atol=1e-12)
        assert_allclose(pearson_abs(x, -3 * x), 1.0, atol=1e-12)

    def test_zero_variance(self):
        assert pearson_abs(np.ones(5), np.arange(5.0)) == 0.0

    def test_matches_numpy(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            x = rng.normal(size=20)
            y = rng.normal(size=20)
            assert_allclose(pearson_abs(x, y), abs(np.corrcoef(x, y)[0, 1]), atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson_abs(np.arange(3.0), np.arange(4.0))
        with pytest.raises(ValueError):
            pearson_abs(np.array([1.0]), np.array([2.0]))


class TestRowPartition:
    def test_refine_matches_from_scratch(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(2, 64))
            cols = [random_codes(rng, n, int(rng.integers(1, 5))) for _ in range(4)]
            incremental = RowPartition.trivial(n)
            for col in cols:
                incremental = incremental.refine(col)
            assert_allclose(incremental.entropy(), oracle_entropy(*cols), atol=1e-9)
            assert incremental.group_sizes.sum() == n

    def test_group_ids_dense(self):
        part = RowPartition.from_columns([np.array([5, 5, 9, 9, 5])])
        assert part.n_groups == 2
        assert set(part.group_id.tolist()) == {0, 1}

    def test_trivial_entropy_zero(self):
        assert RowPartition.trivial(10).entropy() == 0.0

    def test_refinement_never_decreases_entropy(self):
        rng = np.random.default_rng(88)
        part = RowPartition.trivial(40)
        h_prev = 0.0
        for _ in range(6):
            part = part.refine(random_codes(rng, 40, 3))
            h = part.entropy()
            assert h >= h_prev - 1e-12
            h_prev = h

    def test_singletons_refine_to_themselves(self):
        part = RowPartition.from_columns([np.array([3, 0, 2, 1])])
        assert part.refine(np.array([1, 1, 0, 0])) is part

    @staticmethod
    def dense_refine(part, codes):
        """The bincount recode over all n_groups x card cells."""
        card = int(codes.max()) + 1
        key = part.group_id * card + codes
        counts = np.bincount(key, minlength=part.n_groups * card)
        occupied = np.flatnonzero(counts)
        remap = np.zeros(part.n_groups * card, dtype=np.intp)
        remap[occupied] = np.arange(occupied.shape[0])
        return remap[key], occupied.shape[0], counts[occupied]

    def test_sparse_recode_equals_dense(self):
        rng = np.random.default_rng(5)
        for card in (2, 40, 400):  # dense and sparse key ranges
            part = RowPartition.from_columns([random_codes(rng, 200, 7)])
            codes = random_codes(rng, 200, card)
            refined = part.refine(codes)
            group_id, n_groups, sizes = self.dense_refine(part, codes)
            assert np.array_equal(refined.group_id, group_id)
            assert refined.n_groups == n_groups
            assert np.array_equal(refined.group_sizes, sizes)

    @pytest.mark.parametrize("past", [False, True], ids=["dense", "sorted"])
    def test_paths_agree_at_the_dense_bound(self, monkeypatch, past):
        # n_groups * card on either side of the 2^16 cells refine counts
        # densely when the rows are fewer
        rng = np.random.default_rng(7)
        n = 3000
        part = RowPartition.from_columns([random_codes(rng, n, 500)])
        card = (1 << 16) // part.n_groups + past
        codes = random_codes(rng, n, card)
        codes[0] = card - 1
        assert (part.n_groups * card > 1 << 16) == past
        sorts = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
        refined = part.refine(codes.astype(np.uint16))
        monkeypatch.undo()
        assert bool(sorts) == past
        group_id, n_groups, sizes = self.dense_refine(part, codes)
        assert np.array_equal(refined.group_id, group_id)
        assert refined.n_groups == n_groups
        assert np.array_equal(refined.group_sizes, sizes)

    def test_high_cardinality_refine_stays_small(self):
        # 15k groups x 30k codes would be 4.5e8 dense cells (3.6 GB of counts).
        n = 30_000
        part = RowPartition.from_columns([np.arange(n) // 2])
        codes = np.random.default_rng(6).permutation(n)
        tracemalloc.start()
        try:
            refined = part.refine(codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refined.n_groups == n
        assert peak < 32 * 2**20


class TestFrequencyTable:
    def test_counts_single_column(self):
        table = FrequencyTable.from_codes(np.array([0, 0, 2, 2, 2]))
        assert table.counts == {0: 2, 2: 3}
        assert table.total == 5

    def test_joint_counts_and_entropy(self):
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 1, 1])
        table = FrequencyTable.from_codes(x, y)
        assert table.counts == {(0, 0): 1, (0, 1): 1, (1, 1): 2}
        assert_allclose(table.entropy(), 1.5, atol=1e-12)


class TestPairCache:
    def _make(self, rng, n=48, spans=(4,) * 6):
        codes = rng.integers(0, spans, size=(n, len(spans)))
        target = rng.integers(0, 3, size=n)
        return PairCache(codes, target), codes, target

    def test_matches_public_functions(self):
        rng = np.random.default_rng(99)
        # columns spanning 2, 5 and 2 codes: the layout a cardinality given
        # apart from the codes (say 2, 4, 2) would miscount
        for cache, codes, target in [self._make(rng), self._make(rng, 300, (2, 5, 2))]:
            for i in range(codes.shape[1]):
                assert_allclose(cache.mi_y[i], mutual_information(codes[:, i], target),
                                atol=1e-12)
                mi, cmi = cache.winner_stats(i)
                for j in range(codes.shape[1]):
                    assert_allclose(mi[j], mutual_information(codes[:, i], codes[:, j]),
                                    atol=1e-12)
                    assert_allclose(
                        cmi[j],
                        conditional_mutual_information(codes[:, i], codes[:, j], target),
                        atol=1e-12,
                    )

    @pytest.mark.parametrize("bins,n_classes", [(4, 3), (10, 10), (64, 20)])
    def test_winner_stats_equal_pair_stats(self, bins, n_classes):
        # bit for bit against the per-pair public functions, over code and
        # class counts that change the sweep's chunking, with constant and
        # binary columns among the features
        rng = np.random.default_rng(bins + n_classes)
        n, d = 600, 12
        codes = rng.integers(0, bins, size=(n, d))
        codes[:, 3] = 0  # constant columns
        codes[:, 7] = 0
        codes[:, 5] = rng.integers(0, 2, size=n)
        codes = np.stack([np.unique(c, return_inverse=True)[1] for c in codes.T], axis=1)
        target = np.unique(rng.integers(0, n_classes, size=n), return_inverse=True)[1]
        cache = PairCache(codes, target)
        for w in range(d):
            mi, cmi = cache.winner_stats(w)
            for c in range(d):
                assert mi[c] == mutual_information(codes[:, w], codes[:, c])
                assert cmi[c] == conditional_mutual_information(codes[:, w], codes[:, c], target)

    def test_narrow_codes_equal_intp_codes(self):
        # uint8 codes at 64 bins and 20 classes: a (f_w, Y) key built in
        # uint8 would wrap (63 * 20 = 1260)
        rng = np.random.default_rng(64)
        n, d = 800, 10
        target = np.arange(n) % 20
        X = rng.normal(size=(n, d)) + target[:, None] * 0.1
        codes = discretize(Dataset(X, tuple(map(str, range(d))), target,
                                   tuple(map(str, range(20)))), bins=64)
        assert codes.dtype == np.uint8
        narrow = PairCache(codes, target)
        wide = PairCache(codes.astype(np.intp), target)
        assert narrow.columns.dtype == np.uint8
        assert np.array_equal(narrow.mi_y, wide.mi_y)
        for w in range(d):
            for got, expected in zip(narrow.winner_stats(w), wide.winner_stats(w)):
                assert np.array_equal(got, expected)

    def test_mi_with_target(self):
        # bit for bit against the free function, one entry per feature
        rng = np.random.default_rng(100)
        cache, codes, target = self._make(rng)
        expected = [mutual_information(codes[:, i], target) for i in range(codes.shape[1])]
        assert cache.mi_y.tolist() == expected

    def test_winner_stats_memoised_and_counted(self):
        rng = np.random.default_rng(3)
        cache, codes, _ = self._make(rng, n=64, spans=(4,) * 8)
        first = cache.winner_stats(2)
        assert cache.winner_stats(2) is first
        assert (cache.sweeps, cache.memo_hits, len(cache)) == (1, 1, 8)
        # 2 was swept already: its entry for 5 is read, not counted
        cache.winner_stats(5)
        assert (cache.sweeps, len(cache)) == (2, 15)
        # retired features are neither counted nor reported
        cache.retire([0, 7])
        mi, cmi = cache.winner_stats(6)
        assert (cache.sweeps, len(cache)) == (3, 19)
        assert np.isnan(mi[[0, 7]]).all() and np.isnan(cmi[[0, 7]]).all()
        assert not np.isnan(mi[1:7]).any() and not np.isnan(cmi[1:7]).any()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 90), st.integers(1, 10),
           st.sampled_from([2, 4, 10]), st.data())
    def test_retired_and_symmetric_fills_equal_full_sweeps(self, seed, n, d, bins, data):
        # Retire features and sweep winners in any order: every live entry
        # equals what a fresh cache counts, bit for bit, and only the live
        # features no earlier sweep covered are counted.
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, bins, size=(n, d))
        codes[:, rng.random(d) < 0.2] = 0  # constant columns
        codes = np.stack([np.unique(c, return_inverse=True)[1] for c in codes.T], axis=1)
        target = np.unique(rng.integers(0, 3, size=n), return_inverse=True)[1]
        cache = PairCache(codes.astype(np.uint8), target)
        live = np.ones(d, dtype=bool)
        swept: list[int] = []
        counted = 0
        steps = data.draw(st.lists(st.one_of(
            st.tuples(st.just("retire"), st.lists(st.integers(0, d - 1), max_size=3)),
            st.tuples(st.just("sweep"), st.integers(0, d - 1))), max_size=3 * d))
        for op, arg in steps:
            if op == "retire":
                cache.retire(arg)
                live[arg] = False
                continue
            mi, cmi = cache.winner_stats(arg)
            if arg not in swept:
                # a retired winner's entries were not counted by earlier sweeps
                filled = sum(live[c] for c in swept) if live[arg] else 0
                counted += int(live.sum()) - filled
                swept.append(arg)
                assert np.isnan(mi[~live]).all() and np.isnan(cmi[~live]).all()
        assert (cache.sweeps, len(cache)) == (len(swept), counted)
        for w in swept:
            mi, cmi = cache.winner_stats(w)
            fresh_mi, fresh_cmi = PairCache(codes, target).winner_stats(w)
            assert mi[live].tobytes() == fresh_mi[live].tobytes()
            assert cmi[live].tobytes() == fresh_cmi[live].tobytes()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PairCache(np.zeros((4, 2), dtype=int), np.zeros(5, dtype=int))
