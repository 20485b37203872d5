"""Loading, discretization, and split behavior, including the promised errors."""

import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spfp import dataset
from spfp.dataset import Dataset, SplitSpec, discretize, load_csv, split, split_rows
from spfp.errors import ConfigError, DataError
from spfp.infometrics import PairCache


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def make_dataset(features, target, names=None):
    features = np.asarray(features, dtype=np.float64)
    names = names or tuple(f"f{i}" for i in range(features.shape[1]))
    target = np.asarray(target, dtype=np.intp)
    classes = tuple(str(c) for c in range(int(target.max()) + 1))
    return Dataset(features=features, feature_names=tuple(names), target=target, class_names=classes)


class TestLoadCsv:
    def test_structure_and_first_appearance_encoding(self, tmp_path):
        path = write_csv(
            tmp_path / "pets.csv",
            ["a,b,y", "1,2,cat", "3,4,dog", "5,6,cat", "7,8,dog"],
        )
        d = load_csv(path, "y")
        assert d.n_rows == 4
        assert d.n_features == 2
        assert d.n_classes == 2
        assert d.class_names == ("cat", "dog")
        assert d.feature_names == ("a", "b")
        assert d.target.tolist() == [0, 1, 0, 1]
        assert_allclose(d.features[:, 0], [1, 3, 5, 7])

    def test_target_by_index(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["x,y", "1,u", "2,v"])
        d = load_csv(path, 1)
        assert d.class_names == ("u", "v")
        assert d.feature_names == ("x",)

    def test_single_class_rejected(self, tmp_path):
        path = write_csv(tmp_path / "one.csv", ["a,y", "1,same", "2,same"])
        with pytest.raises(DataError, match="fewer than 2 classes"):
            load_csv(path, "y")

    def test_blank_cell_names_row_and_column(self, tmp_path):
        lines = ["a,b,y"] + [f"{i},{i},c{i % 2}" for i in range(1, 7)]
        lines.append("7,,c1")  # row 7 has a blank b
        path = write_csv(tmp_path / "blank.csv", lines)
        with pytest.raises(DataError, match=r"row 7.*'b'"):
            load_csv(path, "y")

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["a,y", "1,u", "oops,v"])
        with pytest.raises(DataError, match=r"row 2, column 'a'"):
            load_csv(path, "y")

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e999"])
    def test_infinite_cell_names_row_and_column(self, tmp_path, cell):
        path = write_csv(tmp_path / "inf.csv", ["a,b,y", "1,2,u", f"3,{cell},v"])
        with pytest.raises(DataError, match=r"non-finite cell at row 2, column 'b'"):
            load_csv(path, "y")

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot open"):
            load_csv("/nonexistent/nowhere.csv", "y")

    def test_target_column_absent(self, tmp_path):
        path = write_csv(tmp_path / "n.csv", ["a,b", "1,2"])
        with pytest.raises(DataError, match="not found"):
            load_csv(path, "z")

    def test_field_count_mismatch(self, tmp_path):
        path = write_csv(tmp_path / "ragged.csv", ["a,b,y", "1,2,u", "1,v"])
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, "y")

    def test_drop_policy_counts_rows(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["a,y", "1,u", ",v", "3,u", "4,v"],
        )
        d = load_csv(path, "y", missing_policy="drop")
        assert d.n_rows == 3
        assert d.n_rejected_rows == 1

    def test_median_policy_imputes(self, tmp_path):
        path = write_csv(
            tmp_path / "m.csv",
            ["a,y", "1,u", "na,v", "3,u", "5,v"],
        )
        d = load_csv(path, "y", missing_policy="median")
        assert d.n_rows == 4
        assert d.n_imputed_cells == 1
        assert_allclose(d.features[1, 0], 3.0)  # median of 1,3,5

    def test_unknown_policy(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["a,y", "1,u", "2,v"])
        with pytest.raises(ConfigError):
            load_csv(path, "y", missing_policy="zero")



def load_outcome(path, target, policy):
    """What load_csv returns or raises, in a form two runs can compare."""
    try:
        d = load_csv(path, target, missing_policy=policy)
    except Exception as exc:  # any type, so the two parses are compared on what they raise
        return type(exc), str(exc)
    return (d.features.dtype, d.features.shape, d.features.tobytes(), d.feature_names,
            d.target.dtype, d.target.tobytes(), d.class_names,
            d.n_rejected_rows, d.n_imputed_cells)


def loop_outcome(monkeypatch, path, target, policy):
    """The same load with the one-pass parse refused, so the cell loop reads it."""
    with monkeypatch.context() as m:
        m.setattr(dataset, "_load_clean", lambda *args: None)
        return load_outcome(path, target, policy)


_BIG = csv.field_size_limit() + 1

H = "a,b,y\n"
# (name, CSV text or bytes, target, whether the one-pass parse takes it)
_DIFFERENTIAL = [
    ("clean", H + "1,2,u\n3.5,-4e-3,v\n5,6,u\n", "y", True),
    ("underscore digits", H + "1_0,2,u\n3,4,v\n", "y", False),
    ("arabic-indic digits", H + "\u0661\u0662,2,u\n3,4,v\n", "y", False),
    ("nan token", H + "1,nan,u\n3,4,v\n5,6,u\n", "y", False),
    ("-nan token", H + "1,-nan,u\n3,4,v\n5,6,u\n", "y", False),
    ("na label", H + "1,2,u\n3,4,NA\n5,6,v\n", "y", False),
    ("inf", H + "1,inf,u\n3,4,v\n", "y", False),
    ("Infinity", H + "1,2,u\nInfinity,4,v\n", "y", False),
    ("1e400", H + "1,2,u\n3,1e400,v\n", "y", False),
    ("quoted numeric cell", H + '"1.5",2,u\n3,4,v\n', "y", False),
    ("quoted label", H + '1,2,"u"\n3,4,"v"\n', "y", False),
    ("quoted label with a comma", H + '1,2,u\n3,4,"v,w"\n', "y", False),
    ("hash in a numeric cell", H + "1#2,2,u\n3,4,v\n", "y", False),
    ("hash in a label", H + "1,2,u#1\n3,4,v\n", "y", True),
    ("whitespace-only row", H + "1,2,u\n   \n3,4,v\n", "y", False),
    ("extra field", H + "1,2,u\n3,4,v,9\n", "y", False),
    ("extra field in every row", H + "1,2,u,9\n3,4,v,9\n", "y", False),
    ("missing field", H + "1,2,u\n3,v\n", "y", False),
    ("trailing comma", H + "1,2,u,\n3,4,v,\n", "y", False),
    ("crlf and blank lines", H + "1,2,u\r\n\r\n3,4,v\r\n\r\n5,6,u\r\n", "y", True),
    ("lone cr line ends", H + "1,2,u\r3,4,v\r", "y", True),
    ("no final newline", H + "1,2,u\n3,4,v", "y", True),
    ("padded cells", H + " 1 ,\t2, u \n3,4,v\n", "y", True),
    ("target by index", H + "1,2,u\n3,4,v\n", 2, True),
    ("first column target", H + "u,1,2\nv,3,4\nu,5,6\n", 0, True),
    ("blank cell", H + "1,,u\n3,4,v\n5,6,u\n", "y", False),
    ("empty column", H + "1,,u\n3,,v\n", "y", False),
    ("header only", H, "y", False),
    ("target-only header, no rows", "y\n", "y", False),
    ("target-only header", "y\nu\nv\n", "y", True),
    ("blank lines only", H + "\n\n", "y", False),
    ("single class", H + "1,2,u\n3,4,u\n", "y", True),
    ("field over the csv limit", H + " " * _BIG + "1,2,u\n3,4,v\n", "y", False),
    ("label over the csv limit", H + "1,2," + "u" * _BIG + "\n3,4,v\n", "y", False),
    # past the first 8 KiB, so the header is read before the bad byte is decoded
    ("invalid utf-8", (H + "1,2,u\n3,4,v\n" * 2000).encode() + b"5,\xff6,v\n", "y", False),
]


class TestOnePassParse:
    @pytest.mark.parametrize("policy", ["error", "drop", "median"])
    @pytest.mark.parametrize(
        "name,text,target,fast", _DIFFERENTIAL, ids=[row[0] for row in _DIFFERENTIAL]
    )
    def test_matches_cell_loop(self, tmp_path, monkeypatch, name, text, target, fast, policy):
        path = tmp_path / "t.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        taken = []
        parse = dataset._load_clean
        monkeypatch.setattr(
            dataset, "_load_clean", lambda *args: taken.append(parse(*args)) or taken[-1]
        )
        got = load_outcome(path, target, policy)
        assert (taken[0] is not None) == fast
        assert got == loop_outcome(monkeypatch, path, target, policy)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
            min_size=2, max_size=12,
        ),
        labels=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=12, max_size=12),
    )
    def test_round_trip(self, tmp_path_factory, values, labels):
        labels = labels[: len(values)]
        if len(set(labels)) < 2:
            labels[-1] = "e"
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["x0", "x1", "y", "x2"])
        for row, label in zip(values, labels):
            writer.writerow([repr(row[0]), repr(row[1]), label, repr(row[2])])
        path = tmp_path_factory.mktemp("rt") / "rt.csv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        d = load_csv(path, "y")
        assert d.features.tobytes() == np.array(values, dtype=np.float64).tobytes()
        order = list(dict.fromkeys(labels))
        assert d.class_names == tuple(order)
        assert d.target.tolist() == [order.index(label) for label in labels]

    def test_header_only_raises_without_loadtxt_warning(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["a,b,y"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                load_csv(path, "y")

    def test_clean_file_peak_memory_stays_on_the_one_pass_parse(self, tmp_path, monkeypatch):
        # 2,000 x 100 features: the one-pass parse peaks at 2.0 MB (the float
        # block, from which the target column is dropped in place; a copy
        # without the target would take it to 3.3 MB), the cell loop at 8.5 MB
        # (row lists of Python floats), so the bound sits between the two.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2000, 100))
        lines = [",".join([f"f{j}" for j in range(100)] + ["y"])]
        lines += [",".join(map(repr, row)) + f",c{i % 3}" for i, row in enumerate(x.tolist())]
        path = write_csv(tmp_path / "clean.csv", lines)

        def peak(load):
            tracemalloc.start()
            try:
                d = load()
                return tracemalloc.get_traced_memory()[1], d
            finally:
                tracemalloc.stop()

        fast_peak, d = peak(lambda: load_csv(path, "y"))
        assert d.features.tobytes() == x.tobytes()
        with monkeypatch.context() as m:
            m.setattr(dataset, "_load_clean", lambda *args: None)
            loop_peak, _ = peak(lambda: load_csv(path, "y"))
        assert fast_peak < 3_000_000 < loop_peak

    @pytest.mark.parametrize("target", [0, 30, 60], ids=["first", "middle", "last"])
    def test_clean_load_holds_one_contiguous_table(self, tmp_path, target):
        # 2,000 x 60 features (960 kB): the parse peaks at 1.31 times the
        # table, from np.loadtxt's growing buffer; any second table, such as
        # a copy without the target column, would take it past 2.
        rng = np.random.default_rng(target)
        x = rng.normal(size=(2000, 60))
        header = [f"f{j}" for j in range(60)]
        header.insert(target, "y")
        lines = [",".join(header)]
        for i, row in enumerate(x.tolist()):
            cells = list(map(repr, row))
            cells.insert(target, f"c{i % 3}")
            lines.append(",".join(cells))
        path = write_csv(tmp_path / "clean.csv", lines)
        tracemalloc.start()
        try:
            d = load_csv(path, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.features.flags.c_contiguous
        assert d.features.tobytes() == x.tobytes()
        assert peak < 1.5 * x.nbytes

    @pytest.mark.parametrize("target", [0, 3, 6], ids=["first", "middle", "last"])
    def test_features_are_the_parsed_block_without_the_target(self, tmp_path, target):
        # 600 rows: the target column is dropped in blocks of 256 rows
        rng = np.random.default_rng(target)
        x = rng.normal(size=(600, 6))
        labels = rng.integers(0, 3, size=600)
        header = [f"f{j}" for j in range(6)]
        header.insert(target, "y")
        lines = [",".join(header)]
        for row, label in zip(x.tolist(), labels):
            cells = list(map(repr, row))
            cells.insert(target, f"c{label}")
            lines.append(",".join(cells))
        d = load_csv(write_csv(tmp_path / "t.csv", lines), "y")
        parsed = np.insert(x, target, d.target, axis=1)  # as np.loadtxt reads the file
        assert np.array_equal(d.features, np.delete(parsed, target, axis=1))
        assert d.feature_names == tuple(f"f{j}" for j in range(6))


def discretize_per_column(d, bins, strategy="equal_frequency"):
    """The per-column reference of `discretize`: codes as intp, and the
    cardinalities."""
    codes = np.empty((d.n_rows, d.n_features), dtype=np.intp)
    for j in range(d.n_features):
        col = d.features[:, j]
        if not np.isfinite(col).all():
            row = int(np.argmin(np.isfinite(col)))
            raise DataError(f"column '{d.feature_names[j]}' holds a non-finite value "
                            f"at row index {row}")
        uniques = np.unique(col)
        if uniques.shape[0] <= bins and np.all(col == np.floor(col)):
            codes[:, j] = np.searchsorted(uniques, col)
            continue
        if strategy == "equal_width":
            lo, hi = col.min(), col.max()
            if np.isfinite(float(hi) - float(lo)):
                edges = np.linspace(lo, hi, bins + 1)[1:-1]
            else:
                edges = 2 * np.linspace(lo / 2, hi / 2, bins + 1)[1:-1]
        else:
            edges = np.quantile(col, np.arange(1, bins) / bins)
        coded = np.searchsorted(np.unique(edges), col, side="left")
        codes[:, j] = np.unique(coded, return_inverse=True)[1]
    return codes, codes.max(axis=0) + 1


@st.composite
def mixed_columns(draw):
    """A float table of the column kinds `discretize` tells apart."""
    n = draw(st.integers(1, 40))
    bins = draw(st.sampled_from([2, 3, 5, 10]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kinds = draw(st.lists(st.sampled_from(
        ["continuous", "few_ints", "spread_ints", "many_ints", "constant", "ties", "huge"]),
        min_size=1, max_size=9))
    columns = []
    for kind in kinds:
        if kind == "continuous":
            col = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        elif kind == "few_ints":  # at most `bins` values, spanning fewer
            col = rng.integers(-3, -3 + bins, size=n).astype(float)
        elif kind == "spread_ints":  # at most `bins` values, spread wide
            col = rng.choice(rng.integers(-10**6, 10**6, size=bins), size=n).astype(float)
        elif kind == "many_ints":
            col = rng.integers(0, 4 * bins, size=n).astype(float)
        elif kind == "constant":
            col = np.full(n, draw(st.sampled_from([0.0, -2.0, 7.5, 1e300])))
        elif kind == "ties":  # mostly one value: duplicate quantile edges
            col = np.where(rng.random(n) < 0.8, 0.25, rng.normal(size=n))
        else:  # a span past the float range
            col = rng.choice([-1e308, -1.5e307, 0.0, 3.5, 1e308], size=n)
        columns.append(col)
    return np.column_stack(columns), bins


class TestDiscretize:
    def test_equal_frequency_deciles(self):
        d = make_dataset(np.arange(1.0, 11.0).reshape(-1, 1), [0, 1] * 5)
        coded = discretize(d, bins=5, strategy="equal_frequency")
        assert coded.codes[:, 0].tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        assert coded.cardinalities[0] == 5

    @pytest.mark.parametrize("strategy", ["equal_frequency", "equal_width"])
    @pytest.mark.parametrize("value", [7.0, 7.5])  # integral, then cut by the edges
    def test_constant_column(self, value, strategy):
        d = make_dataset([[value], [value], [value], [value]], [0, 1, 0, 1])
        coded = discretize(d, bins=10, strategy=strategy)
        assert coded.codes[:, 0].tolist() == [0, 0, 0, 0]
        assert coded.cardinalities[0] == 1

    @pytest.mark.parametrize("strategy", ["equal_frequency", "equal_width"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_is_refused(self, value, strategy):
        X = np.arange(12.0).reshape(6, 2) / 3
        X[4, 1] = value
        d = make_dataset(X, [0, 1] * 3, names=("a", "b"))
        with pytest.raises(DataError, match="column 'b' holds a non-finite value at row index 4"):
            discretize(d, bins=3, strategy=strategy)

    def test_integral_passthrough(self):
        d = make_dataset([[0.0], [1.0], [0.0], [2.0]], [0, 1, 0, 1])
        coded = discretize(d, bins=10)
        assert coded.codes[:, 0].tolist() == [0, 1, 0, 2]
        assert coded.cardinalities[0] == 3
        col = d.features[:, 0]
        assert coded.codes[:, 0].tolist() == np.searchsorted(np.unique(col), col).tolist()

    def test_wide_integral_column_is_binned(self):
        vals = np.arange(100.0).reshape(-1, 1)
        d = make_dataset(vals, [0, 1] * 50)
        coded = discretize(d, bins=4)
        assert coded.cardinalities[0] == 4

    def test_equal_width(self):
        col = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 10.0]).reshape(-1, 1)
        d = make_dataset(col, [0, 1, 0, 1, 0, 1])
        coded = discretize(d, bins=2, strategy="equal_width")
        # midpoint cut at 5.0: everything below goes to code 0
        assert coded.codes[:, 0].tolist() == [0, 0, 0, 0, 0, 1]

    def test_codes_dense_and_order_preserving(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(80, 5))
        X[:, 2] = rng.integers(0, 3, size=80)  # integral passthrough column
        d = make_dataset(X, rng.integers(0, 2, size=80))
        for strategy in ("equal_frequency", "equal_width"):
            coded = discretize(d, bins=6, strategy=strategy)
            for j in range(5):
                col = coded.codes[:, j]
                card = coded.cardinalities[j]
                assert col.max() == card - 1
                assert np.unique(col).shape[0] == card  # every code occurs
                order = np.argsort(X[:, j], kind="stable")
                assert (np.diff(col[order].astype(np.intp)) >= 0).all()  # uint8 would wrap

    def test_equal_width_span_past_the_float_range(self):
        # max - min overflows on column a; column b keeps its cuts at 1..9
        X = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 2.5], [1.5, 10.0]])
        d = make_dataset(X, [0, 1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coded = discretize(d, bins=10, strategy="equal_width")
        assert coded.codes.T.tolist() == [[0, 3, 1, 2], [0, 0, 1, 2]]
        assert coded.cardinalities.tolist() == [4, 3]
        assert discretize(d, bins=10).codes[:, 0].tolist() == [0, 3, 1, 2]

    @pytest.mark.parametrize("bins,dtype", [(2, np.uint8), (10, np.uint8), (256, np.uint8),
                                            (257, np.uint16), (300, np.uint16)])
    def test_codes_take_the_narrowest_unsigned_dtype(self, bins, dtype):
        rng = np.random.default_rng(bins)
        X = rng.normal(size=(900, 2))
        X[:, 1] = rng.integers(0, 2, size=900)  # integral passthrough column
        d = make_dataset(X, rng.integers(0, 2, size=900))
        coded = discretize(d, bins=bins)
        assert coded.codes.dtype == dtype
        assert coded.cardinalities.tolist() == [bins, 2]
        assert int(coded.codes[:, 0].max()) == bins - 1

    @settings(max_examples=150, deadline=None)
    @given(mixed_columns(), st.sampled_from(["equal_frequency", "equal_width"]),
           st.sampled_from([1, 7, 1 << 16]))
    def test_blocks_equal_the_per_column_reference(self, table, strategy, block):
        x, bins = table
        d = make_dataset(x, np.arange(x.shape[0]) % 2)
        expected_codes, expected_cards = discretize_per_column(d, bins, strategy)
        old, dataset._CODE_BLOCK = dataset._CODE_BLOCK, block  # blocks of 1 column and up
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                coded = discretize(d, bins=bins, strategy=strategy)
        finally:
            dataset._CODE_BLOCK = old
        assert np.array_equal(coded.codes, expected_codes)
        assert np.array_equal(coded.cardinalities, expected_cards)

    @settings(max_examples=60, deadline=None)
    @given(mixed_columns(), st.data())
    def test_first_non_finite_column_and_row_are_named(self, table, data):
        x, bins = table
        n, p = x.shape
        cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, p - 1)),
                                   min_size=1, max_size=4))
        for row, col in cells:
            x[row, col] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        d = make_dataset(x, np.arange(n) % 2)
        with pytest.raises(DataError) as expected:
            discretize_per_column(d, bins)
        old, dataset._CODE_BLOCK = dataset._CODE_BLOCK, 2 * n  # two columns a block
        try:
            with pytest.raises(DataError) as got:
                discretize(d, bins=bins)
        finally:
            dataset._CODE_BLOCK = old
        assert str(got.value) == str(expected.value)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(2, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 1e-300, 1e300, 1.7e308]))
    def test_sorted_quantiles_are_numpy_quantiles_bit_for_bit(self, n, bins, seed, scale):
        # the cut points are read off each sorted column with numpy's
        # linear method; this pins them to np.quantile, spans past the
        # float range (inf and NaN edges) included
        rng = np.random.default_rng(seed)
        s = np.sort(rng.uniform(-1.0, 1.0, size=(n, 5)) * scale, axis=0)
        s[:, 1] = s[0, 1]  # constant
        s[:, 2] = np.sort(rng.choice([-1.7e308, -1.0, 0.0, 2.0, 1.7e308], size=n))
        qs = np.arange(1, bins) / bins
        with np.errstate(over="ignore", invalid="ignore"):
            got = dataset._sorted_quantiles(s, qs)
            expected = np.quantile(s, qs, axis=0)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_pair_cache_reads_the_codes_without_a_copy(self):
        rng = np.random.default_rng(12)
        d = make_dataset(rng.normal(size=(50, 4)), rng.integers(0, 2, size=50))
        coded = discretize(d, bins=3)
        assert coded.codes.flags.f_contiguous
        cache = PairCache(coded.codes, coded.cardinalities, d.target)
        assert np.shares_memory(cache.columns, coded.codes)

    def test_bad_args(self):
        d = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ConfigError):
            discretize(d, bins=1)
        with pytest.raises(ConfigError):
            discretize(d, bins=4, strategy="kmeans")


class TestSplit:
    def test_balanced_two_class_example(self):
        d = make_dataset(np.arange(200.0).reshape(100, 2), [0, 1] * 50)
        train, test = split(d, SplitSpec(test_fraction=0.33, seed=42))
        assert test.n_rows == 33
        counts = np.bincount(test.target)
        assert sorted(counts.tolist()) == [16, 17]
        assert train.n_rows == 67

    def test_determinism(self):
        d = make_dataset(np.arange(60.0).reshape(30, 2), [0, 1, 2] * 10)
        a_train, a_test = split(d, SplitSpec(0.33, seed=42))
        b_train, b_test = split(d, SplitSpec(0.33, seed=42))
        assert_allclose(a_test.features, b_test.features)
        assert a_test.target.tolist() == b_test.target.tolist()
        c_train, c_test = split(d, SplitSpec(0.33, seed=43))
        assert not np.array_equal(a_test.features, c_test.features)

    def test_split_rows_are_the_rows_split_takes(self):
        rng = np.random.default_rng(4)
        d = make_dataset(rng.normal(size=(40, 2)), rng.integers(0, 3, size=40))
        train_idx, test_idx = split_rows(d, SplitSpec(0.3, seed=5), stream=7)
        train, test = split(d, SplitSpec(0.3, seed=5), stream=7)
        assert np.array_equal(d.features[train_idx], train.features)
        assert np.array_equal(d.features[test_idx], test.features)
        assert np.array_equal(np.sort(np.concatenate([train_idx, test_idx])), np.arange(40))

    def test_tiny_classes_one_each_side(self):
        d = make_dataset(np.arange(12.0).reshape(6, 2), [0, 0, 1, 1, 2, 2])
        train, test = split(d, SplitSpec(0.33, seed=0))
        assert sorted(np.unique(train.target).tolist()) == [0, 1, 2]
        assert sorted(np.unique(test.target).tolist()) == [0, 1, 2]
        assert test.n_rows == 3

    def test_partition_of_rows(self):
        rng = np.random.default_rng(3)
        d = make_dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, size=50))
        train, test = split(d, SplitSpec(0.4, seed=9))
        assert train.n_rows + test.n_rows == 50
        # feature rows must jointly cover the original matrix
        combined = np.vstack([train.features, test.features])
        assert np.isclose(np.sort(combined[:, 0]), np.sort(d.features[:, 0])).all()

    def test_stratified_proportion_bound(self):
        rng = np.random.default_rng(4)
        sizes = [7, 13, 30]
        target = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
        d = make_dataset(rng.normal(size=(sum(sizes), 2)), target)
        _, test = split(d, SplitSpec(0.25, seed=1))
        counts = np.bincount(test.target, minlength=3)
        for c, s in enumerate(sizes):
            assert abs(counts[c] - 0.25 * s) < 1.0

    def test_class_too_small(self):
        d = make_dataset(np.arange(8.0).reshape(4, 2), [0, 0, 0, 1])
        with pytest.raises(DataError, match="fewer than 2 rows"):
            split(d, SplitSpec(0.5, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.0, seed=1)
        with pytest.raises(ConfigError):
            SplitSpec(1.2, seed=1)
        with pytest.raises(ConfigError):
            SplitSpec(0.3, seed=-1)
