"""Tabular data loading, discretization, and deterministic splitting.

CSV files are expected UTF-8 (a leading byte-order mark is skipped),
comma-separated, with a header row and '.' decimal points. The target
column is label-encoded in first-appearance order; all other columns must
parse as finite numbers. Continuous features are discretized to
small-integer codes so the plug-in entropy estimators in
:mod:`spfp.infometrics` apply.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .seeding import SPLIT_STREAM, substream

__all__ = ["Dataset", "CodedMatrix", "SplitSpec", "load_csv", "discretize", "split", "split_rows"]

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null"}
DISCRETIZERS = ("equal_frequency", "equal_width")
MISSING_POLICIES = ("error", "drop", "median")


@dataclass
class Dataset:
    """In-memory tabular dataset with an encoded categorical target."""

    features: np.ndarray
    feature_names: tuple[str, ...]
    target: np.ndarray
    class_names: tuple[str, ...]
    n_rejected_rows: int = 0
    n_imputed_cells: int = 0

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, rows: np.ndarray) -> "Dataset":
        """Dataset restricted to the given row indices (load counters reset)."""
        return Dataset(
            features=self.features[rows],
            feature_names=self.feature_names,
            target=self.target[rows],
            class_names=self.class_names,
        )


@dataclass
class CodedMatrix:
    """Per-column small-integer codes with their cardinalities.

    Codes are dense: every value 0..card-1 occurs in column j, which has
    ``cardinalities[j]`` of them. `discretize` stores them column-major, so
    ``codes.T``, the feature-major layout the counting kernels read, is not
    a copy. The codes are in the narrowest unsigned dtype that holds
    ``bins - 1`` (uint8 up to 256 bins); arithmetic wraps in that dtype, so
    a caller casts them to ``np.intp`` before building a key from them.
    """

    codes: np.ndarray
    cardinalities: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_columns(self) -> int:
        return self.codes.shape[1]


@dataclass
class SplitSpec:
    """Deterministic train/test split parameters."""

    test_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0,1), got {self.test_fraction}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def _parse_cell(text: str, row: int, column: str) -> float:
    """Parse one numeric cell; missing tokens map to NaN, infinities fail."""
    stripped = text.strip()
    if stripped.lower() in _MISSING_TOKENS:
        return math.nan
    try:
        value = float(stripped)
    except ValueError:
        raise DataError(
            f"unparseable cell at row {row}, column '{column}': {text!r}"
        ) from None
    if math.isinf(value):
        raise DataError(f"non-finite cell at row {row}, column '{column}': {text!r}")
    return value


def _load_clean(lines, target_idx: int, width: int):
    """Parse a clean file in one ``np.loadtxt`` pass, or return None.

    Clean means every data row has `width` comma-separated fields, every
    feature cell is a finite number ``np.loadtxt`` parses and every label is
    present and unquoted. ``np.loadtxt`` accepts a subset of what ``float``
    does and reads it to the same value, so a file accepted here reads the
    same as under `_load_rows`; anything else (quotes, missing or non-finite
    cells, ragged rows, ``1_0``, fields over the csv field limit) returns
    None and is left to `_load_rows`, which raises every error about a row.
    """
    limit = csv.field_size_limit()
    class_index: dict[str, int] = {}

    def code(text: str) -> int:
        label = text.strip()
        if label.lower() in _MISSING_TOKENS or '"' in label:
            raise ValueError(label)
        return class_index.setdefault(label, len(class_index))

    def within_limit():
        # csv.reader refuses a longer field, so the cell loop would too.
        for line in lines:
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                raise ValueError("field larger than the csv field limit")
            yield line

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            x = np.loadtxt(
                within_limit(), delimiter=",", dtype=np.float64, comments=None,
                quotechar=None, ndmin=2, converters={target_idx: code},
            )
    except ValueError:
        return None
    if x.shape[0] == 0 or x.shape[1] != width or not np.isfinite(x).all():
        return None
    target = x[:, target_idx].astype(np.intp)
    # Drop the target column in place: compact the rows, 256 at a time, to
    # the front of the buffer as a C-contiguous (n, width - 1) table. Row i
    # moves to offset i * (width - 1) <= i * width, so a block overwrites
    # only rows already moved, and it needs a block-sized temporary
    # instead of a second table.
    n, d = x.shape[0], width - 1
    features = x.reshape(-1)[: n * d].reshape(n, d)
    for lo in range(0, n, 256):
        features[lo:lo + 256] = np.delete(x[lo:lo + 256], target_idx, axis=1)
    return features, target, tuple(class_index), 0, 0


def _load_rows(reader, header, feature_names, target_idx: int, missing_policy: str, path):
    """Parse and validate the data rows cell by cell, applying the policy."""
    rows: list[list[float]] = []
    target: list[int] = []
    class_index: dict[str, int] = {}
    n_rejected = 0
    for row_no, record in enumerate(reader, start=1):
        if not record:
            continue
        if len(record) != len(header):
            raise DataError(
                f"row {row_no}: expected {len(header)} fields, got {len(record)}"
            )
        label = record[target_idx].strip()
        if label.lower() in _MISSING_TOKENS:
            if missing_policy == "error":
                raise DataError(
                    f"missing value at row {row_no}, column '{header[target_idx]}'"
                )
            n_rejected += 1
            continue
        values = []
        missing_at = None
        for i, cell in enumerate(record):
            if i == target_idx:
                continue
            value = _parse_cell(cell, row_no, header[i])
            if math.isnan(value) and missing_at is None:
                missing_at = header[i]
            values.append(value)
        if missing_at is not None and missing_policy == "error":
            raise DataError(f"missing value at row {row_no}, column '{missing_at}'")
        if missing_at is not None and missing_policy == "drop":
            n_rejected += 1
            continue
        rows.append(values)
        target.append(class_index.setdefault(label, len(class_index)))

    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)

    n_imputed = 0
    if missing_policy == "median":
        for j in range(features.shape[1]):
            mask = np.isnan(features[:, j])
            if mask.any():
                valid = features[~mask, j]
                if valid.size == 0:
                    raise DataError(f"column '{feature_names[j]}' has no usable values")
                features[mask, j] = np.median(valid)
                n_imputed += int(mask.sum())

    return features, np.asarray(target, dtype=np.intp), tuple(class_index), n_rejected, n_imputed


@contextlib.contextmanager
def _file_errors(path):
    """Report bytes that are not UTF-8 and csv-level faults (a field over
    ``csv.field_size_limit()``) as DataError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def load_csv(path, target_column, missing_policy: str = "error") -> Dataset:
    """Load a CSV into a Dataset, encoding the target by first appearance.

    `target_column` is a header name or 0-based column index.
    `missing_policy` decides what happens to rows with missing cells:
    ``error`` (default) rejects the file naming the first offending cell,
    ``drop`` discards offending rows, ``median`` imputes missing feature
    cells with the column median (rows missing the target are dropped).
    A clean file is parsed in one ``np.loadtxt`` pass; any other file is
    read again cell by cell, so both give the same Dataset or error.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ConfigError(f"unknown missing_policy {missing_policy!r}")
    try:
        # utf-8-sig drops the byte-order mark that some spreadsheets write
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle, _file_errors(path):
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if isinstance(target_column, int):
            if not 0 <= target_column < len(header):
                raise DataError(f"target column index {target_column} out of range")
            target_idx = target_column
        else:
            try:
                target_idx = header.index(str(target_column))
            except ValueError:
                raise DataError(f"target column {target_column!r} not found") from None
        feature_names = tuple(h for i, h in enumerate(header) if i != target_idx)

        loaded = _load_clean(handle, target_idx, len(header))
        if loaded is None:
            handle.seek(0)
            next(reader)  # the header again
            loaded = _load_rows(
                reader, header, feature_names, target_idx, missing_policy, path
            )
    features, target, class_names, n_rejected, n_imputed = loaded
    if len(class_names) < 2:
        raise DataError(f"fewer than 2 classes in target column (found {len(class_names)})")

    return Dataset(
        features=features,
        feature_names=feature_names,
        target=target,
        class_names=class_names,
        n_rejected_rows=n_rejected,
        n_imputed_cells=n_imputed,
    )


# Elements per column block of `discretize` (512 KiB of float64): a block's
# sort, compares and keys stay small beside the table, and a few blocks
# cover a table of a few hundred columns.
_CODE_BLOCK = 1 << 16


def _sorted_quantiles(s: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(s, qs, axis=0)`` read off the column-sorted `s`, bit
    for bit: numpy's default linear method, its indexes and its two-sided
    interpolation, without its partition of a copy."""
    n = s.shape[0]
    virtual = (n - 1) * qs
    previous = np.floor(virtual)
    previous[virtual >= n - 1] = -1  # at or past the end: the last value
    lo = previous.astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    gamma = (virtual - previous)[:, None]
    a, b = s[lo], s[hi]
    # A gap past the float range gives an inf or NaN edge, as in numpy; the
    # cut counts it as searchsorted does, below every value or above.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = b - a
        out = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def _raw_codes(x: np.ndarray, bins: int, strategy: str, dtype) -> np.ndarray:
    """Order-preserving codes in 0..bins-1, in `dtype`, of every column of
    the finite float64 block `x`, not yet dense.

    An integral column spanning fewer than `bins` values passes through as
    x - min, which is exact. Any other column is cut: its code is the
    number of its edges below the value, the count ``searchsorted(edges,
    side="left")`` gives. A repeated edge only skips a code, which the dense
    recode closes. An integral column with at most `bins` distinct values
    is cut at all of them but the largest, which passes it through too.
    Only the cut columns are sorted.
    """
    integral = (x == np.floor(x)).all(axis=0)
    small = integral.copy()
    with np.errstate(over="ignore"):  # an overflowing span is not small
        small[integral] = np.ptp(x[:, integral], axis=0) < bins
    cut = np.flatnonzero(~small)
    raw = np.empty(x.shape, dtype=dtype)
    if cut.size < x.shape[1]:
        xs = x[:, small]
        raw[:, small] = xs - xs.min(axis=0)
    if cut.size == 0:
        return raw
    xc = x if cut.size == x.shape[1] else x[:, cut]
    s = np.sort(xc, axis=0)
    edges = np.full((bins - 1, cut.size), np.inf)
    step = s[1:] != s[:-1]
    passing = integral[cut] & (step.sum(axis=0) < bins)
    for i in np.flatnonzero(passing):
        distinct = s[np.flatnonzero(step[:, i]), i]  # all but the largest
        edges[: distinct.shape[0], i] = distinct
    rest = np.flatnonzero(~passing)
    if strategy == "equal_width":
        for i in rest:
            lo, hi = s[0, i], s[-1, i]
            if math.isfinite(float(hi) - float(lo)):
                edges[:, i] = np.linspace(lo, hi, bins + 1)[1:-1]
            else:  # the span overflows; halving and doubling are exact
                edges[:, i] = 2 * np.linspace(lo / 2, hi / 2, bins + 1)[1:-1]
    else:
        edges[:, rest] = _sorted_quantiles(s[:, rest], np.arange(1, bins) / bins)
    counts = np.zeros(xc.shape, dtype=dtype)
    for e in edges:
        counts += xc > e
    if cut.size == x.shape[1]:
        return counts
    raw[:, cut] = counts
    return raw


def discretize(d: Dataset, bins: int = 10, strategy: str = "equal_frequency") -> CodedMatrix:
    """Discretize every feature column to dense small-integer codes.

    Integral columns with at most `bins` distinct values pass through as
    dense codes regardless of strategy. Remaining columns are cut at
    column quantiles (equal_frequency) or at uniform intervals (equal_width);
    duplicate cut points are merged, so cardinality may come out below
    `bins` and a constant column gets cardinality 1. Coding is
    order-preserving per column. A NaN or infinite cell raises DataError.
    The features are read as float64, in column blocks of `_CODE_BLOCK`
    cells. The codes' dtype is ``np.min_scalar_type(bins - 1)``.
    """
    if bins < 2:
        raise ConfigError(f"bins must be >= 2, got {bins}")
    if strategy not in DISCRETIZERS:
        raise ConfigError(f"unknown strategy {strategy!r}, expected one of {DISCRETIZERS}")

    n_rows, n_cols = d.features.shape
    dtype = np.min_scalar_type(bins - 1)
    codes = np.empty((n_rows, n_cols), dtype=dtype, order="F")
    cards = np.empty(n_cols, dtype=np.intp)
    width = max(1, _CODE_BLOCK // max(1, n_rows))
    for lo in range(0, n_cols, width):
        x = np.asarray(d.features[:, lo:lo + width], dtype=np.float64)
        finite = np.isfinite(x)
        if not finite.all():
            j = int(np.argmin(finite.all(axis=0)))
            row = int(np.argmin(finite[:, j]))
            raise DataError(f"column '{d.feature_names[lo + j]}' holds a non-finite value "
                            f"at row index {row}")
        # Dense recode: each column's occupied codes -> 0..card-1, in order.
        key = _raw_codes(x, bins, strategy, dtype).astype(np.intp)
        key += np.arange(x.shape[1]) * bins
        occupied = np.bincount(key.ravel(), minlength=x.shape[1] * bins).reshape(-1, bins) > 0
        cards[lo:lo + width] = occupied.sum(axis=1)
        remap = (np.cumsum(occupied, axis=1) - 1).astype(dtype)
        codes[:, lo:lo + width] = remap.ravel()[key]
    return CodedMatrix(codes=codes, cardinalities=cards)


def _stratified_test_counts(class_sizes: np.ndarray, test_fraction: float) -> np.ndarray:
    """Per-class test-row quotas: floor + largest remainder, >=1 per side."""
    quotas = test_fraction * class_sizes
    counts = np.floor(quotas).astype(np.intp)
    total_target = int(math.floor(test_fraction * class_sizes.sum() + 0.5))
    shortfall = total_target - int(counts.sum())
    if shortfall > 0:
        remainders = quotas - counts
        order = np.lexsort((np.arange(len(counts)), -remainders))
        for c in order[:shortfall]:
            counts[c] += 1
    counts = np.clip(counts, 1, class_sizes - 1)
    return counts


def split(d: Dataset, spec: SplitSpec, stream: int = SPLIT_STREAM) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split by per-class quotas: every class on both sides.

    `stream` names the RNG substream, so one seed can drive several
    independent splits (outer train/test vs inner holdout)."""
    train_idx, test_idx = split_rows(d, spec, stream)
    return d.subset(train_idx), d.subset(test_idx)


def split_rows(
    d: Dataset, spec: SplitSpec, stream: int = SPLIT_STREAM
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted train and test row indices of ``split(d, spec, stream)``,
    for a caller that needs only one side's rows."""
    rng = substream(spec.seed, stream)
    class_sizes = np.bincount(d.target, minlength=d.n_classes)
    if class_sizes.min() < 2:
        tiny = d.class_names[int(class_sizes.argmin())]
        raise DataError(
            f"class '{tiny}' has fewer than 2 rows; cannot appear in both sides"
        )
    counts = _stratified_test_counts(class_sizes, spec.test_fraction)
    test_rows: list[np.ndarray] = []
    for c in range(d.n_classes):
        members = np.flatnonzero(d.target == c)
        picked = rng.permutation(members.shape[0])[: counts[c]]
        test_rows.append(members[picked])
    test_idx = np.sort(np.concatenate(test_rows))
    mask = np.zeros(d.n_rows, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)
    return train_idx, test_idx
