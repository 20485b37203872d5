"""Seeded synthetic inputs for the benchmark workloads.

Each workload writes a dataset CSV and run matrices for `stats` (`lowcard`
also prediction CSVs for the import path of `evaluate`), and returns
everything the output checks need (parsed feature values, class codes,
test rows, latent map).
The program itself only ever sees the written files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# spfp's defaults for the split; the checks re-derive train/test rows with
# them through spfp.dataset.split.
TEST_FRACTION = 0.33
SPLIT_SEED = 0

WORKLOADS = ("wide", "lowcard")


@dataclass
class Matrix:
    """One metric's run matrix as written for `spfp stats`."""

    path: Path
    values: np.ndarray
    names: list[str]
    higher_is_better: bool


@dataclass
class Inputs:
    proba_dir: Path
    features: np.ndarray  # values exactly as parsed back from the CSV
    target: np.ndarray  # class codes in spfp's first-appearance order
    n_classes: int
    train_rows: np.ndarray
    test_rows: np.ndarray
    partition_args: list[str]
    probas: dict[str, np.ndarray]  # imported model name -> parsed test probabilities (lowcard)
    matrices: dict[str, Matrix]
    stats_args: list[str]
    latents: np.ndarray | None = None  # lowcard: binary latent state per row
    column_latents: list[tuple[int, int]] = field(default_factory=list)


def _write_table(path: Path, header: list[str], fmt: str, rows: np.ndarray) -> list[str]:
    """Write a header and one `fmt`-formatted line per row; return the lines."""
    lines = [fmt % tuple(r) for r in rows.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")
    return lines


def _parse(lines: list[str], columns) -> np.ndarray:
    """The values the program reads back from the written lines."""
    return np.loadtxt(lines, delimiter=",", usecols=columns, ndmin=2)


def _write_dataset(path: Path, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write features (4 decimals, integral columns as integers) plus a
    `label` column; return the parsed-back features and the class codes
    spfp assigns (first appearance order)."""
    integral = np.all(X == np.round(X), axis=0)
    fmt = ",".join("%d" if i else "%.4f" for i in integral) + ",c%d"
    header = [f"f{j}" for j in range(X.shape[1])] + ["label"]
    lines = _write_table(path, header, fmt, np.column_stack([X, y]))
    parsed = _parse(lines, range(X.shape[1]))
    _, first, inverse = np.unique(y, return_index=True, return_inverse=True)
    rank = np.empty(first.shape[0], dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    return parsed, rank[inverse]


def _split_rows(target: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Train/test row indices exactly as the CLI derives them."""
    from spfp.dataset import Dataset, SplitSpec, split

    rows = Dataset(
        features=np.arange(target.shape[0], dtype=np.float64)[:, None],
        feature_names=("row",),
        target=target,
        class_names=tuple(str(c) for c in range(n_classes)),
    )
    train, test = split(rows, SplitSpec(TEST_FRACTION, SPLIT_SEED))
    return train.features[:, 0].astype(np.intp), test.features[:, 0].astype(np.intp)


def _write_probas(
    proba_dir: Path, rng: np.random.Generator, truth: np.ndarray, n_classes: int, n_views: int
) -> dict[str, np.ndarray]:
    """Prediction files theta_1..theta_k and All for the test rows: softmax
    of a noisy one-hot score, sharper for All than for the views."""
    proba_dir.mkdir(parents=True, exist_ok=True)
    out = {}
    names = [f"theta_{g + 1}" for g in range(n_views)] + ["All"]
    header = ["row_id"] + [f"class_{c}" for c in range(n_classes)]
    fmt = "%d" + ",%.10g" * n_classes
    for m, name in enumerate(names):
        sharp = 2.5 if name == "All" else 0.8 + 0.2 * m
        z = sharp * np.eye(n_classes)[truth] + rng.normal(size=(truth.shape[0], n_classes))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        rows = np.column_stack([np.arange(truth.shape[0]), e / e.sum(axis=1, keepdims=True)])
        lines = _write_table(proba_dir / f"{name}.csv", header, fmt, rows)
        out[name] = _parse(lines, range(1, n_classes + 1))
    return out


def _write_matrices(
    out_dir: Path, rng: np.random.Generator, n_runs: int, metrics, noise_model: bool
) -> dict[str, Matrix]:
    """Run matrices with a benchmark column `All`, an exact copy of it
    (must tie), a large planted shift (must win, or lose on a
    lower-is-better metric) and optionally a noise model near the benchmark."""
    names = ["All", "All_copy", "shift"] + (["m1"] if noise_model else [])
    out = {}
    for metric, centre, sd, higher in metrics:
        base = centre + sd * rng.normal(size=n_runs)
        cols = [base, base, base + 20 * sd]
        if noise_model:
            cols.append(base + sd * rng.normal(-0.3, 1.0, size=n_runs))
        path = out_dir / f"matrix_{metric}.csv"
        lines = _write_table(path, names, ",".join(["%.6f"] * len(names)), np.stack(cols, axis=1))
        out[metric] = Matrix(path, _parse(lines, range(len(names))), names, higher)
    return out


def _stats_args(matrices: dict[str, Matrix], bootstrap: int | None) -> list[str]:
    args = []
    for metric, m in matrices.items():
        args += ["--matrix", f"{metric}={m.path.as_posix()}"]
        if not m.higher_is_better:
            args += ["--lower-better", metric]
    args += ["--benchmark", "All"]
    if bootstrap is not None:
        args += ["--bootstrap", str(bootstrap)]
    return args


def _wide(rng):
    """10k x 500 shape of the package's scale test, scaled to 3k x 150."""
    n, p, k = 3000, 150, 10
    y = rng.integers(0, k, n)
    X = rng.normal(size=(n, p))
    for j in range(5):  # planted signal: each column separates two classes
        X[:, j] += 1.5 * (y == (2 * j) % k) - 1.5 * (y == (2 * j + 1) % k)
    return X, y, k, ["--views", "5"], 5


def _lowcard(rng, n_latent: int = 12):
    """Every column is 2*L_a + L_b for one pair of binary latents, so the
    features determine the latent state and H(F) stays below log2(n)."""
    n = 6_000
    p = np.linspace(0.3, 0.5, n_latent)
    L = (rng.random((n, n_latent)) < p).astype(np.int64)
    pairs = list(itertools.combinations(range(n_latent), 2))
    X = np.stack([2 * L[:, a] + L[:, b] for a, b in pairs], axis=1).astype(np.float64)
    y = (L[:, 0] + L[:, 1] + L[:, 2]) % 3
    noisy = rng.random(n) < 0.1
    y[noisy] = rng.integers(0, 3, int(noisy.sum()))
    return X, y, 3, ["--remove-frac", "0.2"], 5, L, pairs


def generate(name: str, seed: int, root: Path) -> Inputs:
    """Write the inputs of workload `name` for `seed` under `root`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    root.mkdir(parents=True, exist_ok=True)
    latents, pairs = None, []
    if name == "wide":
        X, y, k, pargs, n_views = _wide(rng)
    else:
        X, y, k, pargs, n_views, latents, pairs = _lowcard(rng)
    data_csv = root / "data.csv"
    features, target = _write_dataset(data_csv, X, y)
    train_rows, test_rows = _split_rows(target, k)
    proba_dir = root / "proba"
    # Only lowcard also runs the import path of evaluate.
    probas = _write_probas(proba_dir, rng, target[test_rows], k, n_views) if name == "lowcard" else {}
    if name == "lowcard":
        matrices = _write_matrices(
            root, rng, 30,
            [("auc", 0.8, 0.02, True), ("f1", 0.7, 0.03, True), ("log_loss", 0.9, 0.05, False)],
            noise_model=False,
        )
        bootstrap = None  # the CLI default, 10,000 replicates
    else:
        matrices = _write_matrices(
            root, rng, 12, [("auc", 0.8, 0.02, True), ("log_loss", 0.9, 0.05, False)], noise_model=True
        )
        bootstrap = 1000
    return Inputs(
        proba_dir=proba_dir,
        features=features,
        target=target,
        n_classes=k,
        train_rows=train_rows,
        test_rows=test_rows,
        partition_args=["--input", data_csv.as_posix(), "--target", "label"] + pargs,
        probas=probas,
        matrices=matrices,
        stats_args=_stats_args(matrices, bootstrap),
        latents=latents,
        column_latents=pairs,
    )
