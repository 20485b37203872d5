"""Command-line surface of the pipeline.

Four subcommands: `partition` builds views from a CSV dataset, `evaluate`
trains per-view baseline models (or ingests imported probability CSVs) and
reports metrics for views, prefix ensembles, and the all-features
benchmark, `diagnose` checks the pairwise conditional-independence
assumption, `stats` runs the rank-based comparison over run matrices.
`partition` and `diagnose` never load `ensemble` or `evalstats`, and
`stats` never loads `ensemble`. No command loads `numpy.ma`, which numpy
imports on a call of `np.unique` without return flags, `np.quantile` or
`np.median`, so no stage calls any of them. The parse-cache key is a
CRC-32 and the cache holds each row's split role, so `evaluate` and
`diagnose` on a cache hit never draw from `numpy.random`, which imports
`secrets` and with it OpenSSL's libcrypto; `partition` and `stats` do.

`partition` leaves a parse cache beside views.json: the parsed table, each
row's role in the train/test and holdout splits and the training rows'
codes. While its key matches (the CRC-32 and byte count of the CSV and the
config keys the parse and splits depend on) `evaluate` and `diagnose` read
all they need from it, and otherwise parse the CSV and draw the rows as
`partition` does. It is not an artifact and is safe to delete.

All JSON artifacts are deterministic byte-for-byte under identical inputs
and seed: wall-clock values never enter them and land in the run_log.json
sidecar instead. Exit codes: 0 ok, 2 configuration error, 3 data error,
4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import shutil
import sys
import time
import warnings
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dataset import (
    MISSING_POLICIES, Dataset, SplitSpec, _file_errors, discretize, load_csv, split_rows,
)
from .errors import ConfigError, DataError, SpfpError
from .partitioning import (
    FRACTION,
    MIN_COUNT,
    Range,
    SpfpConfig,
    conditional_independence_report,
    config_key,
    partition,
    require,
    view_stats,
)
from .seeding import HOLDOUT_STREAM

if TYPE_CHECKING:
    from .ensemble import ProbModel
    from .evalstats import RunMatrix

__all__ = ["RunConfig", "main", "build_parser", "FORMAT_VERSION"]

FORMAT_VERSION = 8
EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL = 0, 2, 3, 4


@dataclass(kw_only=True)
class RunConfig(SpfpConfig):
    """Everything a run needs, persisted inside every artifact.

    Written into views.json by `partition`; `evaluate` and `diagnose` read
    it back so later stages re-derive the identical train/test split.
    """

    input: str
    target: str
    out: str = "."
    test_fraction: float = config_key(0.33, FRACTION)
    missing_policy: str = config_key("error", *MISSING_POLICIES)
    holdout_fraction: float = config_key(0.2, FRACTION)
    l2: float = config_key(1e-4, Range(0.0))
    max_iters: int = config_key(500, Range(1))
    opt_tol: float = config_key(1e-6, Range(0.0, closed=False))
    format_version: int = config_key(FORMAT_VERSION, Range(1, FORMAT_VERSION))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        version = doc.get("format_version", 1)
        if type(version) is not int:  # the compatibility steps below compare it
            raise ConfigError(f"config key 'format_version' must be int, got {version!r}")
        require("format_version", version, _KEYS["format_version"].metadata["allowed"])
        if version < 2:
            # Format 1 carried the thread count of a since-removed pool;
            # it never changed a result.
            doc = {k: v for k, v in doc.items() if k != "workers"}
        if doc.get("discretizer") == "passthrough_if_integral":
            # A since-removed alias that gave the codes of equal_frequency.
            doc = {**doc, "discretizer": "equal_frequency"}
        if version < FORMAT_VERSION:
            # Format 3 changed only the bootstrap intervals of `stats`,
            # format 4 only its p-values, formats 5 and 7 only how the
            # built-in model is trained and format 6 only the last bits of
            # entropies; no config key selects any of them, so older configs
            # read as current. Format 8 made the one-vs-rest relevance the
            # only rule and dropped the key that chose it; no later stage
            # reads how a file's views were scored.
            doc = {k: v for k, v in doc.items() if k != "relevance_correlation"}
            doc["format_version"] = FORMAT_VERSION
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"input", "target"} - set(doc)
        if missing:
            raise ConfigError(f"config missing required keys: {sorted(missing)}")
        return cls(**doc)


_KEYS = {f.name: f for f in fields(RunConfig)}


def _config_flags(args) -> dict:
    """The config keys set by flags: an absent flag sets no attribute."""
    return {k: v for k, v in vars(args).items() if k in _KEYS}


def _writable(path: Path) -> Path:
    """`path`, its directory created; a directory that cannot be made is a
    DataError naming `path`. Each stage makes its first artifact's directory
    before it reads any input."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    return path


def _write_json(path: Path, doc: dict) -> None:
    """Write `doc` as sorted, indented JSON; a path that cannot be written
    is a DataError naming it."""
    _writable(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _artifact(path: Path, config: dict, body: dict) -> None:
    """Write an artifact: `body` with the format version and the run's config."""
    _write_json(path, {"format_version": FORMAT_VERSION, "config": config, **body})


def _update_run_log(out: Path, command: str, started: tuple[float, float], entry: dict) -> None:
    """Sidecar for timings and timestamps, keyed by command; deliberately
    the only artifact allowed to differ between reruns. `started` is the
    command's ``(time.time(), time.perf_counter())`` at its start."""
    entry = {"started_unix": started[0], "elapsed_seconds": time.perf_counter() - started[1],
             **entry}
    path = out / "run_log.json"
    try:
        log = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        log = None
    log = log if isinstance(log, dict) else {}  # absent, unreadable or not an object
    log[command] = entry
    _write_json(path, log)


# ---------------------------------------------------------------------------
# loading: from the parse cache or the CSV

CACHE_DIR = ".spfp_cache"
# The config keys the cached values depend on; with the CRC-32 and byte count
# of the CSV and FORMAT_VERSION they are the cache's key. A CRC-32 lets an
# accidental same-length edit through about once in 2**32 (a SHA-256 about
# once in 2**256) and catches every burst edit of 32 bits or less; it costs
# about a third as much as a SHA-256, whose import would map OpenSSL's
# libcrypto (3.4 MB RSS) into `diagnose` and `evaluate`.
_CACHE_KEYS = ("target", "missing_policy", "test_fraction", "holdout_fraction", "seed", "bins",
               "discretizer")


def _cache_key(rc: RunConfig) -> dict | None:
    """The key of the values parsed from `rc`'s CSV; None if it cannot be read."""
    crc = n_bytes = 0
    try:
        with open(rc.input, "rb") as fh:
            # 64 KiB reads stay below glibc's 128 KiB mmap threshold: a freed
            # 1 MiB read raised it, and the parse's large buffers then stayed
            # on the heap, 0.5-1.1 MB more peak RSS on the benchmark tables.
            while chunk := fh.read(1 << 16):
                crc = zlib.crc32(chunk, crc)
                n_bytes += len(chunk)
    except OSError:
        return None
    return {"crc32": crc, "n_bytes": n_bytes, "format_version": FORMAT_VERSION,
            **{k: getattr(rc, k) for k in _CACHE_KEYS}}


def _save_cache(cache: Path, arrays: dict, meta: dict | None = None) -> None:
    """Save `arrays` as .npy files, then `meta` as key.json, which makes the
    cache valid. `partition` clears the directory before its first save, so
    a cache in the middle of a write has no key.json and reads as a miss; a
    cache that cannot be written is removed."""
    try:
        cache.mkdir(parents=True, exist_ok=True)
        for name, a in arrays.items():
            np.save(cache / f"{name}.npy", a, allow_pickle=False)
        if meta is not None:
            _write_json(cache / "key.json", meta)
    except (OSError, DataError):
        shutil.rmtree(cache, ignore_errors=True)


def _read_cache(cache: Path, rc: RunConfig, *names: str) -> tuple[dict, dict] | None:
    """key.json and the arrays `names` of the cache, if its key is `rc`'s;
    None, a miss, if the cache is absent, stale, unreadable or malformed."""
    try:
        meta = json.loads((cache / "key.json").read_text(encoding="utf-8"))
        key = _cache_key(rc)
        if key is None or meta["key"] != key:
            return None
        n, n_train, width = meta["n_rows"], meta["n_train_rows"], len(meta["feature_names"])
        n_holdout = meta["n_holdout_rows"]
        expected = {  # dtype and shape: the parsed table, then the training rows
            "features": (np.float64, (n, width)), "target": (np.intp, (n,)),
            "rows": (np.int8, (n,)),
            # discretize's code dtype; codes saved in another one read as a miss
            "codes": (np.min_scalar_type(rc.bins - 1), (n_train, width)),
            "train_target": (np.intp, (n_train,)),
        }
        arrays = {}
        for name in names:
            a = np.load(cache / f"{name}.npy", allow_pickle=False)
            if (a.dtype, a.shape) != expected[name]:
                return None
            arrays[name] = a
        # each role's row count must be key.json's; a negative role raises
        if "rows" in arrays and np.bincount(arrays["rows"], minlength=3).tolist() != [
                n_train - n_holdout, n_holdout, n - n_train]:
            return None
    except (OSError, EOFError, ValueError, KeyError, TypeError):
        return None
    return meta, arrays


# Each row's role in rows.npy: the outer split's test rows, and the training
# rows split again into the inner training rows and the holdout.
ROLE_TRAIN, ROLE_HOLDOUT, ROLE_TEST = 0, 1, 2


def _draw_holdout(roles: np.ndarray, d: Dataset, rc: RunConfig) -> None:
    """Mark in `roles` the holdout that the holdout split of `d`'s training
    rows draws; it reads their targets alone."""
    train_idx = np.flatnonzero(roles != ROLE_TEST)
    train = Dataset(np.empty((train_idx.size, 0)), (), d.target[train_idx], d.class_names)
    _, held = split_rows(train, SplitSpec(rc.holdout_fraction, rc.seed), HOLDOUT_STREAM)
    roles[train_idx[held]] = ROLE_HOLDOUT


def _draw_roles(d: Dataset, rc: RunConfig) -> np.ndarray:
    """Each row's role as `partition` draws it: the outer train/test split,
    then the holdout split of the training rows. Where a class has a single
    training row no row is holdout; `evaluate` reports the class."""
    _, test_idx = split_rows(d, SplitSpec(rc.test_fraction, rc.seed))
    roles = np.full(d.n_rows, ROLE_TRAIN, dtype=np.int8)
    roles[test_idx] = ROLE_TEST
    try:
        _draw_holdout(roles, d, rc)
    except DataError:
        pass
    return roles


def _load_and_split(
    rc: RunConfig, cache: Path, built_in: bool = True
) -> tuple[Dataset, np.ndarray, dict]:
    """The dataset, each row's role and the load log for run_log.json. A hit
    reads the roles from rows.npy; a miss parses the CSV and draws them as
    `partition` does. Without `built_in` a hit reads the target alone, as
    the split does, and the dataset holds no feature columns."""
    hit = _read_cache(cache, rc, *(("features",) if built_in else ()), "target", "rows")
    if hit is None:
        d = load_csv(rc.input, rc.target, missing_policy=rc.missing_policy)
        return d, _draw_roles(d, rc), {**_load_counters(d), "parse_cache": "miss"}
    meta, arrays = hit
    table = arrays.get("features", np.empty((meta["n_rows"], 0)))
    d = Dataset(table, tuple(meta["feature_names"]), arrays["target"],
                tuple(meta["class_names"]))
    return d, arrays["rows"], {**meta["load_counters"], "parse_cache": "hit"}


def _load_train(rc: RunConfig, cache: Path | None = None) -> tuple[Dataset, np.ndarray, dict]:
    """The training rows of the dataset, each row's role and the load
    counters, without building the test rows or keeping the full table:
    `partition` and `diagnose` read the training rows alone. With `cache`,
    the parsed table and the roles are saved there before the table is
    dropped."""
    d = load_csv(rc.input, rc.target, missing_policy=rc.missing_policy)
    roles = _draw_roles(d, rc)
    if cache is not None:
        _save_cache(cache, {"features": d.features, "target": d.target, "rows": roles})
    return d.subset(np.flatnonzero(roles != ROLE_TEST)), roles, _load_counters(d)


def _load_counters(d: Dataset) -> dict:
    """What the missing-value policy did to the input, for run_log.json."""
    return {"rows_rejected": d.n_rejected_rows, "cells_imputed": d.n_imputed_cells}


def _read_views_doc(args) -> tuple[dict, RunConfig, Path]:
    """The views file, its config with the stage's flags applied, and the
    parse cache beside it."""
    path = Path(args.views_file) if args.views_file else Path(args.out) / "views.json"
    if not path.exists():
        raise DataError(f"views file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read views file {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"views file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "config" not in doc or "views" not in doc:
        raise DataError(f"views file {path} lacks config/views")
    if not isinstance(doc["config"], dict) or not isinstance(doc["views"], list):
        raise DataError(f"views file {path}: config must be an object and views a list")
    if not doc["views"]:
        raise DataError(f"views file {path} holds no views")
    rc = RunConfig.from_dict(doc["config"])
    # the file's own format_version, by the config key's rule, must be the config's
    version, config_version = doc.get("format_version"), doc["config"].get("format_version", 1)
    if type(version) is not int:
        raise ConfigError(f"views file format_version must be int, got {version!r}")
    require("views file format_version", version, _KEYS["format_version"].metadata["allowed"])
    if version != config_version:
        raise ConfigError(
            f"views file format_version {version} differs from its config's {config_version}"
        )
    return doc, replace(rc, **_config_flags(args)), path.parent / CACHE_DIR


def _view_ids(doc: dict, feature_names) -> list[list[int]]:
    """Each view's feature indices from a views file, checked against the
    feature names of the dataset the file is applied to."""
    if list(feature_names) != list(doc.get("feature_names", feature_names)):
        raise DataError("dataset columns do not match the views file")
    n_features = len(feature_names)
    view_ids = []
    for g, v in enumerate(doc["views"], start=1):
        try:
            ids = v["features"]["indices"]
        except (KeyError, TypeError):
            raise DataError(f"view {g} in the views file has no features.indices") from None
        valid = (
            isinstance(ids, list)
            and ids
            and all(type(i) is int and 0 <= i < n_features for i in ids)
            and len(set(ids)) == len(ids)
        )
        if not valid:
            raise DataError(
                f"view {g} indices must be a non-empty list of ints in "
                f"[0, {n_features}) without repeats, got {ids!r}"
            )
        view_ids.append(ids)
    return view_ids


# ---------------------------------------------------------------------------
# partition


def cmd_partition(args) -> int:
    rc = RunConfig(**_config_flags(args))
    started = time.time(), time.perf_counter()
    out = _writable(Path(rc.out) / "views.json").parent
    cache, key = out / CACHE_DIR, _cache_key(rc)
    shutil.rmtree(cache, ignore_errors=True)  # then it holds what this run writes
    train, roles, load_counters = _load_train(rc, cache)
    _, n_holdout_rows, n_test_rows = np.bincount(roles, minlength=3).tolist()
    codes = discretize(train, rc.bins, rc.discretizer)
    _save_cache(
        cache,
        {"codes": codes, "train_target": train.target},
        {"key": key, "n_rows": roles.size, "n_train_rows": train.n_rows,
         "feature_names": list(train.feature_names), "class_names": list(train.class_names),
         "load_counters": load_counters, "n_holdout_rows": n_holdout_rows},
    )
    vs = partition(train, rc, codes)

    _artifact(out / "views.json", rc.to_dict(), {
        "seed": rc.seed,
        "n_features": train.n_features,
        "n_train_rows": train.n_rows,
        "n_test_rows": n_test_rows,
        "feature_names": list(train.feature_names),
        "h_f": vs.h_f,
        "h_fy": vs.h_fy,
        "views": [
            {
                "features": {
                    "indices": list(v.feature_ids),
                    "names": [train.feature_names[i] for i in v.feature_ids],
                },
                "scores": list(v.scores),
                "h_s": v.h_s,
                "h_sy": v.h_sy,
                "termination": v.termination,
            }
            for v in vs.views
        ],
        "union": vs.union_ids,
        "intersection": vs.intersection_ids,
        "removed": [list(r) for r in vs.removed_log],
    })
    _artifact(out / "view_stats.json", rc.to_dict(), view_stats(vs))
    _update_run_log(
        out,
        "partition",
        started,
        {
            "view_elapsed_seconds": list(vs.elapsed),
            "winner_sweeps": vs.winner_sweeps,
            "winner_memo_hits": vs.winner_memo_hits,
            "pairs_counted": vs.pairs_counted,
            **load_counters,
        },
    )

    print(f"partitioned {train.n_features} features into {len(vs.views)} views")
    for g, v in enumerate(vs.views, start=1):
        print(
            f"  view {g}: {len(v)} features, H(S)={v.h_s:.6f}, "
            f"H(S,Y)={v.h_sy:.6f}, {v.termination}"
        )
    print(f"union {len(vs.union_ids)}, intersection {len(vs.intersection_ids)}")
    print(f"wrote {out / 'views.json'} and {out / 'view_stats.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _parsed(convert, text: str):
    """``convert(text)``, or None where the text does not parse."""
    try:
        return convert(text)
    except ValueError:
        return None


def _csv_records(path: Path) -> list[list[str]]:
    """The records of a UTF-8 CSV file, a leading byte-order mark skipped;
    blank lines are no records."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, _file_errors(path):
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_proba_csv(path: Path, n_rows: int, n_classes: int) -> np.ndarray:
    """Parse one imported prediction file and validate the contract:
    header row_id,class_0..class_{C-1}; row ids 0..n-1 in order; rows are
    probability vectors."""
    expected = ["row_id"] + [f"class_{c}" for c in range(n_classes)]
    rows = _csv_records(path)
    if not rows or rows[0] != expected:
        raise DataError(f"{path.name}: header must be {','.join(expected)}")
    body = rows[1:]
    if len(body) != n_rows:
        raise DataError(f"{path.name}: expected {n_rows} rows, found {len(body)}")
    # The checks run at once on the rows before the first of the wrong
    # width. The first row that fails one is reported with the first it
    # fails, in the order listed; the row that ended the block only if none
    # does.
    end = next((i for i, row in enumerate(body) if len(row) != n_classes + 1), n_rows)
    ids = np.array([_parsed(int, row[0]) for row in body[:end]], dtype=object)
    cells = [_parsed(float, text) for row in body[:end] for text in row[1:]]
    proba = np.array(cells, dtype=np.float64).reshape(end, n_classes)  # None reads NaN
    unparseable = np.equal(ids, None)
    for k in np.flatnonzero(np.isnan(proba)):  # a NaN, or a cell that did not parse
        unparseable[k // n_classes] |= cells[k] is None
    finite = np.isfinite(proba).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf in a row that is not finite
        sums = np.cumsum(proba, axis=1)[:, -1]  # left to right, as sum() adds
    checks = [
        (unparseable, lambda i: "unparseable value"),
        (ids != np.arange(end), lambda i: f"row_id {ids[i]} out of order"),
        (~finite, lambda i: "non-finite probability"),
        ((proba < 0.0).any(axis=1) | (proba > 1.0).any(axis=1),
         lambda i: "probabilities outside [0,1]"),
        (np.abs(sums - 1.0) > 1e-6, lambda i: f"probabilities sum to {sums[i]:.9f}, not 1"),
    ]
    faulty = np.logical_or.reduce([failed for failed, _ in checks])
    if faulty.any():
        i = int(faulty.argmax())
        message = next(describe(i) for failed, describe in checks if failed[i])
        raise DataError(f"{path.name} row {i}: {message}")
    if end < n_rows:
        raise DataError(f"{path.name} row {end}: wrong field count")
    return proba


def cmd_evaluate(args) -> int:
    from .ensemble import (
        ensemble_predict, metrics, normalized_weights, predict_proba, train_builtin,
    )

    doc, rc, cache = _read_views_doc(args)
    out = _writable(Path(rc.out) / "metrics.json").parent
    started = time.time(), time.perf_counter()
    # imported members need only the test rows' targets
    d, roles, load_log = _load_and_split(rc, cache, built_in=not args.import_proba)
    view_ids = _view_ids(doc, d.feature_names)
    members = [f"theta_{g + 1}" for g in range(len(view_ids))]
    n_classes = d.n_classes
    test = d.subset(np.flatnonzero(roles == ROLE_TEST))
    if not args.import_proba:
        if not (roles == ROLE_HOLDOUT).any():
            # a class with a single training row: the draw reports it, here
            # so that a views file that does not fit the dataset is reported first
            _draw_holdout(roles, d, rc)
        inner_train, holdout = (d.subset(np.flatnonzero(roles == role))
                                for role in (ROLE_TRAIN, ROLE_HOLDOUT))
    del d  # each model reads the rows of its role

    # Each branch fills the test-row probabilities of its models and times
    # what produced them; the built-in one also scores its members on the
    # holdout and keeps the models.
    probas: dict[str, np.ndarray] = {}
    elapsed: dict[str, float] = {}
    holdout_auc: list[float] = []
    trained: dict[str, ProbModel] = {}
    if args.import_proba:
        weighting = {"source": "imported_test"}
        for name in members + ["All"]:
            path = Path(args.import_proba) / f"{name}.csv"
            if name == "All" and not path.exists():
                print("note: no All.csv in import directory, skipping benchmark", file=sys.stderr)
                break
            tm = time.perf_counter()
            probas[name] = _read_proba_csv(path, test.n_rows, n_classes)
            elapsed[name] = time.perf_counter() - tm
    else:
        weighting = {"source": "train_holdout", "holdout_fraction": rc.holdout_fraction}

        def fit(name: str, x: np.ndarray, columns) -> ProbModel:
            """Model `name` on `x`, the features `columns`; train_builtin's
            overflow error names the model and the feature, not x's column."""
            try:
                return train_builtin(x, inner_train.target, l2=rc.l2, max_iters=rc.max_iters,
                                     tol=rc.opt_tol, n_classes=n_classes)
            except DataError as exc:
                column = re.match(r"column (\d+) of X: ", str(exc))
                if column is None:
                    raise
                feature = inner_train.feature_names[columns[int(column[1])]]
                raise DataError(f"model {name}, feature {feature!r}: {exc}") from None

        for name, ids in zip(members, view_ids):
            tm = time.perf_counter()
            model = trained[name] = fit(name, inner_train.features[:, ids], ids)
            holdout_auc.append(
                metrics(predict_proba(model, holdout.features[:, ids]), holdout.target).auc)
            probas[name] = predict_proba(model, test.features[:, ids])
            elapsed[name] = time.perf_counter() - tm
        del holdout  # `All` is scored on the test rows only
        tm = time.perf_counter()
        model = trained["All"] = fit("All", inner_train.features, range(inner_train.n_features))
        probas["All"] = predict_proba(model, test.features)
        elapsed["All"] = time.perf_counter() - tm

    reports = {name: metrics(p, test.target) for name, p in probas.items()}
    # imported members are weighted by their test AUC, having no holdout
    member_auc = holdout_auc or [reports[name].auc for name in members]
    ensembles: dict[str, dict] = {}
    for k in range(2, len(members) + 1):
        name = f"E_1:{k}"
        tm = time.perf_counter()
        kept, weights = normalized_weights(member_auc[:k])
        proba = ensemble_predict([probas[members[i]] for i in kept], weights)
        elapsed[name] = time.perf_counter() - tm
        reports[name] = metrics(proba, test.target)
        ensembles[name] = {"members": [members[i] for i in kept],
                           "weights": [float(w) for w in weights]}

    training = {name: {"iterations": m.iterations, "final_loss": m.final_loss,
                       "converged": m.iterations < rc.max_iters}
                for name, m in trained.items()}
    _artifact(out / "metrics.json", rc.to_dict(), {
        "weighting": weighting,
        "member_auc": dict(zip(members, member_auc)),
        "ensembles": ensembles,
        "training": training,
        "models": {name: rep.to_dict() for name, rep in reports.items()},
    })
    _update_run_log(
        out,
        "evaluate",
        started,
        {
            "model_elapsed_seconds": elapsed,
            "line_search": {name: {"evaluations": m.evaluations, "fallbacks": m.fallbacks}
                            for name, m in trained.items()},
            **load_log,
        },
    )

    for name in sorted(reports):
        rep = reports[name]
        print(
            f"{name}: f1={rep.f1_micro:.4f} auc={rep.auc:.4f} "
            f"log_loss={rep.log_loss:.4f}"
        )
    capped = [name for name, t in training.items() if not t["converged"]]
    if capped:
        warnings.warn(f"stopped at max_iters={rc.max_iters} before converging: "
                      + ", ".join(capped))
    print(f"wrote {out / 'metrics.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args) -> int:
    doc, rc, cache = _read_views_doc(args)
    out = _writable(Path(rc.out) / "independence.json").parent
    started = time.time(), time.perf_counter()
    hit = _read_cache(cache, rc, "codes", "train_target")
    if hit is None:
        train, _, load_log = _load_train(rc)
        load_log["parse_cache"] = "miss"
        view_ids = _view_ids(doc, train.feature_names)
        codes = discretize(train, rc.bins, rc.discretizer)
        target = train.target
        del train  # the report reads only the codes
    else:
        meta, arrays = hit
        load_log = {**meta["load_counters"], "parse_cache": "hit"}
        view_ids = _view_ids(doc, meta["feature_names"])
        codes, target = arrays["codes"], arrays["train_target"]
    report = conditional_independence_report(
        view_ids, codes, target, tolerance=rc.entropy_tolerance
    )
    _artifact(out / "independence.json", rc.to_dict(), report)
    _update_run_log(out, "diagnose", started, load_log)
    cmi = np.asarray(report["pairwise_cmi"])
    off = cmi[~np.eye(cmi.shape[0], dtype=bool)]
    print(f"max pairwise CMI given target: {off.max():.6f} bits")
    print(f"H(F)={report['h_f']:.6f} H(Y)={report['h_y']:.6f} "
          f"H(F)<=H(Y): {report['h_f_le_h_y']}")
    print(f"assumption violated: {report['assumption_violated']}")
    print(f"wrote {out / 'independence.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats


def _read_run_matrix(path: Path, lower_better: bool) -> RunMatrix:
    from .evalstats import RunMatrix

    rows = _csv_records(path)
    if len(rows) < 3:
        raise DataError(f"{path}: need a header and >= 2 run rows")
    names = [c.strip() for c in rows[0]]
    try:
        values = [[float(x) for x in row] for row in rows[1:]]
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell ({exc})") from exc
    if any(len(r) != len(names) for r in values):
        raise DataError(f"{path}: ragged rows")
    try:
        return RunMatrix(
            values=np.asarray(values),
            treatment_names=names,
            higher_is_better=not lower_better,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_stats(args) -> int:
    from .evalstats import BOOTSTRAP_BLOCK, win_tie_loss

    lower = set(args.lower_better or [])
    matrices: dict[str, RunMatrix] = {}
    for spec_item in args.matrix:
        if "=" not in spec_item:
            raise ConfigError(f"--matrix expects NAME=PATH, got {spec_item!r}")
        name, path = spec_item.split("=", 1)
        name = name.strip()
        if not name:
            raise ConfigError(f"--matrix expects NAME=PATH, got {spec_item!r}")
        if name in matrices:
            raise ConfigError(f"duplicate metric name {name!r}")
        matrices[name] = _read_run_matrix(Path(path), name in lower)
    unknown_lower = lower - set(matrices)
    if unknown_lower:
        raise ConfigError(f"--lower-better names without a matrix: {sorted(unknown_lower)}")

    out = _writable(Path(args.out) / "verdicts.json").parent
    started = time.time(), time.perf_counter()
    table = win_tie_loss(
        matrices,
        benchmark=args.benchmark,
        alpha=args.alpha,
        replicates=args.bootstrap,
        confidence=args.confidence,
        seed=args.seed,
    )
    config = {
        "alpha": args.alpha,
        "bootstrap_replicates": args.bootstrap,
        "confidence": args.confidence,
        "seed": args.seed,
        "benchmark": args.benchmark,
        "lower_better": sorted(lower),
        "friedman_p_adjustment": "bonferroni_across_metrics",
        "conover_p_adjustment": "benjamini_hochberg_within_metric",
        "conover_form": "rank_sum_t, pooled variance, df=(n-1)(k-1)",
    }
    results = {}
    for name, verdicts in table.items():
        statistic, p_raw = next(iter(verdicts.values())).friedman
        results[name] = {
            "friedman": {"statistic": statistic, "p": p_raw},
            "verdicts": {model: verdict.to_dict() for model, verdict in verdicts.items()},
        }
    _artifact(out / "verdicts.json", config, {"metrics": results})
    _update_run_log(
        out,
        "stats",
        started,
        {
            "comparisons": sum(len(verdicts) for verdicts in table.values()),
            # the metrics of one run count share one draw of bootstrap blocks
            "bootstrap_blocks_drawn": len({len(m.values) for m in matrices.values()})
            * math.ceil(args.bootstrap / BOOTSTRAP_BLOCK),
        },
    )

    for name in matrices:
        verdicts = table[name]
        wins = sum(1 for v in verdicts.values() if v.outcome == "win")
        ties = sum(1 for v in verdicts.values() if v.outcome == "tie")
        losses = sum(1 for v in verdicts.values() if v.outcome == "loss")
        print(f"{name}: W-T-L vs {args.benchmark} = {wins}-{ties}-{losses}")
    print(f"wrote {out / 'verdicts.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


def _flag(parser, flag: str, dest: str, *allowed, parse=None, **kw) -> None:
    """Add `flag` for `dest`, accepting `allowed` (by default the values
    declared for config key `dest`); a value outside them exits 2 with a
    message that names the flag."""
    allowed = allowed or _KEYS[dest].metadata["allowed"]
    if isinstance(allowed[0], str):
        kw["choices"] = allowed
    else:
        parse = parse or {"int": int, "float": float}[_KEYS[dest].type]

        def checked(text: str):
            value = parse(text)
            try:
                require(dest, value, allowed)
            except ConfigError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
            return value

        checked.__name__ = parse.__name__  # argparse names it in "invalid int value"
        kw["type"] = checked
    parser.add_argument(flag, dest=dest, **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spfp",
        description="Information-preserving feature partitioning and "
        "multi-view ensemble evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A config key's flag has no default: RunConfig's, or the views file's, applies.
    p = sub.add_parser("partition", help="build feature views from a CSV dataset",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True, help="dataset CSV path")
    p.add_argument("--target", required=True, help="target column name")
    _flag(p, "--views", "n_views", help="number of views")
    size = p.add_mutually_exclusive_group()
    _flag(size, "--min-frac", "min_features", FRACTION,
          help="minimum view size as a fraction of the feature count")
    _flag(size, "--min-count", "min_features", MIN_COUNT, parse=int,
          help="minimum view size as an absolute count")
    _flag(p, "--remove-frac", "remove_fraction",
          help="fraction of each view removed from the master pool")
    _flag(p, "--bins", "bins")
    _flag(p, "--discretizer", "discretizer")
    _flag(p, "--tolerance", "entropy_tolerance",
          help="relative tolerance for the entropy stopping criteria")
    _flag(p, "--seed", "seed")
    _flag(p, "--test-frac", "test_fraction")
    _flag(p, "--missing-policy", "missing_policy")
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition)

    e = sub.add_parser("evaluate", help="train/ingest per-view models and report metrics",
                       argument_default=argparse.SUPPRESS)
    e.add_argument("--views-file", default=None,
                   help="views.json path (default: <out>/views.json)")
    e.add_argument("--import-proba", default=None,
                   help="directory of imported prediction CSVs theta_k.csv (and All.csv)")
    _flag(e, "--holdout-frac", "holdout_fraction",
          help="training fraction held out for ensemble weights")
    e.add_argument("--out", default=RunConfig.out)  # never the views file's out
    e.set_defaults(func=cmd_evaluate)

    g = sub.add_parser("diagnose", help="pairwise conditional-independence report")
    g.add_argument("--views-file", default=None,
                   help="views.json path (default: <out>/views.json)")
    g.add_argument("--out", default=RunConfig.out)
    g.set_defaults(func=cmd_diagnose)

    s = sub.add_parser("stats", help="rank-based statistical comparison of run matrices")
    s.add_argument("--matrix", action="append", required=True, metavar="NAME=PATH",
                   help="metric run matrix CSV (runs x models, header = model names)")
    s.add_argument("--benchmark", required=True, help="benchmark model column name")
    s.add_argument("--lower-better", action="append", default=[], metavar="NAME",
                   help="metric for which lower values are better (repeatable)")
    _flag(s, "--alpha", "alpha", FRACTION, parse=float, default=0.05)
    _flag(s, "--bootstrap", "bootstrap", Range(100), parse=int, default=10_000)
    _flag(s, "--confidence", "confidence", FRACTION, parse=float, default=0.95)
    _flag(s, "--seed", "seed", default=RunConfig.seed)
    s.add_argument("--out", default=".")
    s.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # Each distinct library warning is one stderr line, even on failure.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return args.func(args)
            finally:
                for message in dict.fromkeys(str(w.message) for w in caught):
                    print(f"warning: {message}", file=sys.stderr)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SpfpError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
