"""Checks of the program's outputs.

Every check recomputes its reference apart from the package (row-tuple
counting with np.unique, brute-force sign counts, scipy's Friedman test) or
tests a property the method must have. The only package function used is
`spfp.dataset.split`, through workloads.py, to re-derive the train/test
rows. Each function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import friedmanchisquare

from workloads import Inputs

TOL = 1e-9


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def codes_of(features: np.ndarray, bins: int) -> np.ndarray:
    """Equal-frequency cut of every column at its quantiles; integral
    columns with at most `bins` values keep their own values."""
    out = np.empty(features.shape, dtype=np.int64)
    for j in range(features.shape[1]):
        col = features[:, j]
        values = np.unique(col)
        if values.size <= bins and np.all(col == np.floor(col)):
            out[:, j] = np.searchsorted(values, col)
        else:
            edges = np.unique(np.quantile(col, np.arange(1, bins) / bins))
            out[:, j] = np.searchsorted(edges, col, side="left")
    return out


def groups(*blocks: np.ndarray) -> np.ndarray:
    """Dense id of each row's value tuple over the given columns."""
    columns = [c[:, None] if c.ndim == 1 else c for c in blocks]
    key = np.zeros(columns[0].shape[0], dtype=np.int64)
    for block in columns:
        for col in block.T:
            _, key = np.unique(key * (int(col.max()) + 1) + col, return_inverse=True)
    return key


def entropy_bits(*blocks: np.ndarray) -> float:
    """Plug-in joint entropy, in bits, of the row tuples."""
    p = np.bincount(groups(*blocks)) / blocks[0].shape[0]
    return float(-(p * np.log2(p)).sum())


class TrainView:
    """Training rows of a workload as the CLI sees them."""

    def __init__(self, inp: Inputs, bins: int) -> None:
        self.codes = codes_of(inp.features[inp.train_rows], bins)
        self.y = inp.target[inp.train_rows]


# ---------------------------------------------------------------------------
# partition


def check_partition(out: Path, inp: Inputs) -> list[str]:
    doc = _load(out / "views.json")
    stats = _load(out / "view_stats.json")
    cfg = doc["config"]
    problems = []
    if cfg["discretizer"] != "equal_frequency":
        return [f"partition: checks cover equal_frequency only, got {cfg['discretizer']}"]
    train = TrainView(inp, cfg["bins"])
    n_feat = train.codes.shape[1]
    h_f = entropy_bits(train.codes)
    h_fy = entropy_bits(train.codes, train.y)
    if not (_close(doc["h_f"], h_f) and _close(doc["h_fy"], h_fy)):
        problems.append(f"partition: H(F), H(F,Y) = {doc['h_f']}, {doc['h_fy']}; counted {h_f}, {h_fy}")
    mf = cfg["min_features"]
    n_min = max(1, math.ceil(mf * n_feat)) if 0 < mf < 1 else int(mf)
    tol = cfg["entropy_tolerance"]
    view_ids = [v["features"]["indices"] for v in doc["views"]]
    for g, (v, ids) in enumerate(zip(doc["views"], view_ids), start=1):
        h_s = entropy_bits(train.codes[:, ids])
        h_sy = entropy_bits(train.codes[:, ids], train.y)
        if not (_close(v["h_s"], h_s) and _close(v["h_sy"], h_sy)):
            problems.append(f"partition: view {g} H(S), H(S,Y) = {v['h_s']}, {v['h_sy']}; counted {h_s}, {h_sy}")
        if h_s > h_f + TOL or h_sy > h_fy + TOL:
            problems.append(f"partition: view {g} holds more information than F")
        if v["termination"] == "criteria_met":
            if len(ids) < n_min or h_s < h_f * (1 - tol) - TOL or h_sy < h_fy * (1 - tol) - TOL:
                problems.append(f"partition: view {g} is criteria_met without meeting the criteria")
            if inp.latents is not None:
                covered = {lat for j in ids for lat in inp.column_latents[j]}
                if len(covered) != inp.latents.shape[1]:
                    problems.append(f"partition: view {g} covers latents {sorted(covered)} only")
        removed = doc["removed"][g - 1]
        if not set(removed) <= set(ids):
            problems.append(f"partition: view {g} removed features outside the view")
        if len(removed) != math.floor(cfg["remove_fraction"] * len(ids) + 0.5):
            problems.append(f"partition: view {g} removed {len(removed)} of {len(ids)} features")
        if any(set(removed) & set(later) for later in view_ids[g:]):
            problems.append(f"partition: a feature removed after view {g} appears in a later view")
    sets = [set(ids) for ids in view_ids]
    if doc["union"] != sorted(set().union(*sets)):
        problems.append("partition: union does not match the views")
    if doc["intersection"] != sorted(set.intersection(*sets)):
        problems.append("partition: intersection does not match the views")
    if stats["view_sizes"] != [len(ids) for ids in view_ids]:
        problems.append("partition: view_stats sizes do not match the views")
    if stats["overlap"] != [[len(a & b) for b in sets] for a in sets]:
        problems.append("partition: view_stats overlap does not match the views")
    if inp.latents is not None:
        h_lat = entropy_bits(inp.latents[inp.train_rows])
        if not _close(doc["h_f"], h_lat):
            problems.append(f"partition: H(F) = {doc['h_f']} but the latent states give {h_lat}")
    return problems


# ---------------------------------------------------------------------------
# evaluate


def _auc_ovr(proba: np.ndarray, truth: np.ndarray) -> float:
    """Macro one-vs-rest AUC by counting, for every positive row, the
    negatives scored below it (ties count one half)."""
    per_class = []
    for c in range(proba.shape[1]):
        pos = proba[truth == c, c]
        neg = np.sort(proba[truth != c, c])
        if pos.size == 0 or neg.size == 0:
            continue
        below = np.searchsorted(neg, pos, side="left").sum()
        ties = np.searchsorted(neg, pos, side="right").sum() - below
        per_class.append((below + 0.5 * ties) / (pos.size * neg.size))
    return float(np.mean(per_class))


def _scores(proba: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    p_true = np.clip(proba[np.arange(truth.shape[0]), truth], 1e-15, 1 - 1e-15)
    return {
        "f1_micro": float((proba.argmax(axis=1) == truth).mean()),
        "log_loss": float(-np.log2(p_true).mean()),
        "auc": _auc_ovr(proba, truth),
    }


def check_evaluate(out: Path, inp: Inputs, imported: bool) -> list[str]:
    doc = _load(out / "metrics.json")
    models = doc["models"]
    problems = []
    h_max = math.log2(inp.n_classes) + TOL
    for name, m in models.items():
        ok = 0 <= m["f1_micro"] <= 1 and 0 <= m["auc"] <= 1 and 0 <= m["log_loss"] < math.inf
        ok = ok and all(m[k] is None or 0 <= m[k] <= h_max for k in ("mec", "mew"))
        if not ok:
            problems.append(f"evaluate: {name} has a value out of range: {m}")
    for name, ens in doc["ensembles"].items():
        k = int(name.split(":")[1])
        kept = [f"theta_{i}" for i in range(1, k + 1) if doc["member_auc"][f"theta_{i}"] > 0]
        if ens["members"] != kept:
            problems.append(f"evaluate: {name} members {ens['members']}, expected {kept}")
            continue
        aucs = np.array([doc["member_auc"][m] for m in kept])
        if not np.allclose(ens["weights"], aucs / aucs.sum(), rtol=TOL, atol=0):
            problems.append(f"evaluate: {name} weights are not the normalised member AUCs")
        mean_ll = sum(w * models[k]["log_loss"] for w, k in zip(ens["weights"], ens["members"]))
        if models[name]["log_loss"] > mean_ll + TOL:
            problems.append(f"evaluate: {name} log-loss exceeds its members' weighted mean")
    if "All" not in models or models["All"]["auc"] <= 0.6:
        problems.append("evaluate: All AUC is not clearly above 0.5")
    if imported:
        truth = inp.target[inp.test_rows]
        probas = dict(inp.probas)
        for name, ens in doc["ensembles"].items():
            probas[name] = sum(w * inp.probas[k] for w, k in zip(ens["weights"], ens["members"]))
        for name, proba in probas.items():
            for key, value in _scores(proba, truth).items():
                if not _close(models[name][key], value):
                    problems.append(f"evaluate: {name} {key} = {models[name][key]}, recounted {value}")
    return problems


# ---------------------------------------------------------------------------
# diagnose


def check_diagnose(out: Path, inp: Inputs) -> list[str]:
    doc = _load(out / "independence.json")
    views = _load(out / "views.json")
    train = TrainView(inp, doc["config"]["bins"])
    cmi = np.asarray(doc["pairwise_cmi"])
    problems = []
    if not (np.array_equal(cmi, cmi.T) and (cmi >= 0).all()):
        problems.append("diagnose: CMI matrix is not symmetric and non-negative")
    view_groups = [groups(train.codes[:, v["features"]["indices"]]) for v in views["views"]]
    h_y = entropy_bits(train.y)
    h_vy = [entropy_bits(g, train.y) for g in view_groups]
    for a in range(len(view_groups)):
        for b in range(a, len(view_groups)):
            h_aby = entropy_bits(view_groups[a], view_groups[b], train.y)
            value = max(0.0, h_vy[a] + h_vy[b] - h_aby - h_y)
            if abs(cmi[a, b] - value) > TOL:
                problems.append(f"diagnose: CMI({a + 1},{b + 1}) = {cmi[a, b]}, counted {value}")
    if not (_close(doc["h_f"], entropy_bits(train.codes)) and _close(doc["h_y"], h_y)):
        problems.append("diagnose: H(F) or H(Y) differs from the count")
    return problems


# ---------------------------------------------------------------------------
# stats


def check_stats(out: Path, inp: Inputs) -> list[str]:
    doc = _load(out / "verdicts.json")
    problems = []
    for metric, m in inp.matrices.items():
        entry = doc["metrics"][metric]
        expected = float(friedmanchisquare(*m.values.T).statistic)
        if not _close(entry["friedman"]["statistic"], expected):
            problems.append(f"stats: {metric} Friedman {entry['friedman']['statistic']}, scipy {expected}")
        sign = 1.0 if m.higher_is_better else -1.0
        bench = sign * m.values[:, m.names.index("All")]
        for model, v in entry["verdicts"].items():
            vals = sign * m.values[:, m.names.index(model)]
            delta = float(np.sign(vals[:, None] - bench[None, :]).mean())
            if abs(v["delta"] - delta) > 1e-12:
                problems.append(f"stats: {metric}/{model} delta {v['delta']}, sign count {delta}")
            lo, hi = v["ci"]
            if not -1.0 <= lo <= hi <= 1.0:
                problems.append(f"stats: {metric}/{model} CI {v['ci']} is not ordered inside [-1, 1]")
        want = "win" if m.higher_is_better else "loss"
        if entry["verdicts"]["shift"]["outcome"] != want:
            problems.append(f"stats: {metric} planted shift is not a {want}")
        copy = entry["verdicts"]["All_copy"]
        if copy["outcome"] != "tie" or copy["delta"] != 0.0:
            problems.append(f"stats: {metric} copy of the benchmark does not tie")
    return problems


CHECKS = {
    "partition": check_partition,
    "evaluate": lambda out, inp: check_evaluate(out, inp, imported=False),
    "import": lambda out, inp: check_evaluate(out, inp, imported=True),
    "diagnose": check_diagnose,
    "stats": check_stats,
}
