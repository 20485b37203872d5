"""Release-gate checks for the whole package.

Each test covers one gate and prints a single pass line; run with
``pytest -v`` to get the matching one-line verdict per gate. The suite
is self-contained: oracles are recomputed from scratch here rather than
imported from the per-module test files; the scalar estimators come from
`oracles.py`.
"""

import json
import math
import os
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    interaction_gain,
    joint_entropy,
    max_ovr_pearson_abs,
    mutual_information,
)
from spfp.cli import main
from spfp.dataset import Dataset, discretize
from spfp.ensemble import metrics
from spfp.evalstats import (
    RunMatrix,
    adjust,
    bootstrap_ci,
    cliffs_delta,
    friedman,
    win_tie_loss,
)
from spfp.evalstats import _magnitude
from spfp.partitioning import SpfpConfig, partition


# ---------------------------------------------------------------------------
# helpers shared by several gates


def make_dataset(features, target) -> Dataset:
    features = np.asarray(features, dtype=np.float64)
    target = np.asarray(target, dtype=np.intp)
    classes = tuple(str(c) for c in range(int(target.max()) + 1))
    names = tuple(f"f{i}" for i in range(features.shape[1]))
    return Dataset(features=features, feature_names=names,
                   target=target, class_names=classes)


def random_dataset(rng, n_rows: int, n_features: int, n_classes: int = 2):
    X = rng.normal(size=(n_rows, n_features))
    for j in range(0, n_features, 3):
        X[:, j] = rng.integers(0, 3, size=n_rows)
    y = rng.integers(0, n_classes, size=n_rows)
    if np.unique(y).shape[0] < 2:
        y[0] = (y[0] + 1) % n_classes
    return make_dataset(X, y)


def counter_entropy(*columns) -> float:
    counts = Counter(zip(*(np.asarray(c).tolist() for c in columns)))
    n = sum(counts.values())
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def composite(columns, n_rows: int) -> np.ndarray:
    """Single integer code per row over a set of columns (empty set -> 0)."""
    if not columns:
        return np.zeros(n_rows, dtype=np.intp)
    stacked = np.column_stack([np.asarray(c) for c in columns])
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    return inverse.astype(np.intp)


def oracle_greedy(codes, raw, target, n_f, tol=1e-9):
    """Forward selection recomputing every objective term from scratch."""
    cols = [codes[:, j] for j in range(codes.shape[1])]
    h_f = joint_entropy(cols)
    h_fy = joint_entropy(cols + [target])
    pool = list(range(codes.shape[1]))
    selected: list = []
    while pool:
        chosen = [cols[j] for j in selected]
        h_s = joint_entropy(chosen) if selected else 0.0
        h_sy = joint_entropy(chosen + [target])
        if len(selected) >= n_f and h_s >= h_f * (1 - tol) and h_sy >= h_fy * (1 - tol):
            break
        best, best_score = None, -math.inf
        for c in pool:
            score = max_ovr_pearson_abs(raw[:, c], target)
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
        pool.remove(best)
    return selected


def write_bits_csv(path: Path) -> None:
    """4 latent bits x 3 copies, binary target = bit 0, 96 rows."""
    header = [f"f{j}" for j in range(12)] + ["y"]
    lines = [",".join(header)]
    for combo in range(16):
        bits = [(combo >> b) & 1 for b in range(4)]
        row = [str(bits[j % 4]) for j in range(12)]
        label = "pos" if bits[0] else "neg"
        for _ in range(6):
            lines.append(",".join(row + [label]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------


class TestAcceptance:
    def test_01_entropy_inequality_chain_fuzz(self):
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(10_000):
            n = int(rng.integers(1, 65))
            x = rng.integers(0, int(rng.integers(2, 5)), size=n)
            y = rng.integers(0, int(rng.integers(2, 5)), size=n)
            h_x = entropy(x)
            h_y = entropy(y)
            h_xy = joint_entropy([x, y])
            h_x_given_y = conditional_entropy(x, y)
            assert h_x_given_y >= -1e-9
            assert h_x_given_y <= h_x + 1e-9
            assert h_x <= h_xy + 1e-9
            assert h_xy <= h_x + h_y + 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"fuzz took {elapsed:.2f}s"
        print(f"pass: inequality chain held on 10000 random pairs "
              f"({elapsed:.2f}s)")

    def test_02_subset_monotonicity_and_chain_identity(self):
        rng = np.random.default_rng(2)
        t0 = time.perf_counter()
        for _ in range(200):
            k = int(rng.integers(1, 7))
            n = int(rng.integers(8, 65))
            cols = [rng.integers(0, int(rng.integers(2, 5)), size=n)
                    for _ in range(k)]
            y = rng.integers(0, int(rng.integers(2, 5)), size=n)
            h_f = joint_entropy(cols)
            mi_f = mutual_information(composite(cols, n), y)
            for mask in range(2 ** k):
                s = [cols[i] for i in range(k) if mask >> i & 1]
                rest = [cols[i] for i in range(k) if not mask >> i & 1]
                h_s = joint_entropy(s) if s else 0.0
                assert h_f >= h_s - 1e-9
                mi_s = mutual_information(composite(s, n), y)
                assert mi_f >= mi_s - 1e-9
                cmi = conditional_mutual_information(
                    composite(rest, n), y, composite(s, n)
                )
                assert abs(mi_f - (mi_s + cmi)) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"subset sweep took {elapsed:.2f}s"
        print(f"pass: subset monotonicity and chain identity on 200 "
              f"datasets ({elapsed:.2f}s)")

    def test_03_xor_parity_fixture(self):
        x1 = np.array([0, 0, 1, 1])
        x2 = np.array([0, 1, 0, 1])
        y = x1 ^ x2
        assert abs(interaction_gain(x1, x2, y) + 1.0) <= 1e-12
        assert abs(conditional_mutual_information(x1, x2, y) - 1.0) <= 1e-12
        print("pass: parity fixture gives gain -1 bit and CMI 1 bit")

    def test_04_selection_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n_feat = int(rng.integers(2, 9))
            n_rows = int(rng.integers(16, 65))
            d = random_dataset(rng, n_rows, n_feat,
                               n_classes=int(rng.integers(2, 4)))
            n_f = int(rng.integers(1, min(4, n_feat + 1)))
            cfg = SpfpConfig(n_views=1, min_features=n_f,
                             remove_fraction=0.0, bins=4, seed=trial)
            vs = partition(d, cfg)
            codes = discretize(d, bins=4)
            expected = oracle_greedy(codes, d.features, d.target, n_f)
            assert list(vs.views[0].feature_ids) == expected, f"trial {trial}"
        print("pass: greedy selection equals step-by-step brute force on "
              "50 datasets")

    def test_05_stopping_criteria_soundness(self):
        rng = np.random.default_rng(5)
        checked = 0
        for trial in range(8):
            d = random_dataset(rng, int(rng.integers(30, 65)),
                               int(rng.integers(5, 11)),
                               n_classes=int(rng.integers(2, 4)))
            cfg = SpfpConfig(n_views=3, min_features=1,
                             remove_fraction=0.3, bins=4, seed=trial)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                vs = partition(d, cfg)
            codes = discretize(d, bins=4)
            cols = [codes[:, j] for j in range(codes.shape[1])]
            h_f = counter_entropy(*cols)
            h_fy = counter_entropy(*(cols + [d.target]))
            tol = cfg.entropy_tolerance
            n_f = cfg.resolve_min_features(d.n_features)
            for view in vs.views:
                if view.termination != "criteria_met":
                    continue
                sel = [cols[j] for j in view.feature_ids]
                assert len(sel) >= n_f
                assert counter_entropy(*sel) >= h_f * (1 - tol) - 1e-12
                assert (counter_entropy(*(sel + [d.target]))
                        >= h_fy * (1 - tol) - 1e-12)
                checked += 1
        assert checked >= 8, "fixture family never met the criteria"

        # four identical columns: the smallest admissible view is one
        # feature and it alone already carries the full joint entropy
        col = rng.integers(0, 3, size=40).astype(np.float64)
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        d = make_dataset(np.column_stack([col, col, col, col]), y)
        cfg = SpfpConfig(n_views=1, min_features=0.1, remove_fraction=0.0)
        assert cfg.resolve_min_features(4) == 1
        vs = partition(d, cfg)
        assert list(vs.views[0].feature_ids) == [0]
        assert vs.views[0].termination == "criteria_met"
        print(f"pass: stopping criteria verified cache-free on {checked} "
              f"views plus the duplicate-column fixture")

    def test_06_partition_determinism_under_seed(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        write_bits_csv(csv_path)
        out = tmp_path / "run"
        argv = ["partition", "--input", str(csv_path), "--target", "y",
                "--views", "2", "--remove-frac", "0.2", "--seed", "3",
                "--out", str(out)]
        assert main(argv) == 0
        first = (out / "views.json").read_bytes()
        assert main(argv) == 0
        assert (out / "views.json").read_bytes() == first

        out2 = tmp_path / "run2"
        argv2 = ["partition", "--input", str(csv_path), "--target", "y",
                 "--views", "2", "--remove-frac", "0.2", "--seed", "4",
                 "--out", str(out2)]
        assert main(argv2) == 0
        doc1 = json.loads(first.decode("utf-8"))
        doc2 = json.loads((out2 / "views.json").read_text(encoding="utf-8"))
        sel1 = [v["features"]["indices"] for v in doc1["views"]]
        sel2 = [v["features"]["indices"] for v in doc2["views"]]
        assert doc1["removed"] != doc2["removed"] or sel1 != sel2
        for doc in (doc1, doc2):
            for v in doc["views"]:
                assert v["termination"] == "criteria_met"
                assert v["h_s"] == pytest.approx(doc["h_f"])
                assert v["h_sy"] == pytest.approx(doc["h_fy"])
        print("pass: byte-identical rerun; new seed changed removals or "
              "selections without breaking any stopping criterion")

    def test_07_prediction_report_identities(self):
        y = np.array([0, 1, 2, 1, 0, 2])
        perfect = np.zeros((6, 3))
        perfect[np.arange(6), y] = 1.0
        rep = metrics(perfect, y)
        assert rep.f1_micro == 1.0
        assert rep.auc == 1.0
        assert rep.mec == 0.0
        assert rep.mew is None

        proba = np.array([[0.7, 0.3], [0.4, 0.6], [0.9, 0.1]])
        rep = metrics(proba, np.array([0, 1, 1]))
        assert abs(rep.mec - 0.9261) <= 1e-4
        assert abs(rep.mew - 0.4690) <= 1e-4

        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 31))
            k = int(rng.integers(2, 6))
            proba = rng.dirichlet(np.ones(k), size=n)
            truth = rng.integers(0, k, size=n)
            truth[:2] = [0, 1]
            rep = metrics(proba, truth)
            correct = np.argmax(proba, axis=1) == truth
            n_c, n_w = int(correct.sum()), int((~correct).sum())
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(proba > 0, proba * np.log2(proba), 0.0)
            total = -terms.sum()
            combined = (n_c * (rep.mec or 0.0)) + (n_w * (rep.mew or 0.0))
            assert abs(combined - total) <= 1e-9
        print("pass: report identities and the count-weighted entropy "
              "decomposition on 1000 matrices")

    def test_08_rank_statistics_fixtures(self):
        ordered = np.tile([1.0, 2.0, 3.0], (10, 1))
        ordered += np.arange(10)[:, None] * 10.0
        stat, p = friedman(RunMatrix(ordered, ["a", "b", "c"]))
        assert stat == pytest.approx(20.0, abs=1e-12)
        assert p == pytest.approx(math.exp(-10.0), rel=1e-12)

        assert _magnitude(0.1469) == "negligible"
        assert _magnitude(0.147) == "small"
        assert _magnitude(0.333) == "medium"
        assert _magnitude(0.474) == "large"
        assert _magnitude(-0.474) == "large"

        adjusted = adjust([0.005, 0.04, 0.03], "benjamini_hochberg")
        assert adjusted == pytest.approx([0.015, 0.04, 0.04], abs=1e-15)

        rng = np.random.default_rng(8)
        a = rng.normal(size=40)
        b = rng.normal(size=40) + 0.5
        ci1 = bootstrap_ci(a, b, replicates=500, seed=3)
        ci2 = bootstrap_ci(a, b, replicates=500, seed=3)
        assert ci1 == ci2
        assert bootstrap_ci(a, b, replicates=500, seed=4) != ci1
        print("pass: rank-test fixtures, magnitude cut points, step-up "
              "adjustment, and seeded bootstrap verified")

    def test_09_win_tie_loss_rule(self):
        base = np.arange(10, dtype=np.float64)
        stacked = np.column_stack([base + 100.0, base - 100.0, base, base])
        m = RunMatrix(stacked, ["better", "worse", "same", "bench"])
        table = win_tie_loss({"metric": m}, "bench", replicates=200)
        verdicts = table["metric"]
        assert verdicts["better"].outcome == "win"
        assert verdicts["better"].delta == 1.0
        assert verdicts["worse"].outcome == "loss"
        assert verdicts["worse"].delta == -1.0
        assert verdicts["same"].outcome == "tie"

        # a lower-is-better metric flips the verdict orientation
        m_low = RunMatrix(stacked, ["better", "worse", "same", "bench"],
                          higher_is_better=False)
        low = win_tie_loss({"err": m_low}, "bench", replicates=200)["err"]
        assert low["better"].outcome == "loss"
        assert low["worse"].outcome == "win"

        # on noisy matrices the outcome must equal the rule recomputed
        # from the verdict's own reported quantities
        rng = np.random.default_rng(9)
        for trial in range(5):
            values = rng.normal(size=(12, 4))
            values[:, 0] += rng.uniform(0.0, 2.0)
            noisy = RunMatrix(values, ["m1", "m2", "m3", "bench"])
            table = win_tie_loss({"metric": noisy}, "bench",
                                 alpha=0.05, replicates=200, seed=trial)
            for v in table["metric"].values():
                significant = (v.p_friedman_adj < 0.05
                               and v.p_conover_adj < 0.05)
                if significant and v.delta > 0:
                    expected = "win"
                elif significant and v.delta < 0:
                    expected = "loss"
                else:
                    expected = "tie"
                assert v.outcome == expected
        print("pass: win/tie/loss verdicts follow the adjusted "
              "significance-plus-sign rule exactly")

    def test_10_local_dataset_smoke(self, tmp_path):
        path = Path(os.environ.get("SPFP_SMOKE_CSV", "data/isolet.csv"))
        if not path.exists():
            pytest.skip(f"no dataset at {path}; smoke check needs a local CSV")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        target = header.split(",")[-1]
        out = tmp_path / "smoke"
        argv = ["partition", "--input", str(path), "--target", target,
                "--views", "5", "--remove-frac", "0.6", "--min-frac", "0.1",
                "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads((out / "views.json").read_text(encoding="utf-8"))
        for v in doc["views"]:
            assert v["termination"] == "criteria_met"
            ratio = len(v["features"]["indices"]) / doc["n_features"]
            assert 0.0 < ratio <= 0.5
        print("pass: five views met the stopping criteria on the local "
              "dataset with in-range view sizes")

    def test_11_partition_scales_to_wide_data(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(10_000, 500))
        y = rng.integers(0, 10, size=10_000)
        d = make_dataset(X, y)
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vs = partition(d, SpfpConfig())
        elapsed = time.perf_counter() - t0
        assert len(vs.views) == 5
        assert elapsed < 60.0, f"partition took {elapsed:.1f}s"
        print(f"pass: 10000x500 partition with defaults in {elapsed:.1f}s")
