"""End-to-end tests for the command line interface.

Everything here drives ``main(argv)`` in-process against artifacts in a
tmp_path; only the start-up import check runs a fresh interpreter.
"""

import csv
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spfp import cli, evalstats
from spfp.cli import (
    CACHE_DIR, FORMAT_VERSION, RunConfig, _write_json, build_parser, cmd_evaluate, main,
)
from spfp.dataset import SplitSpec, load_csv, split, split_rows
from spfp.partitioning import partition
from spfp.ensemble import metrics
from spfp.evalstats import friedman
from spfp.errors import ConfigError, DataError
from spfp.seeding import HOLDOUT_STREAM


def write_bits_csv(path: Path, n_copies: int = 3, reps: int = 6) -> None:
    """Dataset of 4 latent bits, each replicated ``n_copies`` times as an
    integer column, with a binary target equal to bit 0.  All 16 bit
    combinations appear ``reps`` times, so the joint feature entropy is
    exactly 4 bits and the target is linearly separable from any column
    that copies bit 0."""
    header = [f"f{j}" for j in range(4 * n_copies)] + ["y"]
    lines = [",".join(header)]
    for combo in range(16):
        bits = [(combo >> b) & 1 for b in range(4)]
        row = [str(bits[j % 4]) for j in range(4 * n_copies)]
        label = "pos" if bits[0] else "neg"
        for _ in range(reps):
            lines.append(",".join(row + [label]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def partition_argv(csv_path: Path, out: Path, **overrides) -> list:
    flags = {
        "--views": "2",
        "--remove-frac": "0.4",
        "--seed": "7",
    }
    flags.update(overrides)
    argv = ["partition", "--input", str(csv_path), "--target", "y",
            "--out", str(out)]
    for k, v in flags.items():
        argv += [k, str(v)]
    return argv


@pytest.fixture()
def workdir(tmp_path):
    csv_path = tmp_path / "toy.csv"
    write_bits_csv(csv_path)
    return tmp_path, csv_path


@pytest.fixture()
def partitioned(workdir):
    tmp_path, csv_path = workdir
    assert main(partition_argv(csv_path, tmp_path)) == 0
    return tmp_path, csv_path


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def metrics_digest(out: Path) -> str:
    """SHA-256 of metrics.json under `out`, the run's paths left out of the config."""
    doc = read_json(out / "metrics.json")
    del doc["config"]["input"], doc["config"]["out"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestRunConfig:
    def test_round_trip_equality(self):
        rc = RunConfig(input="a.csv", target="y", seed=3, bins=6, l2=0.01)
        assert RunConfig.from_dict(rc.to_dict()) == rc

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys.*bogus"):
            RunConfig.from_dict({"input": "a", "target": "y", "bogus": 1})

    def test_required_keys(self):
        with pytest.raises(ConfigError, match="missing required keys"):
            RunConfig.from_dict({"input": "a.csv"})

    def test_format_1_config_drops_workers(self):
        doc = {"input": "a.csv", "target": "y", "workers": 4, "format_version": 1}
        rc = RunConfig.from_dict(doc)
        assert rc == RunConfig(input="a.csv", target="y")
        assert rc.format_version == FORMAT_VERSION

    def test_format_2_config_reads_as_current(self):
        rc = RunConfig.from_dict({"input": "a.csv", "target": "y", "format_version": 2})
        assert rc == RunConfig(input="a.csv", target="y")

    @pytest.mark.parametrize("version", [0, -3, FORMAT_VERSION + 1])
    def test_format_version_out_of_range_rejected(self, version):
        doc = {"input": "a.csv", "target": "y", "format_version": version}
        with pytest.raises(ConfigError, match=re.escape(
                f"format_version must be in [1, {FORMAT_VERSION}], got {version}")):
            RunConfig.from_dict(doc)

    def test_readme_names_the_current_format(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        found = re.findall(r"Artifacts carry `format_version` (\d+)", readme)
        assert found == [str(FORMAT_VERSION)]

    def test_format_2_config_rejects_workers(self):
        doc = {"input": "a.csv", "target": "y", "workers": 4, "format_version": 2}
        with pytest.raises(ConfigError, match="unknown config keys.*workers"):
            RunConfig.from_dict(doc)

    def test_removed_discretizer_alias_reads_as_equal_frequency(self):
        doc = {"input": "a.csv", "target": "y", "discretizer": "passthrough_if_integral"}
        assert RunConfig.from_dict(doc) == RunConfig(input="a.csv", target="y")

    @pytest.mark.parametrize("key,value,message", [
        ("max_iters", 0, "max_iters must be >= 1, got 0"),
        ("min_features", 2.5, "min_features must be in (0.0, 1.0) or a whole number >= 1"),
        ("missing_policy", "skip", "missing_policy must be 'error' or 'drop' or 'median'"),
    ])
    def test_constructor_checks_every_key(self, key, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(input="a.csv", target="y", **{key: value})

    def test_constructor_checks_string_types(self):
        with pytest.raises(ConfigError, match="config key 'input' must be str, got 3"):
            RunConfig(input=3, target="y")

    def test_float_field_takes_an_int(self):
        rc = RunConfig.from_dict({"input": "a.csv", "target": "y", "min_features": 3})
        assert rc.min_features == 3

    @pytest.mark.parametrize("key,value", [
        ("max_iters", "500"), ("seed", True), ("min_features", False),
        ("format_version", "4"), ("input", 3), ("l2", None),
        ("l2", math.nan), ("entropy_tolerance", math.inf),
    ])
    def test_wrong_value_type_rejected(self, key, value):
        doc = {"input": "a.csv", "target": "y", key: value}
        with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
            RunConfig.from_dict(doc)


class TestJsonOutput:
    def test_nan_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "x.json", {"score": math.nan})


class TestStartup:
    def test_import_loads_no_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, spfp.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "[]"

    @staticmethod
    def loaded(commands: list, *names: str) -> list:
        """The modules, among `names` and their submodules, that a fresh
        interpreter holds after `main` ran each argv of `commands`; every
        run must exit 0."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import json, sys; from spfp.cli import main; "
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
                "names = json.loads(sys.argv[2]); "
                "print(json.dumps(sorted(m for m in sys.modules "
                "if any(m == n or m.startswith(n + '.') for n in names)))); "
                "sys.exit(max(codes, default=0))")
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps([[str(a) for a in argv] for argv in commands]),
             json.dumps(names)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_stats_runs_without_scipy(self, tmp_path):
        # nor does it load the models of spfp.ensemble, nor numpy.ma
        write_matrix_csv(tmp_path / "acc.csv", {
            "ours": [0.9, 0.8, 0.85, 0.7], "base": [0.6, 0.7, 0.5, 0.65],
            "other": [0.6, 0.75, 0.55, 0.6],
        })
        argv = ["stats", "--matrix", f"acc={tmp_path / 'acc.csv'}",
                "--benchmark", "base", "--bootstrap", "200", "--out", str(tmp_path)]
        assert self.loaded([argv], "scipy", "spfp.ensemble", "numpy.ma") == []
        assert (tmp_path / "verdicts.json").exists()

    @pytest.mark.parametrize("imported", [False, True])
    def test_evaluate_loads_no_masked_arrays(self, partitioned, imported):
        # np.unique without return flags and np.quantile would import numpy.ma
        tmp_path, _ = partitioned
        argv = ["evaluate", "--out", str(tmp_path)]
        if imported:
            argv += ["--import-proba", str(write_imported(tmp_path))]
        assert self.loaded([argv], "scipy", "numpy.ma") == []
        assert (tmp_path / "metrics.json").exists()

    def test_partition_and_diagnose_import_no_models_or_statistics(self, workdir):
        tmp_path, csv_path = workdir
        commands = [partition_argv(csv_path, tmp_path), ["diagnose", "--out", str(tmp_path)]]
        assert self.loaded(commands, "spfp.ensemble", "spfp.evalstats") == []
        assert (tmp_path / "independence.json").exists()

    def test_median_imputation_loads_no_masked_arrays(self, workdir):
        # np.median would import numpy.ma
        tmp_path, csv_path = workdir
        write_missing_cells(csv_path)
        argv = partition_argv(csv_path, tmp_path, **{"--missing-policy": "median"})
        assert self.loaded([argv], "numpy.ma") == []
        assert read_json(tmp_path / "run_log.json")["partition"]["cells_imputed"] == 2

    # `import hashlib` maps OpenSSL's libcrypto, and numpy.random imports it
    # through secrets and hmac. The parse-cache key is a CRC-32 and the cache
    # holds each row's split role, so `diagnose` and `evaluate` on a cache hit
    # do without both; `partition` and `stats` draw from numpy.random.
    def test_import_loads_no_hashlib(self):
        assert self.loaded([], "hashlib", "_hashlib") == []

    def test_diagnose_on_a_cache_hit_loads_no_hashlib(self, partitioned):
        tmp_path, _ = partitioned
        argv = ["diagnose", "--out", str(tmp_path)]
        assert self.loaded([argv], "hashlib", "_hashlib") == []
        assert read_json(tmp_path / "run_log.json")["diagnose"]["parse_cache"] == "hit"

    @pytest.mark.parametrize("imported", [False, True])
    def test_evaluate_on_a_cache_hit_draws_nothing(self, partitioned, imported):
        tmp_path, _ = partitioned
        argv = ["evaluate", "--out", str(tmp_path)]
        if imported:
            argv += ["--import-proba", str(write_imported(tmp_path))]
        assert self.loaded([argv], "numpy.random", "hashlib", "_hashlib") == []
        assert read_json(tmp_path / "run_log.json")["evaluate"]["parse_cache"] == "hit"


class TestPartitionCommand:
    def test_artifacts_and_stdout(self, workdir, capsys):
        tmp_path, csv_path = workdir
        rc = main(partition_argv(csv_path, tmp_path))
        assert rc == 0
        captured = capsys.readouterr()
        assert "partitioned 12 features into 2 views" in captured.out
        assert "union " in captured.out
        assert "wrote" in captured.out

        doc = read_json(tmp_path / "views.json")
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["n_features"] == 12
        assert doc["n_train_rows"] + doc["n_test_rows"] == 96
        assert doc["feature_names"] == [f"f{j}" for j in range(12)]
        assert len(doc["views"]) == 2
        for view in doc["views"]:
            idx = view["features"]["indices"]
            assert view["features"]["names"] == [f"f{j}" for j in idx]
            assert len(view["scores"]) == len(idx)
            # each view must have captured all four latent bits
            assert view["h_s"] == pytest.approx(doc["h_f"])
            assert view["termination"] == "criteria_met"
        assert len(doc["removed"]) == 2
        # config in the artifact reconstructs the run verbatim
        rc_back = RunConfig.from_dict(doc["config"])
        assert rc_back.seed == 7
        assert rc_back.n_views == 2
        assert rc_back.input == str(csv_path)

        stats = read_json(tmp_path / "view_stats.json")
        assert stats["view_sizes"] == [len(v["features"]["indices"])
                                       for v in doc["views"]]
        assert len(stats["overlap"]) == 2
        assert stats["terminations"] == ["criteria_met", "criteria_met"]
        assert "elapsed" not in stats

        log = read_json(tmp_path / "run_log.json")
        assert "partition" in log
        assert len(log["partition"]["view_elapsed_seconds"]) == 2
        # view 1 takes 10 features, one sweep per step but the last; view 2
        # takes 6 of the same features again, and its 5 calls reuse sweeps
        assert log["partition"]["winner_sweeps"] == 9
        assert log["partition"]["winner_memo_hits"] == 5
        # sweep k of view 1 counts the 12 - k features no earlier sweep did
        assert log["partition"]["pairs_counted"] == sum(range(4, 13))

    def test_views_structure_is_pinned(self, partitioned):
        # the integers of views.json, which hold on every platform
        doc = read_json(partitioned[0] / "views.json")
        assert [v["features"]["indices"] for v in doc["views"]] == [
            [0, 4, 8, 1, 5, 9, 2, 6, 10, 3], [0, 4, 9, 2, 10, 3]]
        assert [v["termination"] for v in doc["views"]] == ["criteria_met"] * 2
        assert doc["removed"] == [[1, 5, 6, 8], [9, 10]]

    def test_step_trace_is_pinned(self, workdir, monkeypatch):
        # the trace bench/tracing.py counts greedy steps and scored
        # candidates from, for the views pinned above
        tmp_path, csv_path = workdir
        runs = []

        def record(*args):
            runs.append(partition(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "partition", record)
        assert main(partition_argv(csv_path, tmp_path)) == 0
        # view 2's pool is the 12 features less the 4 removed after view 1
        for view, pool in zip(runs[0].views, [12, 8]):
            trace = view.step_trace
            assert [step.winner for step in trace] == view.feature_ids
            assert [step.candidates for step in trace] == list(range(pool, pool - len(view), -1))
            assert [all(step.criteria) for step in trace] == [False] * (len(view) - 1) + [True]

    def test_saturating_views_bytes_pinned(self, tmp_path):
        # 600 x 40 continuous columns, 10 classes, columns 0-3 carrying the
        # signal: every view saturates at H(F) = log2(402), and five views
        # with removals reuse sweeps, read earlier winners' entries and
        # retire features. SHA-256 of views.json and view_stats.json as
        # format 8 writes them, the run's paths left out of the config.
        rng = np.random.default_rng(18)
        y = rng.integers(0, 10, size=600)
        x = rng.normal(size=(600, 40))
        for j in range(4):
            x[:, j] += 1.5 * (y == 2 * j) - 1.5 * (y == 2 * j + 1)
        lines = [",".join([f"f{j}" for j in range(40)] + ["y"])]
        lines += [",".join(map(repr, row)) + f",c{label}" for row, label in zip(x.tolist(), y)]
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["partition", "--input", str(csv_path), "--target", "y", "--views", "5",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        digest = hashlib.sha256()
        for name in ("views.json", "view_stats.json"):
            doc = read_json(tmp_path / name)
            del doc["config"]["input"], doc["config"]["out"]
            digest.update(json.dumps(doc, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "03caac15592b17f6c6e2716adfcf75b7d04b1fb153017f93be5cc442708f1823")
        log = read_json(tmp_path / "run_log.json")["partition"]
        # 585 of the 20 x 40 pairs that full sweeps would count
        assert (log["winner_sweeps"], log["winner_memo_hits"], log["pairs_counted"]) == (20, 6, 585)

    @pytest.mark.parametrize("target_first", [False, True])
    def test_byte_order_mark_is_skipped(self, workdir, target_first):
        # as spreadsheets write "CSV UTF-8": the mark must not join the
        # first column's name
        tmp_path, csv_path = workdir
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        if target_first:
            lines = [",".join([line.split(",")[-1], *line.split(",")[:-1]]) for line in lines]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        docs = []
        for path in (plain, marked):
            out = tmp_path / path.stem
            assert main(partition_argv(path, out)) == 0
            doc = read_json(out / "views.json")
            docs.append({k: v for k, v in doc.items() if k != "config"})
        assert docs[0]["feature_names"] == [f"f{j}" for j in range(12)]
        assert docs[1] == docs[0]

    def test_rerun_is_byte_identical(self, workdir):
        tmp_path, csv_path = workdir
        argv = partition_argv(csv_path, tmp_path)
        assert main(argv) == 0
        first_views = (tmp_path / "views.json").read_bytes()
        first_stats = (tmp_path / "view_stats.json").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "views.json").read_bytes() == first_views
        assert (tmp_path / "view_stats.json").read_bytes() == first_stats

    def test_remove_frac_out_of_range_exits_2(self, workdir, capsys):
        tmp_path, csv_path = workdir
        argv = partition_argv(csv_path, tmp_path, **{"--remove-frac": "1.5"})
        assert main(argv) == 2
        assert "--remove-frac" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[]", "null", "3", "{not json"])
    def test_run_log_that_is_not_an_object_is_replaced(self, workdir, capsys, content):
        tmp_path, csv_path = workdir
        (tmp_path / "run_log.json").write_text(content, encoding="utf-8")
        assert main(partition_argv(csv_path, tmp_path)) == 0
        assert set(read_json(tmp_path / "run_log.json")) == {"partition"}
        assert "internal error" not in capsys.readouterr().err

    def test_library_warning_is_one_stderr_line(self, workdir, capsys):
        tmp_path, csv_path = workdir
        argv = partition_argv(csv_path, tmp_path, **{"--remove-frac": "1.0"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: view 2 exhausted its pool before meeting the stopping criteria "
            "(2 features selected)"
        ]
        assert "UserWarning" not in err

    def test_missing_input_exits_3(self, tmp_path, capsys):
        argv = partition_argv(tmp_path / "absent.csv", tmp_path)
        assert main(argv) == 3
        assert "cannot open" in capsys.readouterr().err

    def test_infinite_cell_exits_3(self, workdir, capsys):
        tmp_path, csv_path = workdir
        lines = csv_path.read_text().splitlines()
        lines[5] = "inf" + lines[5][1:]
        csv_path.write_text("\n".join(lines) + "\n")
        assert main(partition_argv(csv_path, tmp_path)) == 3
        assert "non-finite cell at row 5, column 'f0'" in capsys.readouterr().err
        assert not (tmp_path / "views.json").exists()

    @pytest.mark.parametrize("header,message", [
        ("y", "no feature column beside the target 'y'"),
        ("f0,f1,f0,y", "column name 'f0' appears more than once"),
    ])
    def test_header_without_distinct_features_exits_3(self, tmp_path, capsys, header, message):
        csv_path = tmp_path / "h.csv"
        width = header.count(",")
        rows = [",".join(["1"] * width + [label]) for label in ("u", "v") * 4]
        csv_path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        assert main(partition_argv(csv_path, tmp_path)) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err
        assert not (tmp_path / "views.json").exists()

    def test_undecodable_input_exits_3(self, workdir, capsys):
        tmp_path, csv_path = workdir
        header, body = csv_path.read_bytes().split(b"\n", 1)
        # past the first 8 KiB, so the header decodes and both parses run
        csv_path.write_bytes(header + b"\n" + body * (1 + 8192 // len(body)) + b"\xff\n")
        assert main(partition_argv(csv_path, tmp_path)) == 3
        err = capsys.readouterr().err
        assert f"{csv_path}: not UTF-8 text" in err
        assert "internal error" not in err
        assert not (tmp_path / "views.json").exists()

    def test_field_over_the_csv_limit_exits_3(self, workdir, capsys):
        tmp_path, csv_path = workdir
        lines = csv_path.read_text().splitlines()
        lines[5] = " " * (csv.field_size_limit() + 1) + lines[5]
        csv_path.write_text("\n".join(lines) + "\n")
        assert main(partition_argv(csv_path, tmp_path)) == 3
        err = capsys.readouterr().err
        assert f"{csv_path}: field larger than field limit" in err
        assert "internal error" not in err
        assert not (tmp_path / "views.json").exists()

    def test_format_1_views_file_still_loads(self, partitioned):
        tmp_path, _ = partitioned
        doc = read_json(tmp_path / "views.json")
        doc["format_version"] = doc["config"]["format_version"] = 1
        doc["config"]["workers"] = 0
        (tmp_path / "views.json").write_text(json.dumps(doc))
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        config = read_json(tmp_path / "independence.json")["config"]
        assert "workers" not in config
        assert config["format_version"] == FORMAT_VERSION

    @pytest.mark.parametrize("version", [2, 3, 4, 5, 6, 7])
    def test_older_views_file_runs_evaluate_and_diagnose(self, partitioned, version):
        tmp_path, _ = partitioned
        doc = read_json(tmp_path / "views.json")
        doc["format_version"] = doc["config"]["format_version"] = version
        (tmp_path / "views.json").write_text(json.dumps(doc))
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        for name in ("metrics.json", "independence.json"):
            written = read_json(tmp_path / name)
            assert written["format_version"] == FORMAT_VERSION
            assert written["config"]["format_version"] == FORMAT_VERSION

    @pytest.mark.parametrize("relevance", ["codes", "max_ovr"])
    def test_format_7_relevance_key_is_dropped(self, partitioned, relevance):
        # format 8 made the one-vs-rest relevance the only rule and dropped
        # the key that chose it; no later stage reads how views were scored
        tmp_path, _ = partitioned
        doc = read_json(tmp_path / "views.json")
        doc["format_version"] = doc["config"]["format_version"] = 7
        doc["config"]["relevance_correlation"] = relevance
        (tmp_path / "views.json").write_text(json.dumps(doc))
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        for name in ("metrics.json", "independence.json"):
            config = read_json(tmp_path / name)["config"]
            assert "relevance_correlation" not in config
            assert config["format_version"] == FORMAT_VERSION

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_current_views_file_rejects_relevance_key(self, partitioned, capsys, command):
        tmp_path, _ = partitioned
        doc = read_json(tmp_path / "views.json")
        doc["config"]["relevance_correlation"] = "max_ovr"
        (tmp_path / "views.json").write_text(json.dumps(doc))
        assert main([command, "--out", str(tmp_path)]) == 2
        assert "unknown config keys: ['relevance_correlation']" in capsys.readouterr().err

    def test_bad_discretizer_choice_exits_2(self, workdir, capsys):
        tmp_path, csv_path = workdir
        argv = partition_argv(csv_path, tmp_path,
                              **{"--discretizer": "kmeans"})
        assert main(argv) == 2

    def test_removed_discretizer_alias_exits_2(self, workdir):
        tmp_path, csv_path = workdir
        argv = partition_argv(csv_path, tmp_path,
                              **{"--discretizer": "passthrough_if_integral"})
        assert main(argv) == 2
        assert not (tmp_path / "views.json").exists()

    def test_removed_relevance_flag_exits_2(self, workdir, capsys):
        tmp_path, csv_path = workdir
        assert main(partition_argv(csv_path, tmp_path, **{"--relevance": "max_ovr"})) == 2
        assert "unrecognized arguments: --relevance max_ovr" in capsys.readouterr().err
        assert not (tmp_path / "views.json").exists()

    def test_min_count_and_min_frac_conflict_exits_2(self, workdir):
        tmp_path, csv_path = workdir
        argv = partition_argv(csv_path, tmp_path) + [
            "--min-frac", "0.2", "--min-count", "3"]
        assert main(argv) == 2

    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            # argparse raises inside parse_args before main catches it;
            # main converts the code, so call through main
            raise SystemExit(main(["--help"]))
        assert exc.value.code == 0


class TestEvaluateCommand:
    def test_builtin_models_and_metrics_json(self, partitioned, capsys):
        tmp_path, _csv_path = partitioned
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()

        doc = read_json(tmp_path / "metrics.json")
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["weighting"] == {"source": "train_holdout",
                                    "holdout_fraction": 0.2}
        assert set(doc["member_auc"]) == {"theta_1", "theta_2"}
        assert set(doc["ensembles"]) == {"E_1:2"}
        meta = doc["ensembles"]["E_1:2"]
        assert set(meta["members"]) <= {"theta_1", "theta_2"}
        assert sum(meta["weights"]) == pytest.approx(1.0)
        assert set(doc["models"]) == {"theta_1", "theta_2", "E_1:2", "All"}
        for name, m in doc["models"].items():
            assert set(m) == {"f1_micro", "auc", "log_loss", "mec", "mew"}
            # target is a copy of a feature, so every model separates it
            assert m["f1_micro"] == 1.0, name
            assert m["auc"] == 1.0, name
            assert m["log_loss"] < 1.0

        # stdout: one line per model, sorted, plus the wrote line
        lines = [l for l in captured.out.splitlines() if ": f1=" in l]
        assert [l.split(": f1=")[0] for l in lines] == sorted(doc["models"])
        assert "wrote" in captured.out

        log = read_json(tmp_path / "run_log.json")
        assert set(log) == {"partition", "evaluate"}
        assert set(log["evaluate"]["model_elapsed_seconds"]) == set(
            doc["models"])
        # one loss evaluation at the start and at least one per step
        search = log["evaluate"]["line_search"]
        assert set(search) == set(doc["training"]) == {"theta_1", "theta_2", "All"}
        for name, entry in search.items():
            assert entry["evaluations"] > doc["training"][name]["iterations"]
            assert entry["fallbacks"] == 0

    def test_metrics_bytes_pinned(self, partitioned):
        # metrics.json as format 8 writes it on the 12-column fixture; the
        # built-in models' bits depend on the BLAS kernels, as the views
        # pin's do
        tmp_path, _ = partitioned
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        assert metrics_digest(tmp_path) == (
            "9ba77f2bea4a2cad0059b4472f9f0ee98b39bcbcdbed7aa371ed3f6eb51316d6")

    def test_rerun_is_byte_identical(self, partitioned):
        tmp_path, _ = partitioned
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        first = (tmp_path / "metrics.json").read_bytes()
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "metrics.json").read_bytes() == first

    def test_missing_views_file_exits_3(self, tmp_path, capsys):
        assert main(["evaluate", "--out", str(tmp_path)]) == 3
        assert "views file not found" in capsys.readouterr().err

    def test_holdout_frac_out_of_range_exits_2(self, partitioned, capsys):
        tmp_path, _ = partitioned
        rc = main(["evaluate", "--out", str(tmp_path),
                   "--holdout-frac", "1.0"])
        assert rc == 2
        assert "--holdout-frac" in capsys.readouterr().err

    def test_holdout_fraction_from_views_file_out_of_range_exits_2(self, partitioned, capsys):
        tmp_path, _ = partitioned
        doc = read_json(tmp_path / "views.json")
        doc["config"]["holdout_fraction"] = 1.5
        (tmp_path / "views.json").write_text(json.dumps(doc))
        assert main(["evaluate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "holdout_fraction must be in (0.0, 1.0), got 1.5" in err
        assert "test_fraction" not in err

    def test_views_file_holdout_fraction_is_checked_under_the_flag(self, partitioned, capsys):
        tmp_path, _ = partitioned
        doc = read_json(tmp_path / "views.json")
        doc["config"]["holdout_fraction"] = 1.5
        (tmp_path / "views.json").write_text(json.dumps(doc))
        assert main(["evaluate", "--out", str(tmp_path), "--holdout-frac", "0.3"]) == 2
        assert "holdout_fraction must be in (0.0, 1.0), got 1.5" in capsys.readouterr().err

    def test_holdout_frac_flag_overrides_the_views_file(self, partitioned):
        tmp_path, _ = partitioned
        assert main(["evaluate", "--out", str(tmp_path), "--holdout-frac", "0.3"]) == 0
        doc = read_json(tmp_path / "metrics.json")
        assert doc["weighting"]["holdout_fraction"] == doc["config"]["holdout_fraction"] == 0.3

    def test_single_view_has_no_ensembles(self, workdir):
        tmp_path, csv_path = workdir
        assert main(partition_argv(csv_path, tmp_path,
                                   **{"--views": "1"})) == 0
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "metrics.json")
        assert set(doc["models"]) == {"theta_1", "All"}
        assert doc["ensembles"] == {}

    def test_column_mismatch_exits_3(self, partitioned, capsys):
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        doc["feature_names"][0] = "renamed"
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["evaluate", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "dataset columns do not match the views file" in err

    def test_views_file_flag_overrides_out(self, partitioned):
        tmp_path, _ = partitioned
        other = tmp_path / "elsewhere"
        rc = main(["evaluate", "--views-file",
                   str(tmp_path / "views.json"), "--out", str(other)])
        assert rc == 0
        assert (other / "metrics.json").exists()

    def _evaluate_with(self, tmp_path, **config):
        doc = read_json(tmp_path / "views.json")
        doc["config"].update(config)
        (tmp_path / "views.json").write_text(json.dumps(doc))
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        return read_json(tmp_path / "metrics.json")["training"]

    def test_training_block_of_converged_models(self, partitioned, capsys):
        tmp_path, _ = partitioned
        training = self._evaluate_with(tmp_path, opt_tol=0.05)
        assert set(training) == {"theta_1", "theta_2", "All"}
        for entry in training.values():
            assert set(entry) == {"iterations", "final_loss", "converged"}
            assert entry["converged"] is True
            assert 0 < entry["iterations"] < 500
            assert 0.0 < entry["final_loss"] < 1.0
        assert "warning" not in capsys.readouterr().err

    def test_default_training_converges(self, partitioned, capsys):
        tmp_path, _ = partitioned
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        training = read_json(tmp_path / "metrics.json")["training"]
        assert set(training) == {"theta_1", "theta_2", "All"}
        assert all(t["converged"] is True for t in training.values())
        assert "stopped at max_iters" not in capsys.readouterr().err

    def test_overflowing_column_exits_3(self, tmp_path, capsys):
        # f2's cells are finite, but its mean or standard deviation is not
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 6))
        x[:, 2] = rng.choice([1e308, -1e308, 5e307], size=300)
        labels = np.digitize(x[:, 0], [-0.5, 0.5])
        lines = [",".join([f"f{j}" for j in range(6)] + ["y"])]
        lines += [",".join([repr(float(v)) for v in row] + [f"c{c}"])
                  for row, c in zip(x, labels)]
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(partition_argv(csv_path, tmp_path)) == 0
        capsys.readouterr()
        assert main(["evaluate", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "its mean or standard deviation overflows the float range" in err
        # named by model and feature: f2 is the second column of view 2's X
        assert "model theta_2, feature 'f2': column 1 of X" in err
        assert "warning" not in err and "internal error" not in err
        assert not (tmp_path / "metrics.json").exists()
        # with f2 in no view, the all-features model names it
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        for view in doc["views"]:
            view["features"]["indices"] = [j for j in view["features"]["indices"] if j != 2]
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["evaluate", "--out", str(tmp_path)]) == 3
        assert "model All, feature 'f2': column 2 of X" in capsys.readouterr().err

    def test_max_iters_stop_is_flagged(self, partitioned, capsys):
        tmp_path, _ = partitioned
        training = self._evaluate_with(tmp_path, max_iters=1)
        assert all(t["iterations"] == 1 and t["converged"] is False
                   for t in training.values())
        warnings = [l for l in capsys.readouterr().err.splitlines() if "warning" in l]
        assert warnings == [
            "warning: stopped at max_iters=1 before converging: theta_1, theta_2, All"
        ]


def write_proba_csv(path: Path, probs) -> None:
    lines = ["row_id,class_0,class_1"]
    for i, p in enumerate(probs):
        p = float(p)
        lines.append(f"{i},{1.0 - p!r},{p!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_imported(tmp_path: Path) -> Path:
    """Prediction files theta_1, theta_2 and All for the test rows of the
    views.json in `tmp_path`, in a new directory `imported` there."""
    n_test = read_json(tmp_path / "views.json")["n_test_rows"]
    rng = np.random.default_rng(11)
    pdir = tmp_path / "imported"
    pdir.mkdir()
    for name in ("theta_1", "theta_2", "All"):
        write_proba_csv(pdir / f"{name}.csv", rng.uniform(0.05, 0.95, size=n_test))
    return pdir


def reference_read_proba(path: Path, n_rows: int, n_classes: int) -> np.ndarray:
    """The row-by-row reader `_read_proba_csv` replaced: each row's checks
    in order, the first faulty row raising."""
    with open(path, newline="", encoding="utf-8") as fh:
        body = [row for row in csv.reader(fh) if row][1:]
    assert len(body) == n_rows
    proba = np.empty((n_rows, n_classes))
    for i, row in enumerate(body):
        if len(row) != n_classes + 1:
            raise DataError(f"{path.name} row {i}: wrong field count")
        try:
            rid = int(row[0])
            values = [float(x) for x in row[1:]]
        except ValueError:
            raise DataError(f"{path.name} row {i}: unparseable value") from None
        if rid != i:
            raise DataError(f"{path.name} row {i}: row_id {rid} out of order")
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{path.name} row {i}: non-finite probability")
        if min(values) < 0.0 or max(values) > 1.0:
            raise DataError(f"{path.name} row {i}: probabilities outside [0,1]")
        if abs(sum(values) - 1.0) > 1e-6:
            raise DataError(
                f"{path.name} row {i}: probabilities sum to {sum(values):.9f}, not 1"
            )
        proba[i] = values
    return proba


class TestReadProbaCsv:
    """`_read_proba_csv` against the row-by-row reference: the same array,
    or the same message for the same first faulty row."""

    VALID = ["0,0.2,0.3,0.5", "1,0.25,0.25,0.5", "2,1,0,0", "3,0.1,0.1,0.8", "4,0.6,0.4,0"]

    @staticmethod
    def outcome(read, path, n_rows, n_classes):
        try:
            return read(path, n_rows, n_classes)
        except DataError as exc:
            return str(exc)

    def assert_same(self, tmp_path, rows, n_classes=3):
        path = tmp_path / "theta_1.csv"
        header = ",".join(["row_id"] + [f"class_{c}" for c in range(n_classes)])
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        ours = self.outcome(cli._read_proba_csv, path, len(rows), n_classes)
        reference = self.outcome(reference_read_proba, path, len(rows), n_classes)
        if isinstance(reference, str):
            assert ours == reference
        else:
            assert np.array_equal(ours, reference)
        return ours

    @pytest.mark.parametrize("edits,message", [
        ({}, None),
        ({2: "2,0.5,0.5"}, "row 2: wrong field count"),
        ({0: "0,0.2,0.3,0.5,0"}, "row 0: wrong field count"),
        ({4: "4"}, "row 4: wrong field count"),
        ({2: "2,0.2,abc,0.8"}, "row 2: unparseable value"),
        ({2: "x,0.2,0.3,0.5"}, "row 2: unparseable value"),
        ({2: "2.0,0.2,0.3,0.5"}, "row 2: unparseable value"),
        ({2: "2,nan,abc,0.5"}, "row 2: unparseable value"),
        ({2: "3,0.2,0.3,0.5"}, "row 2: row_id 3 out of order"),
        ({2: f"{10 ** 30},0.2,0.3,0.5"}, f"row 2: row_id {10 ** 30} out of order"),
        ({2: "2,nan,0.5,0.5"}, "row 2: non-finite probability"),
        ({2: "2,inf,-inf,0.5"}, "row 2: non-finite probability"),
        ({2: "2,-0.1,0.6,0.5"}, "row 2: probabilities outside [0,1]"),
        ({2: "2,0.2,0.2,0.2"}, "row 2: probabilities sum to 0.600000000, not 1"),
        # the first faulty row, with the first check it fails
        ({1: "1,0.2,0.2,0.2", 3: "3,0.5"}, "row 1: probabilities sum to"),
        ({1: "1,0.5", 3: "3,abc,0.5,0.5"}, "row 1: wrong field count"),
        ({1: "2,nan,0.5,0.5"}, "row 1: row_id 2 out of order"),
        ({1: "1,2,-1,0"}, "row 1: probabilities outside [0,1]"),
        ({3: "3,0.5", 4: "x,1,0,0"}, "row 3: wrong field count"),
    ])
    def test_messages_and_order(self, tmp_path, edits, message):
        rows = [edits.get(i, row) for i, row in enumerate(self.VALID)]
        ours = self.assert_same(tmp_path, rows)
        if message is None:
            assert ours.shape == (5, 3)
        else:
            assert ours.startswith(f"theta_1.csv {message}")

    def test_sums_near_the_tolerance(self, tmp_path):
        # Ten classes, where numpy's pairwise sum adds in another order than
        # sum(), and row sums within a few ulps of 1 +- 1e-6, where that
        # order decides the check.
        rng = np.random.default_rng(3)
        proba = rng.dirichlet(np.ones(10), size=400)
        offset = 1e-6 + rng.uniform(-4e-16, 4e-16, size=400)
        proba[:, 0] += rng.choice([-1.0, 1.0], size=400) * offset
        proba = np.clip(proba, 0.0, 1.0)
        rows = [f"{i}," + ",".join(map(repr, row)) for i, row in enumerate(proba.tolist())]
        for start in range(0, 400, 20):  # the first faulty row moves through the file
            valid = [f"{i}," + ",".join(["0.1"] * 10) for i in range(start)]
            self.assert_same(tmp_path, valid + rows[start:], n_classes=10)


class TestImportProba:
    @pytest.fixture()
    def proba_dir(self, partitioned):
        tmp_path, _ = partitioned
        return tmp_path, write_imported(tmp_path), read_json(tmp_path / "views.json")["n_test_rows"]

    def test_happy_path_with_benchmark(self, proba_dir, capsys):
        tmp_path, pdir, _ = proba_dir
        rc = main(["evaluate", "--out", str(tmp_path),
                   "--import-proba", str(pdir)])
        assert rc == 0
        doc = read_json(tmp_path / "metrics.json")
        assert doc["weighting"] == {"source": "imported_test"}
        assert set(doc["models"]) == {"theta_1", "theta_2", "E_1:2", "All"}
        assert set(doc["member_auc"]) == {"theta_1", "theta_2"}
        assert doc["training"] == {}
        assert read_json(tmp_path / "run_log.json")["evaluate"]["line_search"] == {}
        err = capsys.readouterr().err
        assert "no All.csv" not in err
        assert "warning" not in err

    def test_metrics_bytes_pinned(self, proba_dir):
        tmp_path, pdir, _ = proba_dir
        assert main(["evaluate", "--out", str(tmp_path), "--import-proba", str(pdir)]) == 0
        assert metrics_digest(tmp_path) == (
            "74c9e45fd8246730c564e67da7457e0704409f174fc997333697ee64a88a0e4a")
        timed = read_json(tmp_path / "run_log.json")["evaluate"]["model_elapsed_seconds"]
        assert set(timed) == set(read_json(tmp_path / "metrics.json")["models"])

    def test_ensemble_is_the_auc_weighted_average(self, proba_dir):
        tmp_path, pdir, _ = proba_dir
        assert main(["evaluate", "--out", str(tmp_path),
                     "--import-proba", str(pdir)]) == 0
        doc = read_json(tmp_path / "metrics.json")
        rc = RunConfig.from_dict(doc["config"])
        _, test = split(load_csv(rc.input, rc.target), SplitSpec(rc.test_fraction, rc.seed))
        probas = [np.loadtxt(pdir / f"{name}.csv", delimiter=",", skiprows=1)[:, 1:]
                  for name in ("theta_1", "theta_2")]
        aucs = np.array([doc["member_auc"]["theta_1"], doc["member_auc"]["theta_2"]])
        w = aucs / aucs.sum()
        expected = metrics(w[0] * probas[0] + w[1] * probas[1], test.target)
        assert doc["models"]["E_1:2"] == expected.to_dict()

    def test_zero_auc_member_is_one_warning_line(self, proba_dir, capsys):
        tmp_path, pdir, _ = proba_dir
        rc = RunConfig.from_dict(read_json(tmp_path / "views.json")["config"])
        _, test = split(load_csv(rc.input, rc.target), SplitSpec(rc.test_fraction, rc.seed))
        write_proba_csv(pdir / "theta_1.csv", 0.05 + 0.9 * (1 - test.target))  # AUC 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", "--out", str(tmp_path), "--import-proba", str(pdir)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == ["warning: excluding zero-AUC ensemble members [0]"]
        assert read_json(tmp_path / "metrics.json")["ensembles"]["E_1:2"]["members"] == [
            "theta_2"]

    def test_zero_auc_warning_is_raised_once_per_prefix(self, workdir):
        tmp_path, csv_path = workdir
        assert main(partition_argv(csv_path, tmp_path, **{"--views": 3})) == 0
        rc = RunConfig.from_dict(read_json(tmp_path / "views.json")["config"])
        _, test = split(load_csv(rc.input, rc.target), SplitSpec(rc.test_fraction, rc.seed))
        pdir = tmp_path / "imported"
        pdir.mkdir()
        write_proba_csv(pdir / "theta_1.csv", 0.05 + 0.9 * (1 - test.target))  # AUC 0
        for name in ("theta_2", "theta_3"):
            write_proba_csv(pdir / f"{name}.csv", 0.05 + 0.9 * test.target)
        args = build_parser().parse_args(
            ["evaluate", "--out", str(tmp_path), "--import-proba", str(pdir)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cmd_evaluate(args) == 0
        messages = [str(w.message) for w in caught]
        assert messages == ["excluding zero-AUC ensemble members [0]"] * 2  # E_1:2, E_1:3

    def test_missing_benchmark_file_is_skipped(self, proba_dir, capsys):
        tmp_path, pdir, _ = proba_dir
        (pdir / "All.csv").unlink()
        rc = main(["evaluate", "--out", str(tmp_path),
                   "--import-proba", str(pdir)])
        assert rc == 0
        assert "no All.csv" in capsys.readouterr().err
        doc = read_json(tmp_path / "metrics.json")
        assert set(doc["models"]) == {"theta_1", "theta_2", "E_1:2"}

    def test_bad_row_sum_exits_3_naming_file_and_row(self, proba_dir,
                                                     capsys):
        tmp_path, pdir, n_test = proba_dir
        rows = (pdir / "theta_1.csv").read_text().splitlines()
        rows[4] = "3,0.6,0.6"
        (pdir / "theta_1.csv").write_text("\n".join(rows) + "\n")
        rc = main(["evaluate", "--out", str(tmp_path),
                   "--import-proba", str(pdir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "theta_1.csv row 3" in err
        assert "not 1" in err

    @pytest.mark.parametrize("row", ["3,nan,0.5", "3,0.5,inf"])
    def test_non_finite_row_exits_3(self, proba_dir, capsys, row):
        tmp_path, pdir, _ = proba_dir
        rows = (pdir / "theta_1.csv").read_text().splitlines()
        rows[4] = row
        (pdir / "theta_1.csv").write_text("\n".join(rows) + "\n")
        rc = main(["evaluate", "--out", str(tmp_path),
                   "--import-proba", str(pdir)])
        assert rc == 3
        assert "theta_1.csv row 3: non-finite probability" in capsys.readouterr().err

    @pytest.mark.parametrize("cell,message", [
        (b"\xff", "not UTF-8 text"),
        (b"5" * (csv.field_size_limit() + 1), "field larger than field limit"),
    ], ids=["not_utf8", "field_over_the_csv_limit"])
    def test_unreadable_file_exits_3(self, proba_dir, capsys, cell, message):
        tmp_path, pdir, _ = proba_dir
        path = pdir / "theta_1.csv"
        rows = path.read_bytes().splitlines()
        rows[4] = b"3,0.5," + cell
        path.write_bytes(b"\n".join(rows) + b"\n")
        rc = main(["evaluate", "--out", str(tmp_path),
                   "--import-proba", str(pdir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err
        assert "internal error" not in err

    def test_bad_header_exits_3(self, proba_dir, capsys):
        tmp_path, pdir, n_test = proba_dir
        rows = (pdir / "theta_2.csv").read_text().splitlines()
        rows[0] = "id,p0,p1"
        (pdir / "theta_2.csv").write_text("\n".join(rows) + "\n")
        rc = main(["evaluate", "--out", str(tmp_path),
                   "--import-proba", str(pdir)])
        assert rc == 3
        assert "header must be" in capsys.readouterr().err

    def test_missing_member_file_exits_3(self, proba_dir, capsys):
        tmp_path, pdir, _ = proba_dir
        (pdir / "theta_1.csv").unlink()
        rc = main(["evaluate", "--out", str(tmp_path),
                   "--import-proba", str(pdir)])
        assert rc == 3
        assert "theta_1.csv" in capsys.readouterr().err

    def test_wrong_row_count_exits_3(self, proba_dir, capsys):
        tmp_path, pdir, n_test = proba_dir
        write_proba_csv(pdir / "theta_1.csv", [0.5] * (n_test - 1))
        rc = main(["evaluate", "--out", str(tmp_path),
                   "--import-proba", str(pdir)])
        assert rc == 3
        assert f"expected {n_test} rows" in capsys.readouterr().err

    def test_trailing_blank_line_is_no_row(self, proba_dir, capsys):
        tmp_path, pdir, _ = proba_dir
        argv = ["evaluate", "--out", str(tmp_path), "--import-proba", str(pdir)]
        assert main(argv) == 0
        expected = (tmp_path / "metrics.json").read_bytes()
        with open(pdir / "theta_2.csv", "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / "metrics.json").read_bytes() == expected

    def test_byte_order_mark_is_skipped(self, proba_dir, capsys):
        tmp_path, pdir, _ = proba_dir
        argv = ["evaluate", "--out", str(tmp_path), "--import-proba", str(pdir)]
        assert main(argv) == 0
        expected = (tmp_path / "metrics.json").read_bytes()
        path = pdir / "theta_1.csv"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / "metrics.json").read_bytes() == expected


class TestDiagnoseCommand:
    def test_report_artifact_and_stdout(self, partitioned, capsys):
        tmp_path, _ = partitioned
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "max pairwise CMI given target:" in captured.out
        assert "assumption violated:" in captured.out

        doc = read_json(tmp_path / "independence.json")
        assert doc["format_version"] == FORMAT_VERSION
        for key in ("pairwise_cmi", "h_f", "h_y", "h_f_le_h_y",
                    "assumption_violated", "tolerance", "config"):
            assert key in doc
        cmi = doc["pairwise_cmi"]
        assert len(cmi) == 2 and len(cmi[0]) == 2

        log = read_json(tmp_path / "run_log.json")
        assert "diagnose" in log and "partition" in log

    def test_criteria_met_rows_follow_the_identity(self, workdir):
        """Once view a holds H(S_a,Y) = H(F,Y), (S_a, Y) fixes every code,
        so I(S_a;S_b|Y) = H(S_b,Y) - H(Y) for every view b."""
        tmp_path, csv_path = workdir
        assert main(partition_argv(csv_path, tmp_path, **{"--views": "3"})) == 0
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        views = read_json(tmp_path / "views.json")["views"]
        report = read_json(tmp_path / "independence.json")
        cmi, h_y = report["pairwise_cmi"], report["h_y"]
        met = [a for a, v in enumerate(views) if v["termination"] == "criteria_met"]
        assert len(met) == 2 and views[2]["termination"] == "pool_exhausted"
        for a in met:
            for b, view in enumerate(views):
                expected = view["h_sy"] - h_y
                assert abs(cmi[a][b] - expected) <= 1e-12, (a, b)
                assert abs(cmi[b][a] - expected) <= 1e-12, (b, a)

    def test_missing_views_file_exits_3(self, tmp_path):
        assert main(["diagnose", "--out", str(tmp_path)]) == 3

    def test_column_mismatch_exits_3(self, partitioned, capsys):
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        doc["feature_names"][0] = "renamed"
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["diagnose", "--out", str(tmp_path)]) == 3
        assert "dataset columns do not match the views file" in capsys.readouterr().err
        assert not (tmp_path / "independence.json").exists()


class TestViewsFileIndices:
    """Checks of a views file against the dataset; `partition` left a parse
    cache, so they run against the cached feature names."""

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize("indices", [[-1, 0], [0, 99], [0.5, 1], [], [True, 1], [0, 0]],
                             ids=["negative", "past_end", "float", "empty", "bool", "repeat"])
    def test_bad_indices_exit_3(self, partitioned, capsys, command, indices):
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        doc["views"][1]["features"]["indices"] = indices
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "view 2 indices must be a non-empty list of ints in [0, 12)" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_view_without_indices_exits_3(self, partitioned, capsys, command):
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        del doc["views"][1]["features"]
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, "--out", str(tmp_path)]) == 3
        assert "view 2 in the views file has no features.indices" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize("edit,message", [
        (lambda doc: [doc], "lacks config/views"),
        (lambda doc: {**doc, "views": 5}, "config must be an object and views a list"),
        (lambda doc: {**doc, "config": []}, "config must be an object and views a list"),
    ], ids=["list_document", "views_int", "config_list"])
    def test_wrong_document_shape_exits_3(self, partitioned, capsys, command, edit, message):
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        views_path.write_text(json.dumps(edit(read_json(views_path))), encoding="utf-8")
        assert main([command, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_empty_views_list_exits_3(self, partitioned, capsys, command):
        # evaluate used to write metrics for All alone, and diagnose to exit 2
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        doc["views"] = []
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        assert main([command, "--out", str(tmp_path)]) == 3
        assert f"views file {views_path} holds no views" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize("key,value,message", [
        ("max_iters", "500", "must be int, got '500'"),
        ("bins", "10", "must be int, got '10'"),
        ("l2", math.nan, "must be a finite float, got nan"),
    ])
    def test_wrong_config_value_type_exits_2(self, partitioned, capsys, command, key, value,
                                             message):
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        doc["config"][key] = value
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config key '{key}' {message}" in err
        assert "internal error" not in err



    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize("key,value,message", [
        ("n_views", 0, "must be >= 1, got 0"),
        ("min_features", 1.5, "must be in (0.0, 1.0) or a whole number >= 1, got 1.5"),
        ("min_features", 0, "must be in (0.0, 1.0) or a whole number >= 1, got 0"),
        ("remove_fraction", 1.5, "must be in [0.0, 1.0], got 1.5"),
        ("entropy_tolerance", 1.0, "must be in (0.0, 1.0), got 1.0"),
        ("seed", -1, "must be non-negative, got -1"),
        ("bins", 1, "must be >= 2, got 1"),
        ("discretizer", "bogus", "must be 'equal_frequency' or 'equal_width', got 'bogus'"),
        ("test_fraction", 0.0, "must be in (0.0, 1.0), got 0.0"),
        ("missing_policy", "skip", "must be 'error' or 'drop' or 'median', got 'skip'"),
        ("holdout_fraction", 0.0, "must be in (0.0, 1.0), got 0.0"),
        ("l2", -1.0, "must be non-negative, got -1.0"),
        ("max_iters", -3, "must be >= 1, got -3"),
        ("opt_tol", -1.0, "must be positive, got -1.0"),
        ("format_version", 99, f"must be in [1, {FORMAT_VERSION}], got 99"),  # a newer format
        ("format_version", 0, f"must be in [1, {FORMAT_VERSION}], got 0"),
        ("format_version", -3, f"must be in [1, {FORMAT_VERSION}], got -3"),
    ])
    def test_out_of_range_config_value_exits_2(self, partitioned, capsys, command, key,
                                               value, message):
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        doc["config"][key] = value
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        log = (tmp_path / "run_log.json").read_bytes()
        assert main([command, "--out", str(tmp_path)]) == 2
        assert f"error: {key} {message}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "run_log.json").read_bytes() == log

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize("version,message", [
        (99, f"must be in [1, {FORMAT_VERSION}], got 99"),
        (0, f"must be in [1, {FORMAT_VERSION}], got 0"),
        (FORMAT_VERSION - 1, f"{FORMAT_VERSION - 1} differs from its config's {FORMAT_VERSION}"),
        ("5", "must be int, got '5'"),
        (None, "must be int, got None"),
    ], ids=["newer", "zero", "older_than_config", "string", "absent"])
    def test_top_level_format_version_checked(self, partitioned, capsys, command, version,
                                              message):
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        assert doc["config"]["format_version"] == FORMAT_VERSION
        if version is None:
            del doc["format_version"]
        else:
            doc["format_version"] = version
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        log = (tmp_path / "run_log.json").read_bytes()
        assert main([command, "--out", str(tmp_path)]) == 2
        assert f"error: views file format_version {message}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "run_log.json").read_bytes() == log


class TestViewsFileIndicesParsed(TestViewsFileIndices):
    """The same checks against the feature names parsed from the CSV."""

    @pytest.fixture()
    def partitioned(self, partitioned):
        shutil.rmtree(partitioned[0] / CACHE_DIR)
        return partitioned


class TestFlagRanges:
    @pytest.mark.parametrize("command,flag,value,message", [
        ("partition", "--views", "0", "n_views must be >= 1, got 0"),
        ("partition", "--min-frac", "1.0", "min_features must be in (0.0, 1.0), got 1.0"),
        ("partition", "--min-count", "0", "min_features must be a whole number >= 1, got 0"),
        ("partition", "--remove-frac", "-0.1", "remove_fraction must be in [0.0, 1.0], got -0.1"),
        ("partition", "--bins", "1", "bins must be >= 2, got 1"),
        ("partition", "--tolerance", "0", "entropy_tolerance must be in (0.0, 1.0), got 0.0"),
        ("partition", "--seed", "-1", "seed must be non-negative, got -1"),
        ("partition", "--test-frac", "1", "test_fraction must be in (0.0, 1.0), got 1.0"),
        ("evaluate", "--holdout-frac", "0", "holdout_fraction must be in (0.0, 1.0), got 0.0"),
        ("stats", "--alpha", "0", "alpha must be in (0.0, 1.0), got 0.0"),
        ("stats", "--bootstrap", "99", "bootstrap must be >= 100, got 99"),
        ("stats", "--confidence", "1", "confidence must be in (0.0, 1.0), got 1.0"),
        ("stats", "--seed", "-1", "seed must be non-negative, got -1"),
    ])
    def test_out_of_range_flag_exits_2_naming_it(self, workdir, capsys, command, flag, value,
                                                message):
        tmp_path, csv_path = workdir
        required = {
            "partition": ["--input", str(csv_path), "--target", "y"],
            "evaluate": [],
            "stats": ["--matrix", f"acc={csv_path}", "--benchmark", "y"],
        }[command]
        assert main([command, *required, "--out", str(tmp_path), flag, value]) == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.csv"]


def write_missing_cells(csv_path: Path) -> None:
    """Blank two feature cells and mark one target missing: 3 rows to drop,
    or 2 cells to impute and 1 row to drop."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    for row, column in [(3, 5), (40, 0)]:  # blank feature cells
        cells = lines[row].split(",")
        cells[column] = ""
        lines[row] = ",".join(cells)
    lines[60] = lines[60].rsplit(",", 1)[0] + ",NA"  # missing target
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestRunLogLoadCounters:
    @pytest.mark.parametrize("policy,rejected,imputed", [
        ("drop", 3, 0),
        ("median", 1, 2),
    ])
    def test_counters_in_every_loading_command(self, workdir, policy, rejected, imputed):
        tmp_path, csv_path = workdir
        write_missing_cells(csv_path)
        argv = partition_argv(csv_path, tmp_path, **{"--missing-policy": policy})
        assert main(argv) == 0
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        log = read_json(tmp_path / "run_log.json")
        for command in ("partition", "evaluate", "diagnose"):
            assert log[command]["rows_rejected"] == rejected, command
            assert log[command]["cells_imputed"] == imputed, command

class TestParseCache:
    """`partition` leaves the parsed table and the training rows' codes
    beside views.json; `evaluate` and `diagnose` read them while the key
    matches and parse the CSV otherwise, with the same results."""

    @staticmethod
    def stages(tmp_path: Path) -> tuple[dict, dict]:
        """Run `evaluate` (built-in, and imported from another directory),
        then `diagnose`: their artifacts' bytes and their run-log loading entries."""
        rc = RunConfig.from_dict(read_json(tmp_path / "views.json")["config"])
        d = load_csv(rc.input, rc.target, missing_policy=rc.missing_policy)
        n_test = split(d, SplitSpec(rc.test_fraction, rc.seed))[1].n_rows
        pdir, imp = tmp_path / "proba", tmp_path / "import"
        pdir.mkdir(exist_ok=True)
        rng = np.random.default_rng(5)
        for name in ("theta_1", "theta_2", "All"):
            write_proba_csv(pdir / f"{name}.csv", rng.uniform(0.05, 0.95, size=n_test))
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        assert main(["evaluate", "--views-file", str(tmp_path / "views.json"),
                     "--import-proba", str(pdir), "--out", str(imp)]) == 0
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        artifacts = {path: path.read_bytes() for path in
                     (tmp_path / "metrics.json", imp / "metrics.json", tmp_path / "independence.json")}
        keys = ("rows_rejected", "cells_imputed", "parse_cache")
        logs = {f"{command}{where}": {k: read_json(out / "run_log.json")[command][k] for k in keys}
                for command, where, out in [("evaluate", "", tmp_path), ("evaluate", " import", imp),
                                            ("diagnose", "", tmp_path)]}
        return artifacts, logs

    @staticmethod
    def outcomes(logs: dict) -> dict:
        return {stage: entry.pop("parse_cache") for stage, entry in logs.items()}

    ALL_HIT = {"evaluate": "hit", "evaluate import": "hit", "diagnose": "hit"}
    ALL_MISS = {"evaluate": "miss", "evaluate import": "miss", "diagnose": "miss"}

    @pytest.mark.parametrize("policy", ["error", "drop", "median"])
    def test_hit_and_miss_give_identical_results(self, workdir, policy):
        tmp_path, csv_path = workdir
        if policy != "error":
            write_missing_cells(csv_path)
        assert main(partition_argv(csv_path, tmp_path, **{"--missing-policy": policy})) == 0
        hit, hit_logs = self.stages(tmp_path)
        shutil.rmtree(tmp_path / CACHE_DIR)
        miss, miss_logs = self.stages(tmp_path)
        assert self.outcomes(hit_logs) == self.ALL_HIT
        assert self.outcomes(miss_logs) == self.ALL_MISS
        assert hit == miss
        assert hit_logs == miss_logs

    def test_changed_cell_is_a_miss(self, partitioned):
        tmp_path, csv_path = partitioned
        cached, _ = self.stages(tmp_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",pos"  # a "neg" row relabelled
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        changed, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == self.ALL_MISS
        shutil.rmtree(tmp_path / CACHE_DIR)
        fresh, _ = self.stages(tmp_path)
        assert changed == fresh
        assert changed != cached

    def test_same_length_feature_edit_is_a_miss(self, partitioned):
        # the key holds the CSV's byte count too, so an edit that keeps it
        # is caught by the CRC-32 alone
        tmp_path, csv_path = partitioned
        data = csv_path.read_bytes()
        row = data.index(b"\n1,") + 1  # a row whose first feature reads 1
        csv_path.write_bytes(data[:row] + b"0" + data[row + 1:])
        views = read_json(tmp_path / "views.json")["views"]
        changed, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == self.ALL_MISS
        assert main(partition_argv(csv_path, tmp_path)) == 0
        assert read_json(tmp_path / "views.json")["views"] == views
        fresh, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == self.ALL_HIT
        assert changed == fresh

    def test_touched_csv_is_a_hit(self, partitioned):
        # the key reads the bytes, not the modification time
        tmp_path, csv_path = partitioned
        cached, _ = self.stages(tmp_path)
        stat = csv_path.stat()
        os.utime(csv_path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 3_600 * 10**9))
        touched, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == self.ALL_HIT
        assert touched == cached

    def test_sha256_key_of_an_older_cache_is_a_miss(self, partitioned):
        # earlier versions keyed the cache by the SHA-256 of the CSV
        tmp_path, csv_path = partitioned
        key_path = tmp_path / CACHE_DIR / "key.json"
        meta = read_json(key_path)
        rest = {k: v for k, v in meta["key"].items() if k not in ("crc32", "n_bytes")}
        meta["key"] = {"sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(), **rest}
        key_path.write_text(json.dumps(meta), encoding="utf-8")
        _, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == self.ALL_MISS

    @pytest.mark.parametrize("key,value", [
        ("missing_policy", "median"), ("test_fraction", 0.25), ("holdout_fraction", 0.3),
        ("seed", 8), ("bins", 4), ("discretizer", "equal_width"),
    ])
    def test_other_config_key_is_a_miss(self, partitioned, key, value):
        tmp_path, _ = partitioned
        views_path = tmp_path / "views.json"
        doc = read_json(views_path)
        doc["config"][key] = value
        views_path.write_text(json.dumps(doc), encoding="utf-8")
        _, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == self.ALL_MISS

    READERS = {"features": ("evaluate",), "target": ("evaluate", "evaluate import"),
               "rows": ("evaluate", "evaluate import"),
               "codes": ("diagnose",), "train_target": ("diagnose",)}

    def test_every_cached_array_is_damaged_below(self, partitioned):
        # an array partition saves without a READERS entry would skip the damage tests
        tmp_path, _ = partitioned
        stems = sorted(path.stem for path in (tmp_path / CACHE_DIR).glob("*.npy"))
        assert stems == sorted(self.READERS)

    @pytest.mark.parametrize("name", sorted(READERS))
    @pytest.mark.parametrize("edit", [
        lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
        lambda path: path.write_bytes(b""),
        lambda path: path.unlink(),
        lambda path: np.save(path, np.load(path).astype(np.int32)),
        lambda path: np.save(path, np.load(path)[:-1]),
    ], ids=["truncated", "empty", "absent", "int32", "one_row_short"])
    def test_damaged_array_is_a_miss(self, partitioned, capsys, name, edit):
        tmp_path, _ = partitioned
        edit(tmp_path / CACHE_DIR / f"{name}.npy")
        capsys.readouterr()
        _, logs = self.stages(tmp_path)
        assert "error" not in capsys.readouterr().err
        expected = {stage: "miss" if stage in self.READERS[name] else "hit" for stage in logs}
        assert self.outcomes(logs) == expected

    @pytest.mark.parametrize("role,to", [(0, 3), (2, -1), (2, 0), (0, 1)],
                             ids=["role_3", "negative_role", "test_row_as_training",
                                  "training_row_as_holdout"])
    def test_miscounted_roles_are_a_miss(self, partitioned, role, to):
        # rows.npy's role counts must be key.json's (0 inner training row,
        # 1 holdout, 2 test row); a miss draws the rows that partition drew
        tmp_path, _ = partitioned
        intact, _ = self.stages(tmp_path)
        path = tmp_path / CACHE_DIR / "rows.npy"
        roles = np.load(path)
        roles[np.flatnonzero(roles == role)[0]] = to
        np.save(path, roles)
        drawn, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == {**self.ALL_MISS, "diagnose": "hit"}
        assert drawn == intact

    def test_int64_codes_of_an_older_cache_are_a_miss(self, partitioned):
        # a cache written before the codes were narrowed holds them as int64
        tmp_path, _ = partitioned
        codes_path = tmp_path / CACHE_DIR / "codes.npy"
        assert np.load(codes_path).dtype == np.uint8
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        narrow = (tmp_path / "independence.json").read_bytes()
        np.save(codes_path, np.load(codes_path).astype(np.int64))
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "run_log.json")["diagnose"]["parse_cache"] == "miss"
        assert (tmp_path / "independence.json").read_bytes() == narrow

    def test_older_cache_with_cardinalities_is_a_hit(self, partitioned):
        # earlier caches also held each column's cardinality, which the
        # codes hold: the file is left alone and never read
        tmp_path, _ = partitioned
        cache = tmp_path / CACHE_DIR
        cards = np.load(cache / "codes.npy").max(axis=0).astype(np.intp) + 1
        np.save(cache / "cardinalities.npy", cards)
        hit, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == self.ALL_HIT
        shutil.rmtree(cache)
        assert self.stages(tmp_path)[0] == hit

    @pytest.mark.parametrize("content", ["{not json", "[]", '{"key": null}', ""])
    def test_damaged_key_file_is_a_miss(self, partitioned, content):
        tmp_path, _ = partitioned
        (tmp_path / CACHE_DIR / "key.json").write_text(content, encoding="utf-8")
        _, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == self.ALL_MISS

    def test_stages_on_a_hit_never_parse(self, partitioned, monkeypatch):
        tmp_path, _ = partitioned

        def refuse(*args, **kwargs):
            raise AssertionError("parsed on a cache hit")

        monkeypatch.setattr(cli, "load_csv", refuse)
        monkeypatch.setattr(cli, "discretize", refuse)
        assert main(["evaluate", "--out", str(tmp_path)]) == 0
        # diagnose reads the codes alone, not the float table
        for name in ("features", "target"):
            (tmp_path / CACHE_DIR / f"{name}.npy").unlink()
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        log = read_json(tmp_path / "run_log.json")
        assert log["evaluate"]["parse_cache"] == log["diagnose"]["parse_cache"] == "hit"

    def test_import_reads_the_target_alone(self, partitioned):
        # the split needs only the target, and imported members no features
        tmp_path, _ = partitioned
        imp = tmp_path / "import"
        argv = ["evaluate", "--views-file", str(tmp_path / "views.json"),
                "--import-proba", str(write_imported(tmp_path)), "--out", str(imp)]
        assert main(argv) == 0
        intact = (imp / "metrics.json").read_bytes()
        (tmp_path / CACHE_DIR / "features.npy").unlink()
        assert main(argv) == 0
        assert read_json(imp / "run_log.json")["evaluate"]["parse_cache"] == "hit"
        assert (imp / "metrics.json").read_bytes() == intact

    def test_partition_clears_the_cache(self, partitioned):
        # files an earlier version or anything else left there are gone
        tmp_path, csv_path = partitioned
        cache = tmp_path / CACHE_DIR
        codes = np.load(cache / "codes.npy")
        np.save(cache / "cardinalities.npy", codes.max(axis=0).astype(np.intp) + 1)
        np.save(cache / "stale.npy", codes)
        assert main(partition_argv(csv_path, tmp_path)) == 0
        assert sorted(p.name for p in cache.iterdir()) == [
            "codes.npy", "features.npy", "key.json", "rows.npy", "target.npy",
            "train_target.npy"]

    def test_unwritable_cache_is_no_error(self, workdir):
        tmp_path, csv_path = workdir
        (tmp_path / CACHE_DIR).write_text("a file where the directory goes", encoding="utf-8")
        assert main(partition_argv(csv_path, tmp_path)) == 0
        _, logs = self.stages(tmp_path)
        assert self.outcomes(logs) == self.ALL_MISS


class TestCachedRowSplit:
    """`partition` saves each row's role in the outer and holdout splits as
    rows.npy in the parse cache; `evaluate` reads its rows from there on a
    hit and draws them, with the same results, on a miss."""

    @staticmethod
    def evaluate(tmp_path: Path, *flags: str) -> tuple[dict, dict]:
        """Run `evaluate` on the built-in models and on imported files, with
        `flags`: each one's metrics.json bytes and run-log `parse_cache`."""
        pdir = tmp_path / "imported"
        if not pdir.exists():
            write_imported(tmp_path)
        outs = {"built_in": tmp_path, "import": tmp_path / "import"}
        assert main(["evaluate", "--out", str(tmp_path), *flags]) == 0
        assert main(["evaluate", "--views-file", str(tmp_path / "views.json"),
                     "--import-proba", str(pdir), "--out", str(outs["import"]), *flags]) == 0
        return ({name: (out / "metrics.json").read_bytes() for name, out in outs.items()},
                {name: read_json(out / "run_log.json")["evaluate"]["parse_cache"]
                 for name, out in outs.items()})

    def test_roles_are_the_drawn_splits(self, partitioned):
        tmp_path, csv_path = partitioned
        meta = read_json(tmp_path / CACHE_DIR / "key.json")
        roles = np.load(tmp_path / CACHE_DIR / "rows.npy")
        assert roles.dtype == np.int8
        d = load_csv(str(csv_path), "y")
        train_idx, test_idx = split_rows(d, SplitSpec(0.33, 7))
        inner_idx, holdout_idx = split_rows(d.subset(train_idx), SplitSpec(0.2, 7),
                                            HOLDOUT_STREAM)
        for role, rows in enumerate([train_idx[inner_idx], train_idx[holdout_idx], test_idx]):
            assert np.array_equal(np.flatnonzero(roles == role), rows)
        assert (meta["key"]["holdout_fraction"], meta["n_holdout_rows"]) == (0.2, holdout_idx.size)

    def test_other_holdout_fraction_is_drawn(self, partitioned):
        # the fraction is in the cache's key, so another one is a miss on
        # both paths, the same as having no cache
        tmp_path, _ = partitioned
        cached, outcomes = self.evaluate(tmp_path, "--holdout-frac", "0.3")
        assert outcomes == {"built_in": "miss", "import": "miss"}
        assert read_json(tmp_path / "metrics.json")["weighting"]["holdout_fraction"] == 0.3
        shutil.rmtree(tmp_path / CACHE_DIR)
        drawn, outcomes = self.evaluate(tmp_path, "--holdout-frac", "0.3")
        assert outcomes == {"built_in": "miss", "import": "miss"}
        assert drawn == cached

    def test_class_with_one_training_row(self, workdir, capsys):
        # two rows: one goes to the test rows, so the holdout split cannot
        # be drawn; partition saves no holdout and evaluate reports it
        tmp_path, csv_path = workdir
        with open(csv_path, "a", encoding="utf-8") as fh:
            fh.write("".join(",".join(["1"] * 12 + ["rare"]) + "\n" for _ in range(2)))
        assert main(partition_argv(csv_path, tmp_path)) == 0
        meta = read_json(tmp_path / CACHE_DIR / "key.json")
        assert (meta["key"]["holdout_fraction"], meta["n_holdout_rows"]) == (0.2, 0)
        views = (tmp_path / "views.json").read_text(encoding="utf-8")
        doc = json.loads(views)
        doc["feature_names"][0] = "g0"
        capsys.readouterr()
        for outcome in ("hit", "miss"):
            if outcome == "miss":
                shutil.rmtree(tmp_path / CACHE_DIR)
            (tmp_path / "views.json").write_text(views, encoding="utf-8")
            assert main(["evaluate", "--out", str(tmp_path)]) == 3
            assert capsys.readouterr().err == (
                "error: class 'rare' has fewer than 2 rows; cannot appear in both sides\n")
            # a views file that does not fit the dataset is reported first
            (tmp_path / "views.json").write_text(json.dumps(doc), encoding="utf-8")
            assert main(["evaluate", "--out", str(tmp_path)]) == 3
            assert "dataset columns do not match the views file" in capsys.readouterr().err


def write_matrix_csv(path: Path, columns: dict) -> None:
    names = list(columns)
    n = len(next(iter(columns.values())))
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(repr(float(columns[m][i])) for m in names))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestStatsCommand:
    @pytest.fixture()
    def matrices(self, tmp_path):
        # strict per-block ordering and full cross-column separation:
        # friedman hits its 10x3 maximum and every delta is +/-1
        base = [float(i) for i in range(10)]
        write_matrix_csv(tmp_path / "acc.csv", {
            "ours": [v + 100.0 for v in base],
            "other": [v + 50.0 for v in base],
            "base": base,
        })
        write_matrix_csv(tmp_path / "loss.csv", {
            "ours": [v - 100.0 for v in base],
            "other": [v - 50.0 for v in base],
            "base": base,
        })
        return tmp_path

    def stats_argv(self, tmp_path, **extra):
        argv = ["stats",
                "--matrix", f"acc={tmp_path / 'acc.csv'}",
                "--matrix", f"loss={tmp_path / 'loss.csv'}",
                "--benchmark", "base",
                "--lower-better", "loss",
                "--bootstrap", "200",
                "--out", str(tmp_path)]
        for k, v in extra.items():
            argv += [k, str(v)]
        return argv

    def test_verdicts_artifact_and_stdout(self, matrices, capsys):
        tmp_path = matrices
        assert main(self.stats_argv(tmp_path)) == 0
        captured = capsys.readouterr()
        assert "acc: W-T-L vs base = 2-0-0" in captured.out
        assert "loss: W-T-L vs base = 2-0-0" in captured.out

        doc = read_json(tmp_path / "verdicts.json")
        assert doc["format_version"] == FORMAT_VERSION
        cfg = doc["config"]
        assert cfg["benchmark"] == "base"
        assert cfg["lower_better"] == ["loss"]
        assert cfg["friedman_p_adjustment"] == "bonferroni_across_metrics"
        assert cfg["conover_p_adjustment"] == (
            "benjamini_hochberg_within_metric")
        assert set(doc["metrics"]) == {"acc", "loss"}
        for name in ("acc", "loss"):
            block = doc["metrics"][name]
            assert block["friedman"]["statistic"] == pytest.approx(20.0)
            assert block["friedman"]["p"] == pytest.approx(math.exp(-10.0))
            assert set(block["verdicts"]) == {"ours", "other"}
            for model, verdict in block["verdicts"].items():
                assert verdict["outcome"] == "win"
                assert verdict["delta"] == 1.0
                assert verdict["magnitude"] == "large"
                assert verdict["ci"] == [1.0, 1.0]
                assert verdict["p_conover_adj"] == 0.0

        log = read_json(tmp_path / "run_log.json")["stats"]
        assert log["comparisons"] == 4  # 2 metrics x 2 models
        # one run count, so one draw of 200 replicates: 3 x 64 + 8
        assert log["bootstrap_blocks_drawn"] == 4

    def test_friedman_runs_once_per_metric(self, matrices, monkeypatch):
        tmp_path = matrices
        calls = []

        def counting(m):
            calls.append(m)
            return friedman(m)

        monkeypatch.setattr(evalstats, "friedman", counting)
        assert main(self.stats_argv(tmp_path)) == 0
        assert len(calls) == 2  # acc and loss
        doc = read_json(tmp_path / "verdicts.json")
        for name, m in zip(("acc", "loss"), calls):
            statistic, p = friedman(m)
            assert doc["metrics"][name]["friedman"] == {"statistic": statistic, "p": p}

    def test_rerun_is_byte_identical(self, matrices):
        tmp_path = matrices
        argv = self.stats_argv(tmp_path)
        assert main(argv) == 0
        first = (tmp_path / "verdicts.json").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "verdicts.json").read_bytes() == first

    def test_trailing_blank_line_is_no_run(self, matrices, capsys):
        tmp_path = matrices
        argv = self.stats_argv(tmp_path)
        assert main(argv) == 0
        expected = (tmp_path / "verdicts.json").read_bytes()
        with open(tmp_path / "acc.csv", "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / "verdicts.json").read_bytes() == expected

    def test_byte_order_mark_is_skipped(self, matrices, capsys):
        tmp_path = matrices
        argv = self.stats_argv(tmp_path)
        assert main(argv) == 0
        expected = (tmp_path / "verdicts.json").read_bytes()
        path = tmp_path / "acc.csv"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / "verdicts.json").read_bytes() == expected

    # SHA-256 of the verdicts.json that format 8 writes for each fixture; a
    # change to how the intervals are computed must leave these bytes alone
    PINNED = {
        "separated": "16925f8120b20c617f3f9295870b9e5f16acda49359f462f05a9b8b2b30b9da7",
        "overlapping": "c08d19e0fda18c3eeb9a44da16f8bb7d7b030710c4c5469fab2331e689c262e0",
    }

    def test_verdicts_bytes_pinned(self, matrices):
        tmp_path = matrices
        assert main(self.stats_argv(tmp_path)) == 0
        data = (tmp_path / "verdicts.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.PINNED["separated"]

    def test_overlapping_verdicts_bytes_pinned(self, tmp_path):
        # ties within and across columns, and two run counts (12 and 9)
        write_matrix_csv(tmp_path / "acc.csv", {
            "ours": [(7 * i % 11) / 4 for i in range(12)],
            "other": [(5 * i % 7) / 2 for i in range(12)],
            "base": [(3 * i % 13) / 4 for i in range(12)],
        })
        write_matrix_csv(tmp_path / "loss.csv", {
            "ours": [(i * i % 5) / 8 for i in range(9)],
            "other": [(4 * i % 9) / 8 for i in range(9)],
            "base": [(2 * i % 7) / 8 for i in range(9)],
        })
        argv = self.stats_argv(tmp_path, **{"--bootstrap": 500, "--seed": 3})
        assert main(argv) == 0
        data = (tmp_path / "verdicts.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.PINNED["overlapping"]

    def test_identical_columns_give_ties(self, tmp_path, capsys):
        col = [float(i) for i in range(8)]
        write_matrix_csv(tmp_path / "flat.csv",
                         {"ours": col, "other": col, "base": col})
        argv = ["stats", "--matrix", f"flat={tmp_path / 'flat.csv'}",
                "--benchmark", "base", "--bootstrap", "200",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "flat: W-T-L vs base = 0-2-0" in capsys.readouterr().out
        doc = read_json(tmp_path / "verdicts.json")
        verdicts = doc["metrics"]["flat"]["verdicts"]
        assert all(v["outcome"] == "tie" for v in verdicts.values())

    def test_matrix_spec_without_equals_exits_2(self, matrices, capsys):
        tmp_path = matrices
        argv = ["stats", "--matrix", "nopath", "--benchmark", "base",
                "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "NAME=PATH" in capsys.readouterr().err

    def test_duplicate_matrix_name_exits_2(self, matrices):
        tmp_path = matrices
        argv = ["stats",
                "--matrix", f"acc={tmp_path / 'acc.csv'}",
                "--matrix", f"acc={tmp_path / 'loss.csv'}",
                "--benchmark", "base", "--out", str(tmp_path)]
        assert main(argv) == 2

    def test_unknown_lower_better_metric_exits_2(self, matrices):
        tmp_path = matrices
        argv = self.stats_argv(tmp_path) + ["--lower-better", "bogus"]
        assert main(argv) == 2

    def test_absent_benchmark_column_exits_2(self, matrices, capsys):
        tmp_path = matrices
        argv = ["stats", "--matrix", f"acc={tmp_path / 'acc.csv'}",
                "--benchmark", "quux", "--out", str(tmp_path)]
        assert main(argv) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_file_row_and_model(self, matrices, capsys, cell):
        tmp_path = matrices
        lines = (tmp_path / "loss.csv").read_text(encoding="utf-8").splitlines()
        fields = lines[3].split(",")
        fields[1] = cell  # run row 3, model "other"
        lines[3] = ",".join(fields)
        (tmp_path / "loss.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(self.stats_argv(tmp_path)) == 3
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'loss.csv'}: run matrix has a non-finite cell "
                       "in run row 3, model 'other'\n")
        assert not (tmp_path / "verdicts.json").exists()

    def test_header_only_matrix_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1.0,2.0,3.0\n", encoding="utf-8")
        argv = ["stats", "--matrix", f"m={bad}", "--benchmark", "a",
                "--out", str(tmp_path)]
        assert main(argv) == 3
        assert ">= 2 run rows" in capsys.readouterr().err

    def test_matrix_not_utf8_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1.0,2.0\n1.0,\xff\n")
        argv = ["stats", "--matrix", f"m={bad}", "--benchmark", "a",
                "--out", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err
        assert "internal error" not in err

    def test_matrix_field_over_the_csv_limit_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n1.0," + "2" * (csv.field_size_limit() + 1) + "\n",
                       encoding="utf-8")
        argv = ["stats", "--matrix", f"m={bad}", "--benchmark", "a",
                "--out", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{bad}: field larger than field limit" in err
        assert "internal error" not in err

    def test_non_numeric_cell_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n1.0,oops\n", encoding="utf-8")
        argv = ["stats", "--matrix", f"m={bad}", "--benchmark", "a",
                "--out", str(tmp_path)]
        assert main(argv) == 3

    def test_alpha_out_of_range_exits_2(self, matrices, capsys):
        tmp_path = matrices
        assert main(self.stats_argv(tmp_path, **{"--alpha": "1.0"})) == 2
        assert "--alpha" in capsys.readouterr().err

    def test_low_bootstrap_count_exits_2(self, matrices):
        tmp_path = matrices
        assert main(self.stats_argv(tmp_path, **{"--bootstrap": "10"})) == 2

    def test_negative_seed_exits_2(self, matrices, capsys):
        tmp_path = matrices
        assert main(self.stats_argv(tmp_path, **{"--seed": "-1"})) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err
        assert "internal error" not in err
        assert not (tmp_path / "verdicts.json").exists()


class TestUnusablePaths:
    """A path a stage cannot read or write is a data error (exit 3) whose
    message names it, not an internal error."""

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_directory_as_views_file_exits_3(self, tmp_path, capsys, command):
        views = tmp_path / "views.json"
        views.mkdir()
        assert main([command, "--views-file", str(views), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"error: cannot read views file {views}: " in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["partition", "stats"])
    def test_out_naming_a_file_exits_3(self, workdir, capsys, command):
        tmp_path, csv_path = workdir
        out = tmp_path / "taken"
        out.write_text("a file where the output directory goes", encoding="utf-8")
        if command == "partition":
            argv, artifact = partition_argv(csv_path, out), "views.json"
        else:
            write_matrix_csv(tmp_path / "acc.csv", {
                "ours": [i + 2.0 for i in range(10)], "other": [i + 1.0 for i in range(10)],
                "base": [float(i) for i in range(10)]})
            argv = ["stats", "--matrix", f"acc={tmp_path / 'acc.csv'}", "--benchmark", "base",
                    "--bootstrap", "200", "--out", str(out)]
            artifact = "verdicts.json"
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"error: cannot write {out / artifact}: " in err
        assert "internal error" not in err
        assert out.read_text(encoding="utf-8") == "a file where the output directory goes"

    @pytest.mark.parametrize("command,artifact,work", [
        ("partition", "views.json", ["load_csv"]),
        ("evaluate", "metrics.json", ["_load_and_split"]),
        ("diagnose", "independence.json", ["_read_cache", "_load_train"]),
        ("stats", "verdicts.json", []),
    ])
    def test_out_naming_a_file_exits_3_before_any_work(
            self, partitioned, capsys, monkeypatch, command, artifact, work):
        tmp_path, csv_path = partitioned
        out = tmp_path / "taken"
        out.write_text("a file where the output directory goes", encoding="utf-8")

        def unreachable(*args, **kwargs):
            raise AssertionError("the stage worked before checking --out")

        for name in work:
            monkeypatch.setattr(cli, name, unreachable)
        monkeypatch.setattr(evalstats, "win_tie_loss", unreachable)
        views = ["--views-file", str(tmp_path / "views.json")]
        write_matrix_csv(tmp_path / "acc.csv", {"ours": [2.0, 3.0, 4.0], "base": [1.0, 2.0, 3.0]})
        argv = {
            "partition": partition_argv(csv_path, out),
            "evaluate": ["evaluate", *views, "--out", str(out)],
            "diagnose": ["diagnose", *views, "--out", str(out)],
            "stats": ["stats", "--matrix", f"acc={tmp_path / 'acc.csv'}", "--benchmark", "base",
                      "--out", str(out)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"error: cannot write {out / artifact}: " in err
        assert "internal error" not in err
