"""The public surface: every exported name resolves, the package
re-exports every library module's public names, and the names are pinned."""

import importlib
import pkgutil

import spfp


def test_every_exported_name_resolves():
    names = ["spfp"] + [f"spfp.{m.name}" for m in pkgutil.iter_modules(spfp.__path__)]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        absent = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
        if absent:
            missing[name] = absent
    assert missing == {}


def test_package_reexports_every_library_name():
    missing = {}
    for info in pkgutil.iter_modules(spfp.__path__):
        if info.name == "cli":  # the command line, not a library module
            continue
        module = importlib.import_module(f"spfp.{info.name}")
        absent = sorted(set(getattr(module, "__all__", [])) - set(spfp.__all__))
        if absent:
            missing[info.name] = absent
    assert missing == {}
    assert spfp.split_rows.__module__ == "spfp.dataset"
    assert spfp.midranks.__module__ == "spfp.evalstats"
    assert spfp.BOOTSTRAP_BLOCK == spfp.evalstats.BOOTSTRAP_BLOCK


def test_public_surface_is_pinned():
    # a change to the exports must change this list too
    assert sorted(spfp.__all__) == [
        "BOOTSTRAP_BLOCK", "ComparisonVerdict", "ConfigError", "DataError", "Dataset",
        "MetricReport", "PairCache", "PoolDepletedError", "ProbModel", "RowPartition",
        "RunMatrix", "SpfpConfig", "SpfpError", "SplitSpec", "View", "ViewSet", "__version__",
        "adjust", "bootstrap_ci", "build_view", "cliffs_delta", "conditional_independence_report",
        "conover_posthoc", "criteria_met", "discretize", "ensemble_predict", "friedman",
        "load_csv", "metrics", "midranks", "normalized_weights", "partition", "predict_proba",
        "split", "split_rows", "train_builtin", "view_stats", "win_tie_loss",
    ]
