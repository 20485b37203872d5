"""Semantic-preserving feature partitioning and multi-view evaluation.

Splits a dataset's feature columns into views that each carry the full
joint information content, trains a baseline classifier per view, ensembles
them by normalized AUC, and compares models with rank-based statistics.

The public names below resolve on first use (PEP 562), so importing one
module of the package does not import the others.
"""

import importlib

_EXPORTS = {
    "errors": ("SpfpError", "ConfigError", "DataError"),
    "dataset": ("Dataset", "SplitSpec", "load_csv", "discretize", "split", "split_rows"),
    "infometrics": ("RowPartition", "PairCache"),
    "partitioning": (
        "SpfpConfig",
        "View",
        "ViewSet",
        "PoolDepletedError",
        "criteria_met",
        "build_view",
        "partition",
        "view_stats",
        "conditional_independence_report",
    ),
    "ensemble": (
        "ProbModel",
        "MetricReport",
        "train_builtin",
        "predict_proba",
        "normalized_weights",
        "ensemble_predict",
        "metrics",
    ),
    "evalstats": (
        "BOOTSTRAP_BLOCK",
        "midranks",
        "RunMatrix",
        "ComparisonVerdict",
        "friedman",
        "conover_posthoc",
        "adjust",
        "cliffs_delta",
        "bootstrap_ci",
        "win_tie_loss",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
