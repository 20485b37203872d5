"""Semantic-preserving feature partitioning and multi-view evaluation.

Splits a dataset's feature columns into views that each carry the full
joint information content, trains a baseline classifier per view, ensembles
them by normalized AUC, and compares models with rank-based statistics.
"""

from .dataset import CodedMatrix, Dataset, SplitSpec, discretize, load_csv, split
from .ensemble import (
    MetricReport,
    ProbModel,
    ensemble_predict,
    metrics,
    normalized_weights,
    predict_proba,
    train_builtin,
)
from .errors import ConfigError, DataError, SpfpError
from .evalstats import (
    ComparisonVerdict,
    RunMatrix,
    adjust,
    bootstrap_ci,
    cliffs_delta,
    conover_posthoc,
    friedman,
    win_tie_loss,
)
from .infometrics import (
    PairCache,
    RowPartition,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    interaction_gain,
    joint_entropy,
    mutual_information,
    pearson_abs,
)
from .partitioning import (
    PoolDepletedError,
    SpfpConfig,
    View,
    ViewSet,
    build_view,
    conditional_independence_report,
    criteria_met,
    partition,
    view_stats,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SpfpError",
    "ConfigError",
    "DataError",
    "Dataset",
    "CodedMatrix",
    "SplitSpec",
    "load_csv",
    "discretize",
    "split",
    "entropy",
    "joint_entropy",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "interaction_gain",
    "pearson_abs",
    "RowPartition",
    "PairCache",
    "SpfpConfig",
    "View",
    "ViewSet",
    "PoolDepletedError",
    "criteria_met",
    "build_view",
    "partition",
    "view_stats",
    "conditional_independence_report",
    "ProbModel",
    "MetricReport",
    "train_builtin",
    "predict_proba",
    "normalized_weights",
    "ensemble_predict",
    "metrics",
    "RunMatrix",
    "ComparisonVerdict",
    "friedman",
    "conover_posthoc",
    "adjust",
    "cliffs_delta",
    "bootstrap_ci",
    "win_tie_loss",
]
