"""Demand-aware recommendation from timestamped purchase logs.

Purchases are positive-only evidence: a missing (user, item, time) entry can
mean low utility or simply no current need.  This package jointly estimates
a low-rank form-utility matrix and one inter-purchase duration per item
category from sparse purchase triplets, then ranks items by utility minus a
time-dependent demand penalty.
"""

from .data import (
    CategoryMap,
    PurchaseLog,
    RecencyIndex,
    SplitSpec,
    TripletRecency,
    build_recency_index,
    export_log,
    ingest_categories,
    ingest_purchases,
    load_log,
    split_train_test,
    triplet_recency,
)
from .driver import (
    FitReport,
    ModelState,
    evaluate_objective,
    fit,
    load_model,
    save_model,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DemandRecError,
    ModelFileError,
    SolverError,
)
from .evaluate import (
    MetricReport,
    category_prediction_metric,
    item_prediction_metric,
    predict_demand,
    recommend_topn,
    score,
    time_prediction_metric,
)
from .synthetic import (
    SynthInstance,
    SynthSpec,
    duration_error,
    flip_noise,
    gen_form_utility,
    generate,
    rank_demo,
    simulate_purchases,
    true_durations,
)
from .utility import FactoredUtilityMatrix, SolverConfig

__version__ = "0.1.0"

__all__ = [
    "CategoryMap",
    "ConfigError",
    "DataFormatError",
    "DemandRecError",
    "FactoredUtilityMatrix",
    "FitReport",
    "MetricReport",
    "ModelFileError",
    "ModelState",
    "PurchaseLog",
    "RecencyIndex",
    "SolverConfig",
    "SolverError",
    "SplitSpec",
    "SynthInstance",
    "SynthSpec",
    "TripletRecency",
    "build_recency_index",
    "category_prediction_metric",
    "duration_error",
    "evaluate_objective",
    "export_log",
    "fit",
    "flip_noise",
    "gen_form_utility",
    "generate",
    "ingest_categories",
    "ingest_purchases",
    "item_prediction_metric",
    "load_log",
    "load_model",
    "predict_demand",
    "rank_demo",
    "recommend_topn",
    "save_model",
    "score",
    "simulate_purchases",
    "split_train_test",
    "time_prediction_metric",
    "triplet_recency",
    "true_durations",
]
