"""Experiment harness reproducing every table and figure of the paper's evaluation.

Each module corresponds to one group of figures/tables (see
docs/architecture.md §13 for the per-experiment index); the benchmark suite
under ``benchmarks/`` calls these functions and prints the reproduced series.
"""

from repro.experiments.config import (
    ExperimentConfig,
    PROFILES,
    TINY,
    SMALL,
    PAPER,
    get_profile,
)
from repro.experiments.context import CITIES, MODELS, ExperimentContext
from repro.experiments.error_curves import (
    ErrorCurvePoint,
    RealErrorPoint,
    expression_error_curve,
    model_error_curve,
    real_error_curve,
    optimal_side_from_curve,
)
from repro.experiments.case_study import (
    CaseStudyPoint,
    PromotionRow,
    run_task_assignment,
    run_route_planning,
    table3_promotion,
)
from repro.experiments.search_eval import (
    SearchAlgorithmSummary,
    SlotSearchOutcome,
    BoundSweepPoint,
    evaluate_search_algorithms,
    iterative_bound_sweep,
    optimal_n_distribution,
)
from repro.experiments.homogeneity_exp import (
    EffectOfMPoint,
    figure13_uniformity_scatter,
    figure14_dalpha_curve,
    figure15_effect_of_m,
)
from repro.experiments.algorithm_cost import (
    AlgorithmCostPoint,
    BatchCostPoint,
    algorithm_cost_sweep,
    batch_cost_sweep,
)
from repro.experiments.dataset_size import DatasetSizePoint, dataset_size_sweep
from repro.experiments.reporting import format_series, format_table

__all__ = [
    "ExperimentConfig",
    "PROFILES",
    "TINY",
    "SMALL",
    "PAPER",
    "get_profile",
    "CITIES",
    "MODELS",
    "ExperimentContext",
    "ErrorCurvePoint",
    "RealErrorPoint",
    "expression_error_curve",
    "model_error_curve",
    "real_error_curve",
    "optimal_side_from_curve",
    "CaseStudyPoint",
    "PromotionRow",
    "run_task_assignment",
    "run_route_planning",
    "table3_promotion",
    "SearchAlgorithmSummary",
    "SlotSearchOutcome",
    "BoundSweepPoint",
    "evaluate_search_algorithms",
    "iterative_bound_sweep",
    "optimal_n_distribution",
    "EffectOfMPoint",
    "figure13_uniformity_scatter",
    "figure14_dalpha_curve",
    "figure15_effect_of_m",
    "AlgorithmCostPoint",
    "BatchCostPoint",
    "algorithm_cost_sweep",
    "batch_cost_sweep",
    "DatasetSizePoint",
    "dataset_size_sweep",
    "format_series",
    "format_table",
]
