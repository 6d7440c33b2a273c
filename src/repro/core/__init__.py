"""Core GridTuner functionality: the paper's primary contribution.

Public surface:

* grid geometry (:class:`GridSpec`, :class:`GridLayout`),
* error definitions and decomposition (:class:`ErrorReport`, :func:`decompose_errors`),
* expression-error calculators (Algorithms 1/2 and friends),
* homogeneity analysis (``D_alpha`` and the selection of ``N``),
* the real-error upper bound (Algorithm 3),
* OGSS search (brute force, Ternary Search, Iterative Method),
* the high-level :class:`GridTuner`.
"""

from repro.core.grid import (
    BoundingBox,
    GridSpec,
    GridLayout,
    aggregate_counts,
    disaggregate_uniform,
    candidate_mgrid_sides,
)
from repro.core.errors import (
    ErrorReport,
    decompose_errors,
    real_error_total,
    model_error_total,
    expression_error_total_empirical,
)
from repro.core.expression import (
    expression_error_reference,
    expression_error_algorithm1,
    expression_error_algorithm2,
    expression_error_gaussian,
    expression_error_monte_carlo,
    expression_error_upper_bound,
    expression_error_batch,
    mgrid_expression_error,
    total_expression_error,
    total_expression_error_upper_bound,
    DEFAULT_K,
)
from repro.core.homogeneity import (
    d_alpha,
    d_alpha_batch,
    d_alpha_per_mgrid,
    d_alpha_curve,
    DAlphaCurve,
    select_hgrid_budget,
)
from repro.core.model_error import (
    mean_absolute_error,
    total_model_error_from_mae,
)
from repro.core.interfaces import (
    DemandPredictor,
    DaySlot,
    evaluation_targets,
    actual_counts_for_targets,
)
from repro.core.upper_bound import UpperBoundEvaluator, UpperBoundResult
from repro.core.search import (
    SearchResult,
    brute_force_search,
    ternary_search,
    iterative_search,
    run_search,
)
from repro.core.tuner import GridTuner, TuningResult
from repro.core.slotwise import (
    SlotwiseGridTuner,
    SlotwiseTuningReport,
    SlotTuningResult,
)

__all__ = [
    "BoundingBox",
    "GridSpec",
    "GridLayout",
    "aggregate_counts",
    "disaggregate_uniform",
    "candidate_mgrid_sides",
    "ErrorReport",
    "decompose_errors",
    "real_error_total",
    "model_error_total",
    "expression_error_total_empirical",
    "expression_error_reference",
    "expression_error_algorithm1",
    "expression_error_algorithm2",
    "expression_error_gaussian",
    "expression_error_monte_carlo",
    "expression_error_upper_bound",
    "expression_error_batch",
    "mgrid_expression_error",
    "total_expression_error",
    "total_expression_error_upper_bound",
    "DEFAULT_K",
    "d_alpha",
    "d_alpha_batch",
    "d_alpha_per_mgrid",
    "d_alpha_curve",
    "DAlphaCurve",
    "select_hgrid_budget",
    "mean_absolute_error",
    "total_model_error_from_mae",
    "DemandPredictor",
    "DaySlot",
    "evaluation_targets",
    "actual_counts_for_targets",
    "UpperBoundEvaluator",
    "UpperBoundResult",
    "SearchResult",
    "brute_force_search",
    "ternary_search",
    "iterative_search",
    "run_search",
    "GridTuner",
    "TuningResult",
    "SlotwiseGridTuner",
    "SlotwiseTuningReport",
    "SlotTuningResult",
]
