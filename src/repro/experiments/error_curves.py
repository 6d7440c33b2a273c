"""Error-curve experiments: Figures 3, 4 and 5 of the paper.

* Figure 3 — total expression error against the number of MGrids ``n`` for the
  three cities (decreasing in ``n``).
* Figure 4 — total model error against ``n`` for the three prediction models
  (increasing in ``n``; MLP > DeepST > DMVST-Net).
* Figure 5 — empirical real error and its analytic upper bound against ``n``
  (both fall then rise; the better the model, the larger the optimal ``n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.errors import ErrorReport
from repro.core.expression import total_expression_error
from repro.core.grid import GridLayout
from repro.core.upper_bound import UpperBoundResult
from repro.experiments.context import CITIES, MODELS, ExperimentContext


@dataclass(frozen=True)
class ErrorCurvePoint:
    """One (n, error) point of an error curve."""

    mgrid_side: int
    value: float

    @property
    def num_mgrids(self) -> int:
        """``n = side**2``."""
        return self.mgrid_side * self.mgrid_side


def expression_error_curve(
    context: ExperimentContext,
    cities: Sequence[str] = CITIES,
    sides: Optional[Sequence[int]] = None,
) -> Dict[str, Tuple[ErrorCurvePoint, ...]]:
    """Figure 3: total expression error vs ``n`` for each city."""
    config = context.config
    sides = tuple(sides or config.mgrid_sides)
    curves: Dict[str, Tuple[ErrorCurvePoint, ...]] = {}
    for city in cities:
        dataset = context.dataset(city)
        points = []
        for side in sides:
            layout = GridLayout.for_ogss(side * side, config.hgrid_budget)
            alpha = dataset.alpha(layout.fine_resolution, slot=config.alpha_slot)
            error = total_expression_error(alpha, layout)
            points.append(ErrorCurvePoint(mgrid_side=side, value=error))
        curves[city] = tuple(points)
    return curves


def model_error_curve(
    context: ExperimentContext,
    city: str,
    models: Sequence[str] = MODELS,
    sides: Optional[Sequence[int]] = None,
    surrogate: bool = False,
) -> Dict[str, Tuple[ErrorCurvePoint, ...]]:
    """Figure 4: total model error (n * MAE) vs ``n`` per prediction model.

    ``surrogate=True`` replaces neural training with the calibrated noisy
    oracle (see docs/architecture.md §3), which keeps large sweeps tractable
    while preserving the MLP > DeepST > DMVST-Net ordering.
    """
    config = context.config
    sides = tuple(sides or config.mgrid_sides)
    curves: Dict[str, Tuple[ErrorCurvePoint, ...]] = {}
    for model in models:
        tuner = context.tuner(city, model, surrogate=surrogate)
        points = []
        for side in sides:
            result: UpperBoundResult = tuner.evaluator.evaluate_side(side)
            points.append(ErrorCurvePoint(mgrid_side=side, value=result.model_error))
        curves[model] = tuple(points)
    return curves


@dataclass(frozen=True)
class RealErrorPoint:
    """Empirical error decomposition plus the analytic upper bound at one ``n``."""

    mgrid_side: int
    real_error: float
    empirical_upper_bound: float
    analytic_upper_bound: float
    model_error: float
    expression_error: float

    @property
    def num_mgrids(self) -> int:
        """``n = side**2``."""
        return self.mgrid_side * self.mgrid_side


def real_error_curve(
    context: ExperimentContext,
    city: str,
    model: str,
    sides: Optional[Sequence[int]] = None,
    surrogate: bool = False,
) -> Tuple[RealErrorPoint, ...]:
    """Figure 5: real error and upper bound vs ``n`` for one (city, model) pair."""
    config = context.config
    sides = tuple(sides or config.mgrid_sides)
    tuner = context.tuner(city, model, surrogate=surrogate)
    points = []
    for side in sides:
        bound = tuner.evaluator.evaluate_side(side)
        report: ErrorReport = tuner.evaluate_real_error(side)
        points.append(
            RealErrorPoint(
                mgrid_side=side,
                real_error=report.real_error,
                empirical_upper_bound=report.upper_bound,
                analytic_upper_bound=bound.total,
                model_error=report.model_error,
                expression_error=report.expression_error,
            )
        )
    return tuple(points)


def optimal_side_from_curve(points: Sequence[RealErrorPoint]) -> int:
    """Side minimising the real error along a Figure 5 curve."""
    if not points:
        raise ValueError("the curve must contain at least one point")
    best = min(points, key=lambda point: point.real_error)
    return best.mgrid_side
