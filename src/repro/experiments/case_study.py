"""Dispatch case study: Figures 6-9 and Table III.

The case study measures how the grid size ``n`` used by the prediction model
affects downstream dispatching:

* task assignment with POLAR (served orders) and LS (revenue) — Figures 6-8,
* route planning with DAIF (served requests, unified cost) — Figure 9,
* Table III — improvement obtained by moving from the "original" grid size the
  source papers used to the optimal grid size found by GridTuner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.grid import GridLayout
from repro.core.interfaces import evaluation_targets
from repro.dispatch.daif import DAIFPlanner, spawn_vehicles
from repro.dispatch.demand import (
    PredictedDemandProvider,
    orders_from_events,
    requests_from_events,
)
from repro.dispatch.engine import VectorizedAssignmentEngine
from repro.dispatch.entities import DispatchMetrics, OrderArrays
from repro.dispatch.ls import LSDispatcher
from repro.dispatch.polar import POLARDispatcher
from repro.dispatch.simulator import spawn_fleet
from repro.dispatch.travel import TravelModel
from repro.experiments.context import ExperimentContext
from repro.prediction.oracle import PerfectPredictor
from repro.utils.rng import default_rng, seed_for


@dataclass(frozen=True)
class CaseStudyPoint:
    """Dispatch metrics obtained with predictions made at one grid size."""

    mgrid_side: int
    metrics: DispatchMetrics

    @property
    def num_mgrids(self) -> int:
        """``n = side**2``."""
        return self.mgrid_side * self.mgrid_side


def _demand_provider(
    context: ExperimentContext,
    city: str,
    model: str,
    side: int,
    surrogate: bool,
) -> PredictedDemandProvider:
    """Predicted demand for the test day at MGrid side ``side``."""
    dataset = context.dataset(city)
    layout = GridLayout.for_ogss(side * side, context.config.hgrid_budget)
    test_days = list(dataset.split.test_days)
    targets = evaluation_targets(dataset, test_days)
    if model == "real_data":
        predictor = PerfectPredictor()
        predictor.fit(dataset, side)
        predictions = predictor.predict(dataset, side, targets)
    else:
        tuner = context.tuner(city, model, surrogate=surrogate)
        predictions = tuner.predicted_demand(side, test_days)
    # The simulator addresses slots of the test day relative to day 0.
    rebased_targets = [(0, slot) for (_, slot) in targets]
    return PredictedDemandProvider(layout, predictions, rebased_targets)


def run_task_assignment(
    context: ExperimentContext,
    city: str,
    dispatcher: str,
    model: str,
    sides: Optional[Sequence[int]] = None,
    surrogate: bool = True,
) -> Tuple[CaseStudyPoint, ...]:
    """Figures 6-8: POLAR / LS performance across grid sizes.

    ``dispatcher`` is ``"polar"`` or ``"ls"``; ``model`` is a prediction model
    name or ``"real_data"`` for the oracle series of the paper.
    """
    config = context.config
    sides = tuple(sides or config.mgrid_sides)
    dataset = context.dataset(city)
    travel = TravelModel.for_city(dataset.city)
    test_events = dataset.test_events()
    base_seed = seed_for(f"case/{city}/{dispatcher}/{model}", config.seed)
    orders = OrderArrays.from_orders(
        orders_from_events(
            test_events, day=0, slots=config.case_study_slots, seed=base_seed
        )
    )
    fleet_size = context.fleet_size(city)
    points = []
    for side in sides:
        provider = _demand_provider(context, city, model, side, surrogate)
        rng = default_rng(base_seed + side)
        first_slot = config.case_study_slots[0]
        initial_demand = (
            provider.hgrid_demand(0, first_slot)
            if provider.has_slot(0, first_slot)
            else None
        )
        fleet = spawn_fleet(fleet_size, rng, demand_grid=initial_demand)
        policy = POLARDispatcher() if dispatcher == "polar" else LSDispatcher()
        if dispatcher not in ("polar", "ls"):
            raise ValueError(f"unknown dispatcher {dispatcher!r}")
        engine = VectorizedAssignmentEngine(policy, travel, demand=provider)
        metrics = engine.run(
            orders,
            fleet,
            default_rng(base_seed + side),
            day=0,
            slots=config.case_study_slots,
        )
        points.append(CaseStudyPoint(mgrid_side=side, metrics=metrics))
    return tuple(points)


def run_route_planning(
    context: ExperimentContext,
    city: str,
    model: str,
    sides: Optional[Sequence[int]] = None,
    surrogate: bool = True,
    vehicle_capacity: int = 3,
) -> Tuple[CaseStudyPoint, ...]:
    """Figure 9: DAIF served requests and unified cost across grid sizes."""
    config = context.config
    sides = tuple(sides or config.mgrid_sides)
    dataset = context.dataset(city)
    travel = TravelModel.for_city(dataset.city)
    test_events = dataset.test_events()
    base_seed = seed_for(f"route/{city}/{model}", config.seed)
    requests = requests_from_events(
        test_events, day=0, slots=config.case_study_slots, seed=base_seed
    )
    fleet_size = max(3, context.fleet_size(city) // 2)
    points = []
    for side in sides:
        provider = _demand_provider(context, city, model, side, surrogate)
        rng = default_rng(base_seed + side)
        first_slot = config.case_study_slots[0]
        initial_demand = (
            provider.hgrid_demand(0, first_slot)
            if provider.has_slot(0, first_slot)
            else None
        )
        vehicles = spawn_vehicles(
            fleet_size, rng, capacity=vehicle_capacity, demand_grid=initial_demand
        )
        planner = DAIFPlanner(
            travel=travel, demand=provider, seed=base_seed + side
        )
        metrics = planner.run(requests, vehicles, day=0, slots=config.case_study_slots)
        points.append(CaseStudyPoint(mgrid_side=side, metrics=metrics))
    return tuple(points)


@dataclass(frozen=True)
class PromotionRow:
    """One row of Table III: improvement from tuning the grid size."""

    metric: str
    algorithm: str
    optimal_side: int
    original_side: int
    optimal_value: float
    original_value: float

    @property
    def improvement_ratio(self) -> float:
        """Relative improvement of the optimal grid size over the original one.

        For the unified-cost metric lower is better, so the ratio is inverted.
        """
        if self.original_value == 0:
            return 0.0
        if self.metric == "unified_cost":
            return (self.original_value - self.optimal_value) / self.original_value
        return (self.optimal_value - self.original_value) / self.original_value


#: Default grid sides used by the original systems, scaled to the HGrid budget:
#: POLAR used 50x50, LS 16x16 and DAIF 12x12 on a 128x128 HGrid lattice.
_ORIGINAL_SIDE_FRACTIONS = {"polar": 50 / 128, "ls": 16 / 128, "daif": 12 / 128}


def _nearest_side(target: float, sides: Sequence[int]) -> int:
    return min(sides, key=lambda side: abs(side - target))


def table3_promotion(
    context: ExperimentContext,
    city: str = "nyc_like",
    model: str = "deepst",
    sides: Optional[Sequence[int]] = None,
    surrogate: bool = True,
) -> Tuple[PromotionRow, ...]:
    """Table III: performance gain of the optimal grid size for POLAR / LS / DAIF."""
    config = context.config
    sides = tuple(sides or config.mgrid_sides)
    budget_side = int(round(config.hgrid_budget**0.5))
    rows = []

    polar_points = run_task_assignment(
        context, city, "polar", model, sides=sides, surrogate=surrogate
    )
    ls_points = run_task_assignment(
        context, city, "ls", model, sides=sides, surrogate=surrogate
    )
    daif_points = run_route_planning(
        context, city, model, sides=sides, surrogate=surrogate
    )

    def add_rows(points: Tuple[CaseStudyPoint, ...], algorithm: str) -> None:
        original_side = _nearest_side(
            _ORIGINAL_SIDE_FRACTIONS[algorithm] * budget_side, sides
        )
        original = next(p for p in points if p.mgrid_side == original_side)
        for metric, key, maximise in (
            ("served_orders", "served_orders", True),
            ("total_revenue", "total_revenue", True),
            ("unified_cost", "unified_cost", False),
        ):
            if algorithm in ("polar", "ls") and metric == "unified_cost":
                continue
            if algorithm == "daif" and metric == "total_revenue":
                continue
            chooser = max if maximise else min
            best = chooser(points, key=lambda p: getattr(p.metrics, key))
            rows.append(
                PromotionRow(
                    metric=metric,
                    algorithm=algorithm,
                    optimal_side=best.mgrid_side,
                    original_side=original.mgrid_side,
                    optimal_value=float(getattr(best.metrics, key)),
                    original_value=float(getattr(original.metrics, key)),
                )
            )

    add_rows(polar_points, "polar")
    add_rows(ls_points, "ls")
    add_rows(daif_points, "daif")
    return tuple(rows)
