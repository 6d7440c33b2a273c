"""Dispatch case-study substrate: task assignment (POLAR, LS) and route planning (DAIF).

The paper's case study shows that selecting the optimal grid size improves the
downstream performance of prediction-based dispatching algorithms.  The
original systems are Java implementations; this package provides NumPy/Python
simulators that consume the same inputs (realised orders plus grid-level
predicted demand) and expose the same metrics (served orders, total revenue,
unified cost), preserving the property that matters for the experiments:
dispatch quality tracks the real error of the prediction.
"""

from repro.dispatch.entities import (
    DAY_MINUTES,
    Order,
    Driver,
    RideRequest,
    Vehicle,
    DispatchMetrics,
    OrderArrays,
    FleetArrays,
    online_mask,
)
from repro.dispatch.travel import TravelModel
from repro.dispatch.matching import (
    greedy_matching,
    optimal_matching,
    maximum_weight_matching,
    greedy_pairs_masked,
    min_cost_pairs,
    max_weight_pairs,
    edge_components,
)
from repro.dispatch.spatial import GridBucketIndex
from repro.dispatch.demand import (
    PredictedDemandProvider,
    orders_from_events,
    order_arrays_from_events,
    requests_from_events,
)
from repro.dispatch.engine import (
    ArrayPolicy,
    VectorizedAssignmentEngine,
)
from repro.dispatch.simulator import (
    AssignmentPolicy,
    TaskAssignmentSimulator,
    spawn_drivers,
    spawn_fleet,
)
from repro.dispatch.polar import POLARDispatcher
from repro.dispatch.ls import LSDispatcher
from repro.dispatch.daif import DAIFPlanner, spawn_vehicles
from repro.dispatch.scenarios import (
    DispatchScenario,
    ScenarioBundle,
    build_scenario_bundle,
    build_scenario_dataset,
    large_fleet_scenario,
    lifecycle_scenarios,
    lifecycle_stress_scenario,
    reference_scenario,
    scenario_grid,
    shift_windows,
    stress_scenarios,
)

__all__ = [
    "DAY_MINUTES",
    "online_mask",
    "Order",
    "Driver",
    "RideRequest",
    "Vehicle",
    "DispatchMetrics",
    "OrderArrays",
    "FleetArrays",
    "TravelModel",
    "greedy_matching",
    "optimal_matching",
    "maximum_weight_matching",
    "greedy_pairs_masked",
    "min_cost_pairs",
    "max_weight_pairs",
    "edge_components",
    "GridBucketIndex",
    "PredictedDemandProvider",
    "orders_from_events",
    "order_arrays_from_events",
    "requests_from_events",
    "ArrayPolicy",
    "VectorizedAssignmentEngine",
    "AssignmentPolicy",
    "TaskAssignmentSimulator",
    "spawn_drivers",
    "spawn_fleet",
    "POLARDispatcher",
    "LSDispatcher",
    "DAIFPlanner",
    "spawn_vehicles",
    "DispatchScenario",
    "ScenarioBundle",
    "build_scenario_bundle",
    "build_scenario_dataset",
    "large_fleet_scenario",
    "lifecycle_scenarios",
    "lifecycle_stress_scenario",
    "reference_scenario",
    "scenario_grid",
    "shift_windows",
    "stress_scenarios",
]
