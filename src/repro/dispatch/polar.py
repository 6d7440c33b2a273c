"""POLAR-style two-stage prediction-based task assignment.

POLAR (Tong et al., VLDB 2017) maximises the number of served orders with a
two-stage scheme: a *guidance* stage that pre-assigns idle drivers towards
regions whose predicted demand exceeds the local supply, and an *assignment*
stage that matches realised orders to nearby idle drivers.  This
reimplementation keeps both stages:

* :meth:`POLARDispatcher.reposition` computes the per-HGrid supply deficit
  (predicted demand minus idle drivers present) and relocates surplus drivers
  towards the cells with the largest deficit;
* :meth:`POLARDispatcher.assign` solves a minimum-pickup-distance bipartite
  matching (maximising the number of feasible matches), the served-order
  objective of the original system.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.dispatch.entities import Driver, FleetArrays, Order
from repro.dispatch.kernels import cell_supply, move_drivers
from repro.dispatch.matching import (
    greedy_matching,
    greedy_pairs_masked,
    min_cost_pairs,
    optimal_matching,
    segmented_argbest,
)
from repro.dispatch.travel import TravelModel


class POLARDispatcher:
    """Two-stage served-orders-maximising dispatcher."""

    name = "polar"

    def __init__(
        self,
        reposition_fraction: float = 0.5,
        max_reposition_km: float = 6.0,
        use_optimal_matching: bool = True,
    ) -> None:
        if not 0.0 <= reposition_fraction <= 1.0:
            raise ValueError("reposition_fraction must be in [0, 1]")
        if max_reposition_km <= 0:
            raise ValueError("max_reposition_km must be positive")
        self.reposition_fraction = reposition_fraction
        self.max_reposition_km = max_reposition_km
        self.use_optimal_matching = use_optimal_matching

    @property
    def match_order(self) -> str:
        """Emission order of :meth:`match_pairs` (sparse-merge contract).

        The Hungarian solver emits pairs by ascending row, the greedy scan by
        ascending (cost, row-major position); the sparse pipeline in
        :mod:`repro.dispatch.engine` merges per-component pairs back into
        this order.
        """
        return "row" if self.use_optimal_matching else "cost"

    # ------------------------------------------------------------------ #
    # Stage 1: guidance / repositioning
    # ------------------------------------------------------------------ #

    def reposition(
        self,
        drivers: Sequence[Driver],
        predicted_hgrid_demand: Optional[np.ndarray],
        travel: TravelModel,
        minute: float,
        rng: np.random.Generator,
    ) -> None:
        """Move a fraction of idle drivers towards under-supplied HGrids."""
        if predicted_hgrid_demand is None:
            return
        demand = np.asarray(predicted_hgrid_demand, dtype=float)
        resolution = demand.shape[0]
        idle = [driver for driver in drivers if driver.is_idle(minute)]
        if not idle:
            return
        supply = np.zeros_like(demand)
        for driver in idle:
            col = min(int(driver.x * resolution), resolution - 1)
            row = min(int(driver.y * resolution), resolution - 1)
            supply[row, col] += 1.0
        deficit = demand - supply
        deficit[deficit < 0] = 0.0
        total_deficit = deficit.sum()
        if total_deficit <= 0:
            return
        surplus_drivers = self._surplus_drivers(idle, demand, supply, resolution)
        move_count = int(round(len(surplus_drivers) * self.reposition_fraction))
        if move_count == 0:
            return
        probabilities = (deficit / total_deficit).ravel()
        chosen_cells = rng.choice(probabilities.size, size=move_count, p=probabilities)
        for driver, cell in zip(surplus_drivers[:move_count], chosen_cells):
            row, col = divmod(int(cell), resolution)
            target_x = (col + rng.random()) / resolution
            target_y = (row + rng.random()) / resolution
            distance = travel.distance_km(driver.x, driver.y, target_x, target_y)
            if distance > self.max_reposition_km:
                continue
            driver.x = float(np.clip(target_x, 0.0, np.nextafter(1.0, 0.0)))
            driver.y = float(np.clip(target_y, 0.0, np.nextafter(1.0, 0.0)))
            driver.available_at = minute + travel.minutes(distance)

    def _surplus_drivers(
        self,
        idle: Sequence[Driver],
        demand: np.ndarray,
        supply: np.ndarray,
        resolution: int,
    ) -> list[Driver]:
        """Idle drivers standing in cells where supply already exceeds demand."""
        surplus: list[Driver] = []
        for driver in idle:
            col = min(int(driver.x * resolution), resolution - 1)
            row = min(int(driver.y * resolution), resolution - 1)
            if supply[row, col] > demand[row, col]:
                surplus.append(driver)
        return surplus

    # ------------------------------------------------------------------ #
    # Stage 2: assignment
    # ------------------------------------------------------------------ #

    def assign(
        self,
        orders: Sequence[Order],
        drivers: Sequence[Driver],
        travel: TravelModel,
        minute: float,
    ) -> Dict[int, int]:
        """Minimum-pickup-distance matching subject to the waiting-time limit."""
        if not orders or not drivers:
            return {}
        order_x = np.array([order.x for order in orders])
        order_y = np.array([order.y for order in orders])
        driver_x = np.array([driver.x for driver in drivers])
        driver_y = np.array([driver.y for driver in drivers])
        distance = travel.distance_km(
            driver_x[None, :], driver_y[None, :], order_x[:, None], order_y[:, None]
        )
        pickup_minutes = travel.minutes(distance)
        waits = np.array(
            [minute - order.arrival_minute for order in orders], dtype=float
        )
        limits = np.array([order.max_wait_minutes for order in orders], dtype=float)
        feasible = pickup_minutes + waits[:, None] <= limits[:, None]
        cost = np.where(feasible, distance, np.inf)
        if self.use_optimal_matching:
            return optimal_matching(cost, max_cost=self.max_reposition_km * 10)
        return greedy_matching(cost, max_cost=self.max_reposition_km * 10)

    # ------------------------------------------------------------------ #
    # Array kernels (vectorized engine)
    # ------------------------------------------------------------------ #

    def reposition_arrays(
        self,
        fleet: FleetArrays,
        predicted_hgrid_demand: Optional[np.ndarray],
        travel: TravelModel,
        minute: float,
        rng: np.random.Generator,
    ) -> None:
        """Vectorized :meth:`reposition` over struct-of-arrays fleet state.

        Consumes the RNG in exactly the scalar method's draw order — one
        ``rng.choice`` for the target cells, then one ``rng.random((k, 2))``
        whose rows are each mover's (x, y) jitter — so both engines advance a
        shared seed identically.
        """
        if predicted_hgrid_demand is None:
            return
        demand = np.asarray(predicted_hgrid_demand, dtype=float)
        resolution = demand.shape[0]
        idle = fleet.idle_indices(minute)
        if idle.size == 0:
            return
        rows, cols, supply = cell_supply(fleet, idle, demand)
        deficit = demand - supply
        deficit[deficit < 0] = 0.0
        total_deficit = deficit.sum()
        if total_deficit <= 0:
            return
        surplus = idle[supply[rows, cols] > demand[rows, cols]]
        move_count = int(round(surplus.size * self.reposition_fraction))
        if move_count == 0:
            return
        probabilities = (deficit / total_deficit).ravel()
        chosen_cells = rng.choice(probabilities.size, size=move_count, p=probabilities)
        jitter = rng.random((move_count, 2))
        move_drivers(
            fleet,
            surplus[:move_count],
            chosen_cells,
            jitter,
            resolution,
            travel,
            minute,
            self.max_reposition_km,
        )

    def match_pairs(
        self,
        distance: np.ndarray,
        feasible: np.ndarray,
        revenue: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`assign` objective on a candidate matrix.

        Minimum-pickup-distance matching over the feasible pairs; the pairs
        come back in the scalar assignment dict's iteration order.  POLAR's
        served-orders objective ignores ``revenue``.
        """
        if self.use_optimal_matching:
            return min_cost_pairs(distance, feasible, max_cost=self.max_reposition_km * 10)
        return greedy_pairs_masked(distance, feasible, max_cost=self.max_reposition_km * 10)

    def match_single_order(self, distance: np.ndarray, revenue: float) -> int:
        """Star-component fast path: best driver for one order, or ``-1``.

        Both POLAR solvers reduce to the same rule on a fully-feasible
        ``1 x k`` block: the minimum-distance driver within the cost cut-off,
        ties to the smallest index — exactly
        :func:`scipy.optimize.linear_sum_assignment`'s (and the greedy
        scan's) tie-break on that block.
        """
        best = int(np.argmin(distance))
        if distance[best] > self.max_reposition_km * 10:
            return -1
        return best

    def match_single_orders(
        self,
        distance: np.ndarray,
        cols: np.ndarray,
        starts: np.ndarray,
        revenue: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`match_single_order` over many one-order stars.

        ``distance``/``cols`` hold the stars' edges back to back, star ``i``
        starting at ``starts[i]``; ``revenue`` has one entry per star (unused
        by the served-orders objective).  Returns, per star, the index of its
        chosen edge — minimum distance, exact ties to the smallest column —
        or ``-1`` beyond the cost cut-off.
        """
        best = segmented_argbest(distance, cols, starts)
        return np.where(distance[best] > self.max_reposition_km * 10, -1, best)

    def match_single_driver(self, distance: np.ndarray, revenue: np.ndarray) -> int:
        """Star-component fast path: best order for one driver, or ``-1``."""
        best = int(np.argmin(distance))
        if distance[best] > self.max_reposition_km * 10:
            return -1
        return best
