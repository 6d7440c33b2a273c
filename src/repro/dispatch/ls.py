"""LS-style revenue-maximising task assignment.

LS (Cheng et al., the queueing-theoretic vehicle-dispatching framework) aims to
maximise total platform revenue.  Its two distinguishing traits, kept here, are:

* repositioning guided by the *expected revenue rate* of each region — the
  predicted demand weighted by the typical order revenue and discounted by the
  expected queueing competition from other idle drivers in the region;
* an assignment stage that solves a maximum-weight matching whose weights are
  the order revenue minus the (distance-proportional) pickup cost, so a distant
  but lucrative order can win over a nearby cheap one.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.dispatch.entities import Driver, FleetArrays, Order
from repro.dispatch.kernels import cell_supply, move_drivers
from repro.dispatch.matching import (
    max_weight_pairs,
    maximum_weight_matching,
    segmented_argbest,
)
from repro.dispatch.travel import TravelModel


class LSDispatcher:
    """Queueing-theoretic revenue-maximising dispatcher."""

    name = "ls"

    #: :meth:`match_pairs` emits pairs by ascending row (Hungarian solver);
    #: the engine's sparse pipeline merges per-component pairs accordingly.
    match_order = "row"

    def __init__(
        self,
        mean_order_revenue: float = 8.0,
        pickup_cost_per_km: float = 0.8,
        reposition_fraction: float = 0.4,
        max_reposition_km: float = 6.0,
    ) -> None:
        if mean_order_revenue <= 0:
            raise ValueError("mean_order_revenue must be positive")
        if pickup_cost_per_km < 0:
            raise ValueError("pickup_cost_per_km must be non-negative")
        if not 0.0 <= reposition_fraction <= 1.0:
            raise ValueError("reposition_fraction must be in [0, 1]")
        if max_reposition_km <= 0:
            raise ValueError("max_reposition_km must be positive")
        self.mean_order_revenue = mean_order_revenue
        self.pickup_cost_per_km = pickup_cost_per_km
        self.reposition_fraction = reposition_fraction
        self.max_reposition_km = max_reposition_km

    # ------------------------------------------------------------------ #
    # Repositioning: expected-revenue-rate guidance
    # ------------------------------------------------------------------ #

    def reposition(
        self,
        drivers: Sequence[Driver],
        predicted_hgrid_demand: Optional[np.ndarray],
        travel: TravelModel,
        minute: float,
        rng: np.random.Generator,
    ) -> None:
        """Send a fraction of idle drivers to the cells with the best revenue rate."""
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
        # Expected revenue rate per additional driver in a cell: demand times
        # mean revenue shared among the drivers already queued there (the
        # queueing-theoretic competition term).
        revenue_rate = demand * self.mean_order_revenue / (supply + 1.0)
        total = revenue_rate.sum()
        if total <= 0:
            return
        move_count = int(round(len(idle) * self.reposition_fraction))
        if move_count == 0:
            return
        # Move the drivers currently standing in the lowest-revenue cells.
        def cell_rate(driver: Driver) -> float:
            col = min(int(driver.x * resolution), resolution - 1)
            row = min(int(driver.y * resolution), resolution - 1)
            return float(revenue_rate[row, col])

        movable = sorted(idle, key=cell_rate)[:move_count]
        probabilities = (revenue_rate / total).ravel()
        chosen_cells = rng.choice(probabilities.size, size=len(movable), p=probabilities)
        for driver, cell in zip(movable, chosen_cells):
            row, col = divmod(int(cell), resolution)
            target_x = (col + rng.random()) / resolution
            target_y = (row + rng.random()) / resolution
            distance = travel.distance_km(driver.x, driver.y, target_x, target_y)
            if distance > self.max_reposition_km:
                continue
            driver.x = float(np.clip(target_x, 0.0, np.nextafter(1.0, 0.0)))
            driver.y = float(np.clip(target_y, 0.0, np.nextafter(1.0, 0.0)))
            driver.available_at = minute + travel.minutes(distance)

    # ------------------------------------------------------------------ #
    # Assignment: maximum-weight (net revenue) matching
    # ------------------------------------------------------------------ #

    def assign(
        self,
        orders: Sequence[Order],
        drivers: Sequence[Driver],
        travel: TravelModel,
        minute: float,
    ) -> Dict[int, int]:
        """Maximum net-revenue matching subject to the waiting-time limit."""
        if not orders or not drivers:
            return {}
        order_x = np.array([order.x for order in orders])
        order_y = np.array([order.y for order in orders])
        revenue = np.array([order.revenue for order in orders])
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
        weight = revenue[:, None] - self.pickup_cost_per_km * distance
        weight = np.where(feasible, weight, -np.inf)
        return maximum_weight_matching(weight, min_weight=0.0)

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

        RNG draw order matches the scalar method exactly: one ``rng.choice``
        for the target cells, then one ``rng.random((k, 2))`` of per-mover
        (x, y) jitters.
        """
        if predicted_hgrid_demand is None:
            return
        demand = np.asarray(predicted_hgrid_demand, dtype=float)
        resolution = demand.shape[0]
        idle = fleet.idle_indices(minute)
        if idle.size == 0:
            return
        rows, cols, supply = cell_supply(fleet, idle, demand)
        revenue_rate = demand * self.mean_order_revenue / (supply + 1.0)
        total = revenue_rate.sum()
        if total <= 0:
            return
        move_count = int(round(idle.size * self.reposition_fraction))
        if move_count == 0:
            return
        # Stable sort mirrors the scalar ``sorted(idle, key=cell_rate)``.
        order = np.argsort(revenue_rate[rows, cols], kind="stable")
        movable = idle[order[:move_count]]
        probabilities = (revenue_rate / total).ravel()
        chosen_cells = rng.choice(probabilities.size, size=movable.size, p=probabilities)
        jitter = rng.random((movable.size, 2))
        move_drivers(
            fleet,
            movable,
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

        Maximum net-revenue matching (revenue minus distance-proportional
        pickup cost) over the feasible pairs, in the scalar assignment dict's
        iteration order.
        """
        weight = revenue[:, None] - self.pickup_cost_per_km * distance
        return max_weight_pairs(weight, feasible, min_weight=0.0)

    def match_single_order(self, distance: np.ndarray, revenue: float) -> int:
        """Star-component fast path: best driver for one order, or ``-1``.

        On a fully-feasible ``1 x k`` block the maximum-weight matching is
        the maximum-net-revenue driver (ties to the smallest index, exactly
        :func:`scipy.optimize.linear_sum_assignment`'s tie-break), subject to
        the ``min_weight=0`` profitability floor.
        """
        weight = revenue - self.pickup_cost_per_km * distance
        best = int(np.argmax(weight))
        if weight[best] < 0.0:
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
        starting at ``starts[i]`` with revenue ``revenue[i]``.  Returns, per
        star, the index of its chosen edge — maximum net revenue, exact ties
        to the smallest column — or ``-1`` below the profitability floor.
        """
        lengths = np.diff(np.append(starts, distance.size))
        weight = np.repeat(revenue, lengths) - self.pickup_cost_per_km * distance
        best = segmented_argbest(weight, cols, starts, largest=True)
        return np.where(weight[best] < 0.0, -1, best)

    def match_single_driver(self, distance: np.ndarray, revenue: np.ndarray) -> int:
        """Star-component fast path: best order for one driver, or ``-1``."""
        weight = revenue - self.pickup_cost_per_km * distance
        best = int(np.argmax(weight))
        if weight[best] < 0.0:
            return -1
        return best
