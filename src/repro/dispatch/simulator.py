"""Discrete-time task-assignment simulator: the scalar reference oracle.

The simulator advances slot by slot over a test horizon.  At the start of each
slot the dispatcher may *reposition* idle drivers using the predicted HGrid
demand (this is where prediction quality — the real error — enters); within
the slot, orders arrive in small time batches and the dispatcher assigns idle
drivers to them under a maximum-wait constraint.  Orders that cannot be picked
up in time are lost.

The same loop drives both POLAR and LS; they differ only in their
:class:`AssignmentPolicy` (how they reposition and which matching objective
they use).

Two engines execute this loop:

* :class:`TaskAssignmentSimulator` — the per-``Driver``/``Order`` object
  loop in this module, kept as the reference oracle.
* :class:`~repro.dispatch.engine.VectorizedAssignmentEngine` — the
  production struct-of-arrays engine, which runs the per-minute steps as
  batched array passes; :meth:`~repro.dispatch.scenarios.ScenarioBundle.engine`
  builds it for a scenario.

The equivalence tests assert the vectorized engine reproduces the oracle's
:class:`DispatchMetrics` and final fleet state bit for bit under the same
seed (see the RNG draw-order notes in :mod:`repro.dispatch.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.dispatch.demand import PredictedDemandProvider
from repro.dispatch.engine import infer_minutes_per_slot
from repro.dispatch.entities import (
    DAY_MINUTES,
    DispatchMetrics,
    Driver,
    FleetArrays,
    Order,
    OrderArrays,
)
from repro.dispatch.travel import TravelModel
from repro.utils.rng import RandomState, default_rng


class AssignmentPolicy(Protocol):
    """Strategy interface implemented by POLAR and LS."""

    #: Human-readable policy name used in experiment tables.
    name: str

    def reposition(
        self,
        drivers: Sequence[Driver],
        predicted_hgrid_demand: Optional[np.ndarray],
        travel: TravelModel,
        minute: float,
        rng: np.random.Generator,
    ) -> None:
        """Move idle drivers based on the predicted demand (in place)."""
        ...

    def assign(
        self,
        orders: Sequence[Order],
        drivers: Sequence[Driver],
        travel: TravelModel,
        minute: float,
    ) -> dict[int, int]:
        """Return a mapping ``order index -> driver index`` for this batch."""
        ...


def spawn_fleet(
    count: int,
    rng: np.random.Generator,
    demand_grid: Optional[np.ndarray] = None,
) -> FleetArrays:
    """Create ``count`` drivers, placed proportionally to ``demand_grid`` if given."""
    if count <= 0:
        raise ValueError("driver count must be positive")
    if demand_grid is None:
        xs = rng.random(count)
        ys = rng.random(count)
    else:
        demand_grid = np.asarray(demand_grid, dtype=float)
        resolution = demand_grid.shape[0]
        probabilities = demand_grid.ravel()
        total = probabilities.sum()
        if total <= 0:
            probabilities = np.full(probabilities.size, 1.0 / probabilities.size)
        else:
            probabilities = probabilities / total
        cells = rng.choice(probabilities.size, size=count, p=probabilities)
        rows, cols = np.divmod(cells, resolution)
        xs = (cols + rng.random(count)) / resolution
        ys = (rows + rng.random(count)) / resolution
    return FleetArrays(
        driver_id=np.arange(count, dtype=np.int64),
        x=xs,
        y=ys,
        available_at=np.zeros(count),
        served_orders=np.zeros(count, dtype=np.int64),
        earned_revenue=np.zeros(count),
    )


def spawn_drivers(
    count: int,
    rng: np.random.Generator,
    demand_grid: Optional[np.ndarray] = None,
) -> List[Driver]:
    """:func:`spawn_fleet` as :class:`Driver` objects, the scalar oracle's input."""
    return spawn_fleet(count, rng, demand_grid).to_drivers()


@dataclass
class TaskAssignmentSimulator:
    """Runs one dispatch policy over a stream of orders, object by object.

    Parameters
    ----------
    policy:
        The dispatcher (POLAR or LS).
    travel:
        Travel model of the city.
    demand:
        Predicted-demand provider; ``None`` disables repositioning entirely
        (a no-prediction baseline).
    batch_minutes:
        Orders are accumulated into batches of this length before matching,
        as in the paper's batched online assignment setting.
    unserved_penalty_km:
        Cost added per unserved order in the unified-cost metric.
    minutes_per_slot:
        Slot length of the order stream in minutes.  ``None`` (default)
        infers it from the orders (see
        :func:`~repro.dispatch.engine.infer_minutes_per_slot`); callers that
        know the dataset's slot configuration — scenario bundles do — should
        pass it explicitly, which sizes offset slot windows (e.g. replaying
        only the evening slots) exactly.
    """

    policy: AssignmentPolicy
    travel: TravelModel
    demand: Optional[PredictedDemandProvider] = None
    batch_minutes: float = 2.0
    unserved_penalty_km: float = 5.0
    seed: RandomState = None
    minutes_per_slot: Optional[float] = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.batch_minutes > 0:
            raise ValueError("batch_minutes must be positive")
        if self.unserved_penalty_km < 0:
            raise ValueError("unserved_penalty_km must be non-negative")
        if self.minutes_per_slot is not None and self.minutes_per_slot <= 0:
            raise ValueError("minutes_per_slot must be positive")
        self._rng = default_rng(self.seed)

    def run(
        self,
        orders: Union[Sequence[Order], Sequence[Sequence[Order]]],
        drivers: Sequence[Driver],
        day: int = 0,
        slots: Optional[Sequence[int]] = None,
        days: Optional[int] = None,
    ) -> DispatchMetrics:
        """Simulate the assignment of ``orders`` to ``drivers`` (mutated in place).

        ``slots`` restricts the horizon; by default it is derived from the
        orders themselves.

        Multi-day replay: ``orders`` may be a sequence of per-day streams
        (one ``Sequence[Order]`` per day, each with day-relative arrival
        minutes); ``days`` optionally asserts the expected length.  Day ``d``
        runs ``d * DAY_MINUTES`` later on the absolute clock, queries the
        demand provider for day ``day + d``, and driver state — positions,
        ``available_at``, per-driver statistics — carries across the day
        boundary.  ``OrderArrays``/``FleetArrays`` raise :class:`TypeError`:
        they are :class:`VectorizedAssignmentEngine` inputs.
        """
        if isinstance(orders, OrderArrays) or isinstance(drivers, FleetArrays):
            raise TypeError(
                "TaskAssignmentSimulator runs Order/Driver objects; "
                "run OrderArrays/FleetArrays with VectorizedAssignmentEngine"
            )
        orders = list(orders)
        if orders and isinstance(orders[0], (list, tuple)):
            orders_per_day: List[List[Order]] = [list(day_orders) for day_orders in orders]
        else:
            orders_per_day = [orders]
        if days is not None and days != len(orders_per_day):
            raise ValueError(
                f"days={days} but {len(orders_per_day)} per-day order stream(s) given"
            )
        if sum(len(day_orders) for day_orders in orders_per_day) == 0:
            return DispatchMetrics(0, 0, 0.0, 0.0, 0.0, 0)
        drivers = list(drivers)
        if not drivers:
            raise ValueError("at least one driver is required")
        served = 0
        cancelled = 0
        total_orders = 0
        revenue = 0.0
        travel_km = 0.0
        for offset, day_orders in enumerate(orders_per_day):
            # A day with no orders is skipped entirely (no repositioning
            # draws) — the vectorized engine applies the same rule.
            if not day_orders:
                continue
            day_result = self._run_day(
                day_orders, drivers, day + offset, offset * DAY_MINUTES, slots
            )
            served += day_result[0]
            cancelled += day_result[1]
            revenue += day_result[2]
            travel_km += day_result[3]
            total_orders += day_result[4]
        unified_cost = travel_km + self.unserved_penalty_km * (total_orders - served)
        return DispatchMetrics(
            served_orders=served,
            total_orders=total_orders,
            total_revenue=revenue,
            total_travel_km=travel_km,
            unified_cost=unified_cost,
            cancelled_orders=cancelled,
        )

    def _run_day(
        self,
        orders: List[Order],
        drivers: List[Driver],
        day: int,
        day_offset: float,
        slots: Optional[Sequence[int]],
    ) -> Tuple[int, int, float, float, int]:
        """One day of the replay; returns (served, cancelled, revenue, km, total)."""
        if slots is None:
            day_slots: Sequence[int] = sorted({order.slot for order in orders})
        else:
            day_slots = list(slots)
        minutes_per_slot = self._resolve_minutes_per_slot(orders)
        if day_offset:
            # Lift day-relative arrivals onto the absolute replay clock; the
            # same scalar float addition the vectorized engine applies
            # elementwise, on copies so the caller's orders stay untouched.
            orders = [
                replace(order, arrival_minute=order.arrival_minute + day_offset)
                for order in orders
            ]
        served = 0
        cancelled = 0
        revenue = 0.0
        travel_km = 0.0
        for slot in day_slots:
            slot_start = day_offset + slot * minutes_per_slot
            predicted = self._predicted_demand(day, slot)
            self.policy.reposition(drivers, predicted, self.travel, slot_start, self._rng)
            slot_orders = [order for order in orders if order.slot == slot]
            slot_served, slot_cancelled, slot_revenue, slot_km = self._run_slot(
                slot_orders, drivers, slot_start, minutes_per_slot
            )
            served += slot_served
            cancelled += slot_cancelled
            revenue += slot_revenue
            travel_km += slot_km
        total_orders = sum(1 for order in orders if order.slot in set(day_slots))
        return served, cancelled, revenue, travel_km, total_orders

    # ------------------------------------------------------------------ #

    def _resolve_minutes_per_slot(self, orders: Sequence[Order]) -> float:
        # The slot length is exact when configured; otherwise it is inferred
        # from the stream through the same per-order bound as the vectorized
        # engine (identical float arithmetic, so both engines agree bitwise).
        if self.minutes_per_slot is not None:
            return float(self.minutes_per_slot)
        return infer_minutes_per_slot(
            np.array([order.arrival_minute for order in orders], dtype=float),
            np.array([order.slot for order in orders], dtype=float),
        )

    def _predicted_demand(self, day: int, slot: int) -> Optional[np.ndarray]:
        if self.demand is None:
            return None
        if not self.demand.has_slot(day, slot):
            return None
        return self.demand.hgrid_demand(day, slot)

    def _run_slot(
        self,
        slot_orders: List[Order],
        drivers: List[Driver],
        slot_start: float,
        minutes_per_slot: float,
    ) -> tuple[int, int, float, float]:
        served = 0
        cancelled = 0
        revenue = 0.0
        travel_km = 0.0
        if not slot_orders:
            return served, cancelled, revenue, travel_km
        slot_orders = sorted(slot_orders, key=lambda order: order.arrival_minute)
        batch_start = slot_start
        slot_end = slot_start + minutes_per_slot
        pending: List[Order] = []
        order_iter = iter(slot_orders)
        next_order = next(order_iter, None)
        while batch_start < slot_end:
            batch_end = min(batch_start + self.batch_minutes, slot_end)
            while next_order is not None and next_order.arrival_minute < batch_end:
                pending.append(next_order)
                next_order = next(order_iter, None)
            if pending:
                batch_served, batch_cancelled, batch_revenue, batch_km, pending = (
                    self._assign_batch(pending, drivers, batch_end)
                )
                served += batch_served
                cancelled += batch_cancelled
                revenue += batch_revenue
                travel_km += batch_km
            batch_start = batch_end
        return served, cancelled, revenue, travel_km

    def _assign_batch(
        self, pending: List[Order], drivers: List[Driver], minute: float
    ) -> tuple[int, int, float, float, List[Order]]:
        # Drop orders that have waited past their tolerance; each drop is a
        # rider cancellation, counted once.
        alive = [
            order
            for order in pending
            if minute - order.arrival_minute <= order.max_wait_minutes
        ]
        cancelled = len(pending) - len(alive)
        idle = [driver for driver in drivers if driver.is_idle(minute)]
        if not alive or not idle:
            return 0, cancelled, 0.0, 0.0, alive
        assignment = self.policy.assign(alive, idle, self.travel, minute)
        served = 0
        revenue = 0.0
        travel_km = 0.0
        assigned_orders: set[int] = set()
        for order_index, driver_index in assignment.items():
            order = alive[order_index]
            driver = idle[driver_index]
            pickup_km = self.travel.distance_km(driver.x, driver.y, order.x, order.y)
            pickup_minutes = self.travel.minutes(pickup_km)
            wait = minute + pickup_minutes - order.arrival_minute
            if wait > order.max_wait_minutes:
                continue
            trip_km = self.travel.distance_km(
                order.x, order.y, order.dropoff_x, order.dropoff_y
            )
            trip_minutes = self.travel.minutes(trip_km)
            driver.assign(order, pickup_minutes, trip_minutes)
            served += 1
            revenue += order.revenue
            travel_km += pickup_km + trip_km
            assigned_orders.add(order_index)
        remaining = [
            order for index, order in enumerate(alive) if index not in assigned_orders
        ]
        return served, cancelled, revenue, travel_km, remaining
