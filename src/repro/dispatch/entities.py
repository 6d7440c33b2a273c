"""Entities of the dispatch case study: orders, drivers and ride requests.

The paper's case study plugs the tuned predictions into two spatial
crowdsourcing problems — task assignment (POLAR, LS) and route planning
(DAIF).  These dataclasses are the shared vocabulary of the simulators in this
package.  Coordinates are normalised to the unit square, consistent with the
data substrate; travel distances are converted to kilometres via the city
extent held by :class:`~repro.dispatch.travel.TravelModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

#: Length of one simulated day in minutes; shift windows recur on this period.
DAY_MINUTES = 1440.0


def online_mask(
    online_from: np.ndarray, online_until: np.ndarray, minute: float
) -> np.ndarray:
    """Boolean per-driver mask: who is on shift at ``minute``.

    Shift windows are expressed in *minutes of day* and recur daily: a driver
    is online iff ``online_from <= m < online_until`` where
    ``m = minute % DAY_MINUTES``.  A window with ``online_from > online_until``
    wraps past midnight (overnight shift): online iff ``m >= online_from or
    m < online_until``.  The boundary semantics are pinned to match
    ``available_at``'s idle rule — closed at the shift start (a driver whose
    shift opens exactly at the batch minute is dispatchable) and open at the
    shift end.  The default window ``(0, DAY_MINUTES)`` is always online.
    """
    m = minute % DAY_MINUTES
    straight = (online_from <= m) & (m < online_until)
    wrapped = (m >= online_from) | (m < online_until)
    return np.where(online_from <= online_until, straight, wrapped)


@dataclass
class Order:
    """A taxi order (task) to be assigned to a driver.

    Attributes
    ----------
    order_id:
        Unique identifier.
    slot:
        Time slot in which the order appears.
    arrival_minute:
        Arrival time in minutes from the start of the simulation horizon.
    x, y:
        Pick-up location (normalised).
    dropoff_x, dropoff_y:
        Drop-off location (normalised).
    revenue:
        Fare obtained for serving the order.
    max_wait_minutes:
        The order is cancelled if no driver reaches it within this time.
    """

    order_id: int
    slot: int
    arrival_minute: float
    x: float
    y: float
    dropoff_x: float
    dropoff_y: float
    revenue: float
    max_wait_minutes: float = 10.0

    def __post_init__(self) -> None:
        if self.revenue < 0:
            raise ValueError("order revenue must be non-negative")
        if self.max_wait_minutes <= 0:
            raise ValueError("max_wait_minutes must be positive")


@dataclass
class Driver:
    """A driver (worker) that serves orders.

    ``available_at`` is the minute at which the driver finishes the current
    trip and becomes idle at ``(x, y)``.  ``online_from``/``online_until``
    bound the driver's daily shift in minutes of day (recurring, see
    :func:`online_mask`); the defaults keep the driver online around the
    clock, which reproduces the pre-lifecycle fixed-fleet behaviour exactly.
    """

    driver_id: int
    x: float
    y: float
    available_at: float = 0.0
    served_orders: int = 0
    earned_revenue: float = 0.0
    online_from: float = 0.0
    online_until: float = DAY_MINUTES

    def is_online(self, minute: float) -> bool:
        """True if the driver's shift covers ``minute`` (see :func:`online_mask`)."""
        m = minute % DAY_MINUTES
        if self.online_from <= self.online_until:
            return self.online_from <= m < self.online_until
        return m >= self.online_from or m < self.online_until

    def is_idle(self, minute: float) -> bool:
        """True if the driver is free *and on shift* at ``minute``.

        The availability boundary is pinned closed: a driver whose trip ends
        exactly at the batch minute (``available_at == minute``) is idle, in
        both the scalar and the vectorized engine
        (:meth:`FleetArrays.idle_indices` uses the same ``<=``).
        """
        return self.available_at <= minute and self.is_online(minute)

    def assign(self, order: Order, pickup_minutes: float, trip_minutes: float) -> None:
        """Record serving ``order``: move to the drop-off and accumulate stats."""
        if pickup_minutes < 0 or trip_minutes < 0:
            raise ValueError("travel times must be non-negative")
        start = max(self.available_at, order.arrival_minute)
        self.available_at = start + pickup_minutes + trip_minutes
        self.x = order.dropoff_x
        self.y = order.dropoff_y
        self.served_orders += 1
        self.earned_revenue += order.revenue


@dataclass
class RideRequest:
    """A shared-mobility request for the route-planning case study (DAIF)."""

    request_id: int
    slot: int
    arrival_minute: float
    x: float
    y: float
    dropoff_x: float
    dropoff_y: float
    revenue: float
    max_wait_minutes: float = 12.0
    max_detour_factor: float = 1.6

    def __post_init__(self) -> None:
        if self.max_detour_factor < 1.0:
            raise ValueError("max_detour_factor must be >= 1")
        if self.max_wait_minutes <= 0:
            raise ValueError("max_wait_minutes must be positive")


@dataclass
class Vehicle:
    """A shared vehicle with a route of pending stops (DAIF)."""

    vehicle_id: int
    x: float
    y: float
    capacity: int = 3
    onboard: int = 0
    route: list = field(default_factory=list)
    available_at: float = 0.0
    served_requests: int = 0
    travelled_km: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("vehicle capacity must be positive")

    def has_capacity(self) -> bool:
        """True if the vehicle can pick up one more rider."""
        return self.onboard < self.capacity


@dataclass
class OrderArrays:
    """Struct-of-arrays view of an order stream (the vectorized engine's input).

    Each attribute is a 1-D :class:`numpy.ndarray` holding one :class:`Order`
    field for every order; row ``i`` of every array describes the same order.
    The arrays are kept sorted by ``arrival_minute`` (stable), matching the
    global ordering :func:`~repro.dispatch.demand.orders_from_events` produces.
    """

    order_id: np.ndarray
    slot: np.ndarray
    arrival_minute: np.ndarray
    x: np.ndarray
    y: np.ndarray
    dropoff_x: np.ndarray
    dropoff_y: np.ndarray
    revenue: np.ndarray
    max_wait_minutes: np.ndarray

    def __post_init__(self) -> None:
        self.order_id = np.asarray(self.order_id, dtype=np.int64)
        self.slot = np.asarray(self.slot, dtype=np.int64)
        for name in (
            "arrival_minute",
            "x",
            "y",
            "dropoff_x",
            "dropoff_y",
            "revenue",
            "max_wait_minutes",
        ):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        sizes = {getattr(self, name).shape for name in self.field_names()}
        if len(sizes) != 1 or next(iter(sizes)) != (len(self),):
            raise ValueError("all order arrays must be 1-D and equally sized")
        if np.any(self.revenue < 0):
            raise ValueError("order revenue must be non-negative")
        if np.any(self.max_wait_minutes <= 0):
            raise ValueError("max_wait_minutes must be positive")

    @staticmethod
    def field_names() -> tuple:
        return (
            "order_id",
            "slot",
            "arrival_minute",
            "x",
            "y",
            "dropoff_x",
            "dropoff_y",
            "revenue",
            "max_wait_minutes",
        )

    def __len__(self) -> int:
        return int(self.order_id.shape[0])

    @classmethod
    def from_orders(cls, orders: Iterable[Order]) -> "OrderArrays":
        """Pack a sequence of :class:`Order` objects into column arrays."""
        orders = list(orders)
        return cls(
            order_id=np.array([o.order_id for o in orders], dtype=np.int64),
            slot=np.array([o.slot for o in orders], dtype=np.int64),
            arrival_minute=np.array([o.arrival_minute for o in orders], dtype=float),
            x=np.array([o.x for o in orders], dtype=float),
            y=np.array([o.y for o in orders], dtype=float),
            dropoff_x=np.array([o.dropoff_x for o in orders], dtype=float),
            dropoff_y=np.array([o.dropoff_y for o in orders], dtype=float),
            revenue=np.array([o.revenue for o in orders], dtype=float),
            max_wait_minutes=np.array([o.max_wait_minutes for o in orders], dtype=float),
        )

    def to_orders(self) -> List[Order]:
        """Materialise :class:`Order` objects (the scalar engine's input)."""
        return [
            Order(
                order_id=int(self.order_id[i]),
                slot=int(self.slot[i]),
                arrival_minute=float(self.arrival_minute[i]),
                x=float(self.x[i]),
                y=float(self.y[i]),
                dropoff_x=float(self.dropoff_x[i]),
                dropoff_y=float(self.dropoff_y[i]),
                revenue=float(self.revenue[i]),
                max_wait_minutes=float(self.max_wait_minutes[i]),
            )
            for i in range(len(self))
        ]


@dataclass
class FleetArrays:
    """Struct-of-arrays driver state mutated in place by the vectorized engine.

    ``online_from``/``online_until`` hold each driver's recurring daily shift
    window (see :func:`online_mask`); when omitted they default to the
    always-online window, so fleets built without lifecycle information
    behave exactly like the pre-lifecycle fixed fleet.
    """

    driver_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    available_at: np.ndarray
    served_orders: np.ndarray
    earned_revenue: np.ndarray
    online_from: Optional[np.ndarray] = None
    online_until: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.driver_id = np.asarray(self.driver_id, dtype=np.int64)
        self.served_orders = np.asarray(self.served_orders, dtype=np.int64)
        for name in ("x", "y", "available_at", "earned_revenue"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        count = len(self)
        if self.online_from is None:
            self.online_from = np.zeros(count)
        if self.online_until is None:
            self.online_until = np.full(count, DAY_MINUTES)
        self.online_from = np.asarray(self.online_from, dtype=float)
        self.online_until = np.asarray(self.online_until, dtype=float)

    def __len__(self) -> int:
        return int(self.driver_id.shape[0])

    @classmethod
    def from_drivers(cls, drivers: Sequence[Driver]) -> "FleetArrays":
        """Pack :class:`Driver` objects into column arrays."""
        return cls(
            driver_id=np.array([d.driver_id for d in drivers], dtype=np.int64),
            x=np.array([d.x for d in drivers], dtype=float),
            y=np.array([d.y for d in drivers], dtype=float),
            available_at=np.array([d.available_at for d in drivers], dtype=float),
            served_orders=np.array([d.served_orders for d in drivers], dtype=np.int64),
            earned_revenue=np.array([d.earned_revenue for d in drivers], dtype=float),
            online_from=np.array([d.online_from for d in drivers], dtype=float),
            online_until=np.array([d.online_until for d in drivers], dtype=float),
        )

    def to_drivers(self) -> List[Driver]:
        """Materialise :class:`Driver` objects (the scalar engine's input)."""
        return [
            Driver(
                driver_id=int(self.driver_id[i]),
                x=float(self.x[i]),
                y=float(self.y[i]),
                available_at=float(self.available_at[i]),
                served_orders=int(self.served_orders[i]),
                earned_revenue=float(self.earned_revenue[i]),
                online_from=float(self.online_from[i]),
                online_until=float(self.online_until[i]),
            )
            for i in range(len(self))
        ]

    @property
    def has_shifts(self) -> bool:
        """True if any driver's shift window differs from always-online."""
        return bool(
            np.any(self.online_from != 0.0) or np.any(self.online_until != DAY_MINUTES)
        )

    def idle_indices(self, minute: float) -> np.ndarray:
        """Indices of drivers free *and on shift* at ``minute`` (in fleet order).

        Uses ``available_at <= minute`` (closed boundary) combined with the
        recurring shift mask — the same semantics as :meth:`Driver.is_idle`,
        so the scalar and vectorized engines select identical idle sets.
        """
        idle = self.available_at <= minute
        if self.has_shifts:
            idle &= online_mask(self.online_from, self.online_until, minute)
        return np.nonzero(idle)[0]


@dataclass(frozen=True)
class DispatchMetrics:
    """Aggregate outcome of one dispatch simulation.

    ``cancelled_orders`` counts rider cancellations: orders dropped from the
    pending pool because their wait exceeded the rider's patience
    (``max_wait_minutes``) at a batch boundary.  Cancelled orders are a
    subset of the unserved ones (``total_orders - served_orders``); orders
    still pending when their slot closes are unserved but not cancelled.
    """

    served_orders: int
    total_orders: int
    total_revenue: float
    total_travel_km: float
    unified_cost: float
    cancelled_orders: int = 0

    @property
    def service_rate(self) -> float:
        """Fraction of orders served."""
        if self.total_orders == 0:
            return 0.0
        return self.served_orders / self.total_orders
