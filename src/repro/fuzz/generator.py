"""Seeded scenario generator for the differential dispatch fuzzer.

The fuzzer's unit of work is a :class:`FuzzWorld`: a fully materialised,
JSON-serialisable micro-scenario — explicit orders per replay day, explicit
drivers with shift windows, the travel model, the slot window and the
simulator seed.  Unlike a :class:`~repro.dispatch.scenarios.DispatchScenario`
(which names a synthetic dataset to be generated), a world carries its inputs
verbatim, which is what makes three things possible:

* the differential runner (:mod:`repro.fuzz.runner`) can replay the identical
  inputs on every engine,
* the shrinker (:mod:`repro.fuzz.shrink`) can delete individual orders,
  drivers and days while a divergence keeps reproducing, and
* a shrunk failure serialises to a canonical-JSON repro file that replays
  bit-identically anywhere (``tests/corpus/`` holds the graduated survivors).

:func:`sample_world` composes a plain random base world with a random subset
of named *perturbations* — travel-model shocks (slowdowns, gridlock, closure
zones), demand regime shifts and surges, fleet churn (shift windows, tiny
rider patience) and pathological geometry (one-cell cities, co-located
entities, empty slots, all-orders-in-one-minute, orders and drivers exactly
on batch/shift boundaries, non-zero-start slot windows — the PR 5 bug
class).  Sampling is fully deterministic: the world for ``(seed, index)`` is
a pure function of those two integers.

:func:`world_from_bundle` bridges the scenario vocabulary the other way: any
materialised :class:`~repro.dispatch.scenarios.ScenarioBundle` converts into
a world, so the hand-curated scenario families can be differentially fuzzed
and their failures shrunk with the same machinery.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dispatch.entities import DAY_MINUTES, Driver, FleetArrays, OrderArrays
from repro.dispatch.travel import TravelModel
from repro.utils.cache import canonical_json
from repro.utils.rng import seed_for

#: Bump when the world payload layout changes so stale repro files are
#: rejected loudly instead of replaying something else.
WORLD_SCHEMA = 1

#: Policies a world can run (``polar_greedy`` is POLAR with the greedy
#: city-scale solver — the configuration whose tie-breaking PR 2 pinned).
WORLD_POLICIES = ("polar", "polar_greedy", "ls")

#: Travel metrics a world can use.
WORLD_METRICS = ("manhattan", "euclidean")


@dataclass(frozen=True)
class FuzzOrder:
    """One materialised order of a fuzz world (mirrors :class:`Order`)."""

    slot: int
    arrival_minute: float
    x: float
    y: float
    dropoff_x: float
    dropoff_y: float
    revenue: float
    max_wait_minutes: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "slot": int(self.slot),
            "arrival_minute": float(self.arrival_minute),
            "x": float(self.x),
            "y": float(self.y),
            "dropoff_x": float(self.dropoff_x),
            "dropoff_y": float(self.dropoff_y),
            "revenue": float(self.revenue),
            "max_wait_minutes": float(self.max_wait_minutes),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FuzzOrder":
        return cls(**{key: payload[key] for key in cls.__dataclass_fields__})


@dataclass(frozen=True)
class FuzzDriver:
    """One materialised driver of a fuzz world (mirrors :class:`Driver`)."""

    x: float
    y: float
    available_at: float = 0.0
    online_from: float = 0.0
    online_until: float = DAY_MINUTES

    def to_payload(self) -> Dict[str, Any]:
        return {
            "x": float(self.x),
            "y": float(self.y),
            "available_at": float(self.available_at),
            "online_from": float(self.online_from),
            "online_until": float(self.online_until),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FuzzDriver":
        return cls(**{key: payload[key] for key in cls.__dataclass_fields__})


@dataclass(frozen=True)
class DemandSpec:
    """Predicted-demand grids served to the dispatcher, one per (day, slot).

    ``grids[i]`` is a ``resolution x resolution`` grid for ``targets[i]``;
    slots missing from ``targets`` exercise the provider's has-no-slot path
    (no repositioning, no RNG draws — both engines must agree on that too).
    """

    resolution: int
    targets: Tuple[Tuple[int, int], ...]
    grids: Tuple[Tuple[Tuple[float, ...], ...], ...]

    def __post_init__(self) -> None:
        if self.resolution < 1:
            raise ValueError("demand resolution must be >= 1")
        if len(self.targets) != len(self.grids):
            raise ValueError("one grid per (day, slot) target is required")
        for grid in self.grids:
            if len(grid) != self.resolution or any(
                len(row) != self.resolution for row in grid
            ):
                raise ValueError("demand grids must be resolution x resolution")

    def to_payload(self) -> Dict[str, Any]:
        return {
            "resolution": int(self.resolution),
            "targets": [[int(day), int(slot)] for day, slot in self.targets],
            "grids": [
                [[float(v) for v in row] for row in grid] for grid in self.grids
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "DemandSpec":
        return cls(
            resolution=int(payload["resolution"]),
            targets=tuple(
                (int(day), int(slot)) for day, slot in payload["targets"]
            ),
            grids=tuple(
                tuple(tuple(float(v) for v in row) for row in grid)
                for grid in payload["grids"]
            ),
        )

    def as_arrays(self) -> Dict[Tuple[int, int], np.ndarray]:
        return {
            target: np.asarray(grid, dtype=float)
            for target, grid in zip(self.targets, self.grids)
        }


class WorldDemandProvider:
    """Duck-typed :class:`PredictedDemandProvider` serving a world's grids.

    The engines only call ``has_slot``/``hgrid_demand``, so a plain mapping
    suffices — no MGrid layout round-trip, the grids are served at whatever
    resolution the world declares.
    """

    def __init__(self, grids: Dict[Tuple[int, int], np.ndarray]) -> None:
        self._grids = grids

    def has_slot(self, day: int, slot: int) -> bool:
        return (int(day), int(slot)) in self._grids

    def hgrid_demand(self, day: int, slot: int) -> np.ndarray:
        # A fresh copy per call: the policies never mutate the demand grid,
        # but a shared array across engine replays would make that an
        # accident waiting to happen.
        return self._grids[(int(day), int(slot))].copy()


@dataclass(frozen=True)
class FuzzWorld:
    """A fully materialised differential-testing scenario.

    Every field is plain data (ints, floats, tuples), so two worlds are equal
    iff their canonical JSON payloads are byte-identical — the property the
    shrinker's memo and the repro files key on.
    """

    label: str
    policy: str
    width_km: float
    height_km: float
    speed_kmh: float
    metric: str
    batch_minutes: float
    minutes_per_slot: Optional[float]
    slots: Tuple[int, ...]
    sim_seed: int
    drivers: Tuple[FuzzDriver, ...]
    orders_per_day: Tuple[Tuple[FuzzOrder, ...], ...]
    demand: Optional[DemandSpec] = None

    def __post_init__(self) -> None:
        if self.policy not in WORLD_POLICIES:
            raise ValueError(f"policy must be one of {WORLD_POLICIES}")
        if self.metric not in WORLD_METRICS:
            raise ValueError(f"metric must be one of {WORLD_METRICS}")
        if self.width_km <= 0 or self.height_km <= 0 or self.speed_kmh <= 0:
            raise ValueError("city extent and speed must be positive")
        if self.batch_minutes <= 0:
            raise ValueError("batch_minutes must be positive")
        if self.minutes_per_slot is not None and self.minutes_per_slot <= 0:
            raise ValueError("minutes_per_slot must be positive")
        if not self.slots:
            raise ValueError("at least one slot is required")
        if not self.drivers:
            raise ValueError("at least one driver is required")
        if not self.orders_per_day:
            raise ValueError("at least one (possibly empty) order day is required")
        for day_orders in self.orders_per_day:
            for order in day_orders:
                if order.revenue < 0:
                    raise ValueError("order revenue must be non-negative")
                if order.max_wait_minutes <= 0:
                    raise ValueError("max_wait_minutes must be positive")

    # ------------------------------------------------------------------ #
    # Identity / serialisation
    # ------------------------------------------------------------------ #

    @property
    def days(self) -> int:
        return len(self.orders_per_day)

    @property
    def order_count(self) -> int:
        return sum(len(day) for day in self.orders_per_day)

    @property
    def driver_count(self) -> int:
        return len(self.drivers)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": WORLD_SCHEMA,
            "label": self.label,
            "policy": self.policy,
            "travel": {
                "width_km": float(self.width_km),
                "height_km": float(self.height_km),
                "speed_kmh": float(self.speed_kmh),
                "metric": self.metric,
            },
            "batch_minutes": float(self.batch_minutes),
            "minutes_per_slot": (
                None if self.minutes_per_slot is None else float(self.minutes_per_slot)
            ),
            "slots": [int(s) for s in self.slots],
            "sim_seed": int(self.sim_seed),
            "drivers": [driver.to_payload() for driver in self.drivers],
            "orders_per_day": [
                [order.to_payload() for order in day] for day in self.orders_per_day
            ],
            "demand": None if self.demand is None else self.demand.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FuzzWorld":
        schema = payload.get("schema")
        if schema != WORLD_SCHEMA:
            raise ValueError(
                f"unsupported fuzz world schema {schema!r} (expected {WORLD_SCHEMA})"
            )
        travel = payload["travel"]
        return cls(
            label=str(payload.get("label", "replay")),
            policy=payload["policy"],
            width_km=float(travel["width_km"]),
            height_km=float(travel["height_km"]),
            speed_kmh=float(travel["speed_kmh"]),
            metric=travel["metric"],
            batch_minutes=float(payload["batch_minutes"]),
            minutes_per_slot=(
                None
                if payload["minutes_per_slot"] is None
                else float(payload["minutes_per_slot"])
            ),
            slots=tuple(int(s) for s in payload["slots"]),
            sim_seed=int(payload["sim_seed"]),
            drivers=tuple(
                FuzzDriver.from_payload(item) for item in payload["drivers"]
            ),
            orders_per_day=tuple(
                tuple(FuzzOrder.from_payload(item) for item in day)
                for day in payload["orders_per_day"]
            ),
            demand=(
                None
                if payload["demand"] is None
                else DemandSpec.from_payload(payload["demand"])
            ),
        )

    def canonical_key(self) -> str:
        """Content hash of the world (``label`` excluded — it is display only)."""
        payload = self.to_payload()
        payload.pop("label")
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Materialisation for the engines
    # ------------------------------------------------------------------ #

    def build_travel(self) -> TravelModel:
        return TravelModel(
            width_km=self.width_km,
            height_km=self.height_km,
            speed_kmh=self.speed_kmh,
            metric=self.metric,
        )

    def build_provider(self) -> Optional[WorldDemandProvider]:
        if self.demand is None:
            return None
        return WorldDemandProvider(self.demand.as_arrays())

    def build_order_arrays(self) -> List[OrderArrays]:
        """One :class:`OrderArrays` per replay day (the vector engines' input)."""
        days = []
        for day_orders in self.orders_per_day:
            days.append(
                OrderArrays(
                    order_id=np.arange(len(day_orders), dtype=np.int64),
                    slot=np.array([o.slot for o in day_orders], dtype=np.int64),
                    arrival_minute=np.array(
                        [o.arrival_minute for o in day_orders], dtype=float
                    ),
                    x=np.array([o.x for o in day_orders], dtype=float),
                    y=np.array([o.y for o in day_orders], dtype=float),
                    dropoff_x=np.array([o.dropoff_x for o in day_orders], dtype=float),
                    dropoff_y=np.array([o.dropoff_y for o in day_orders], dtype=float),
                    revenue=np.array([o.revenue for o in day_orders], dtype=float),
                    max_wait_minutes=np.array(
                        [o.max_wait_minutes for o in day_orders], dtype=float
                    ),
                )
            )
        return days

    def build_orders(self) -> List[List]:
        """Per-day :class:`Order` object lists (the scalar oracle's input)."""
        return [arrays.to_orders() for arrays in self.build_order_arrays()]

    def build_fleet(self) -> FleetArrays:
        return FleetArrays(
            driver_id=np.arange(len(self.drivers), dtype=np.int64),
            x=np.array([d.x for d in self.drivers], dtype=float),
            y=np.array([d.y for d in self.drivers], dtype=float),
            available_at=np.array([d.available_at for d in self.drivers], dtype=float),
            served_orders=np.zeros(len(self.drivers), dtype=np.int64),
            earned_revenue=np.zeros(len(self.drivers)),
            online_from=np.array([d.online_from for d in self.drivers], dtype=float),
            online_until=np.array([d.online_until for d in self.drivers], dtype=float),
        )

    def build_drivers(self) -> List[Driver]:
        return [
            Driver(
                driver_id=i,
                x=d.x,
                y=d.y,
                available_at=d.available_at,
                online_from=d.online_from,
                online_until=d.online_until,
            )
            for i, d in enumerate(self.drivers)
        ]

    def generation_minutes_per_slot(self) -> float:
        """The slot length the world's arrivals were laid out under.

        Perturbations that null ``minutes_per_slot`` (forcing the engines to
        infer it) still need the true layout length to place boundary-aligned
        arrivals; 30 is the generator's default layout.
        """
        return 30.0 if self.minutes_per_slot is None else float(self.minutes_per_slot)


# --------------------------------------------------------------------- #
# Base sampling
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class GeneratorConfig:
    """Size knobs of the sampled worlds (kept micro so a sample runs in ms)."""

    max_days: int = 2
    max_slots: int = 3
    max_orders_per_slot: int = 12
    max_drivers: int = 12
    max_perturbations: int = 3
    policies: Tuple[str, ...] = WORLD_POLICIES

    def __post_init__(self) -> None:
        if min(self.max_days, self.max_slots, self.max_orders_per_slot) < 1:
            raise ValueError("world size limits must be positive")
        if self.max_drivers < 1:
            raise ValueError("max_drivers must be at least 1")
        unknown = [p for p in self.policies if p not in WORLD_POLICIES]
        if unknown or not self.policies:
            raise ValueError(f"policies must be a non-empty subset of {WORLD_POLICIES}")


def _base_world(rng: np.random.Generator, config: GeneratorConfig) -> FuzzWorld:
    policy = str(rng.choice(list(config.policies)))
    metric = str(rng.choice(list(WORLD_METRICS)))
    width = float(rng.uniform(3.0, 20.0))
    height = float(rng.uniform(3.0, 20.0))
    speed = float(rng.uniform(15.0, 45.0))
    batch_minutes = float(rng.choice([1.0, 2.0, 2.5]))
    minutes_per_slot = float(rng.choice([15.0, 30.0, 60.0]))
    start_slot = int(rng.choice([0, 8, 16, 40]))
    slot_count = int(rng.integers(1, config.max_slots + 1))
    slots = tuple(range(start_slot, start_slot + slot_count))
    days = int(rng.integers(1, config.max_days + 1))

    driver_count = int(rng.integers(1, config.max_drivers + 1))
    horizon_start = start_slot * minutes_per_slot
    drivers = []
    for _ in range(driver_count):
        available = 0.0
        if rng.random() < 0.25:
            available = float(rng.uniform(0.0, horizon_start + 2 * batch_minutes))
        drivers.append(
            FuzzDriver(
                x=float(rng.random()),
                y=float(rng.random()),
                available_at=available,
            )
        )

    orders_per_day: List[Tuple[FuzzOrder, ...]] = []
    for _ in range(days):
        day_orders: List[FuzzOrder] = []
        for slot in slots:
            count = int(rng.integers(0, config.max_orders_per_slot + 1))
            for _ in range(count):
                arrival = slot * minutes_per_slot + float(
                    rng.uniform(0.0, minutes_per_slot)
                )
                day_orders.append(
                    FuzzOrder(
                        slot=slot,
                        arrival_minute=arrival,
                        x=float(rng.random()),
                        y=float(rng.random()),
                        dropoff_x=float(rng.random()),
                        dropoff_y=float(rng.random()),
                        revenue=float(rng.uniform(2.0, 20.0)),
                        max_wait_minutes=float(rng.uniform(3.0, 12.0)),
                    )
                )
        day_orders.sort(key=lambda order: order.arrival_minute)
        orders_per_day.append(tuple(day_orders))

    demand: Optional[DemandSpec] = None
    if rng.random() < 0.75:
        resolution = int(rng.choice([2, 4]))
        targets = []
        grids = []
        for day in range(days):
            for slot in slots:
                if rng.random() < 0.2:
                    continue  # missing target: the no-guidance slot path
                targets.append((day, int(slot)))
                grid = rng.uniform(0.0, 10.0, size=(resolution, resolution))
                grids.append(tuple(tuple(float(v) for v in row) for row in grid))
        if targets:
            demand = DemandSpec(
                resolution=resolution, targets=tuple(targets), grids=tuple(grids)
            )

    return FuzzWorld(
        label=policy,
        policy=policy,
        width_km=width,
        height_km=height,
        speed_kmh=speed,
        metric=metric,
        batch_minutes=batch_minutes,
        minutes_per_slot=minutes_per_slot,
        slots=slots,
        sim_seed=int(rng.integers(0, 2**31 - 1)),
        drivers=tuple(drivers),
        orders_per_day=tuple(orders_per_day),
        demand=demand,
    )


# --------------------------------------------------------------------- #
# Perturbations
# --------------------------------------------------------------------- #

Perturbation = Callable[[FuzzWorld, np.random.Generator], FuzzWorld]


def _map_orders(world: FuzzWorld, fn) -> Tuple[Tuple[FuzzOrder, ...], ...]:
    return tuple(tuple(fn(order) for order in day) for day in world.orders_per_day)


def _perturb_slowdown(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Travel-model shock: city-wide slowdown (rush hour, weather)."""
    return replace(world, speed_kmh=world.speed_kmh * float(rng.uniform(0.2, 0.5)))


def _perturb_gridlock(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Travel-model shock: near-total gridlock — almost nothing is feasible."""
    return replace(world, speed_kmh=2.0)


def _perturb_closure(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Travel-model shock: a closed rectangular zone displaces everyone out."""
    cx = float(rng.uniform(0.0, 0.6))
    cy = float(rng.uniform(0.0, 0.6))
    w = h = 0.35

    def push(x: float, y: float) -> Tuple[float, float]:
        if cx <= x < cx + w and cy <= y < cy + h:
            return (cx + w) % 1.0, (cy + h) % 1.0
        return x, y

    def shift_order(order: FuzzOrder) -> FuzzOrder:
        x, y = push(order.x, order.y)
        dx, dy = push(order.dropoff_x, order.dropoff_y)
        return replace(order, x=x, y=y, dropoff_x=dx, dropoff_y=dy)

    drivers = []
    for driver in world.drivers:
        x, y = push(driver.x, driver.y)
        drivers.append(replace(driver, x=x, y=y))
    return replace(
        world, orders_per_day=_map_orders(world, shift_order), drivers=tuple(drivers)
    )


def _perturb_surge(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Demand regime shift: duplicate every order (co-located twins) and
    scale the predicted demand up 8x."""
    days = []
    for day_orders in world.orders_per_day:
        doubled: List[FuzzOrder] = []
        for order in day_orders:
            doubled.append(order)
            doubled.append(
                replace(order, arrival_minute=order.arrival_minute + 0.001)
            )
        days.append(tuple(doubled))
    demand = world.demand
    if demand is not None:
        demand = replace(
            demand,
            grids=tuple(
                tuple(tuple(8.0 * v for v in row) for row in grid)
                for grid in demand.grids
            ),
        )
    return replace(world, orders_per_day=tuple(days), demand=demand)


def _perturb_demand_shift(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Demand regime shift: the predicted demand collapses onto half the city."""
    if world.demand is None:
        return world
    half = world.demand.resolution // 2
    grids = tuple(
        tuple(
            tuple(0.0 if j < half else v for j, v in enumerate(row))
            for row in grid
        )
        for grid in world.demand.grids
    )
    return replace(world, demand=replace(world.demand, grids=grids))


def _perturb_no_guidance(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Demand regime shift: the predictor goes dark (no repositioning at all)."""
    return replace(world, demand=None)


def _perturb_one_cell_city(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Pathological geometry: everything squashed into one tiny demand cell."""

    def squash(value: float) -> float:
        return 0.45 + 0.1 * value

    def squash_order(order: FuzzOrder) -> FuzzOrder:
        return replace(
            order,
            x=squash(order.x),
            y=squash(order.y),
            dropoff_x=squash(order.dropoff_x),
            dropoff_y=squash(order.dropoff_y),
        )

    drivers = tuple(
        replace(driver, x=squash(driver.x), y=squash(driver.y))
        for driver in world.drivers
    )
    return replace(world, orders_per_day=_map_orders(world, squash_order), drivers=drivers)


def _perturb_same_point(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Pathological geometry: all pickups and drivers at the exact same point
    (every candidate distance is an exact tie, every pickup is zero km)."""

    def pin(order: FuzzOrder) -> FuzzOrder:
        return replace(order, x=0.5, y=0.5)

    drivers = tuple(replace(driver, x=0.5, y=0.5) for driver in world.drivers)
    return replace(world, orders_per_day=_map_orders(world, pin), drivers=drivers)


def _perturb_duplicate_drivers(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Pathological geometry: the whole fleet is co-located with driver 0."""
    first = world.drivers[0]
    drivers = tuple(
        replace(driver, x=first.x, y=first.y) for driver in world.drivers
    )
    return replace(world, drivers=drivers)


def _perturb_one_minute(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Pathological timing: every order of a slot arrives in the same minute."""
    mps = world.generation_minutes_per_slot()

    def collapse(order: FuzzOrder) -> FuzzOrder:
        return replace(order, arrival_minute=order.slot * mps + 1.0)

    return replace(world, orders_per_day=_map_orders(world, collapse))


def _perturb_batch_boundary(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Pathological timing: arrivals snapped exactly onto batch boundaries."""
    mps = world.generation_minutes_per_slot()
    bm = world.batch_minutes

    def snap(order: FuzzOrder) -> FuzzOrder:
        slot_start = order.slot * mps
        offset = order.arrival_minute - slot_start
        snapped = min(round(offset / bm) * bm, max(0.0, mps - bm))
        return replace(order, arrival_minute=slot_start + snapped)

    return replace(world, orders_per_day=_map_orders(world, snap))


def _perturb_driver_boundary(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Pathological timing: drivers become free exactly at batch boundaries
    (the ``available_at <= minute`` closed-boundary pin of PR 5)."""
    mps = world.generation_minutes_per_slot()
    first = world.slots[0] * mps
    drivers = tuple(
        replace(
            driver,
            available_at=first + float(rng.integers(0, 4)) * world.batch_minutes,
        )
        for driver in world.drivers
    )
    return replace(world, drivers=drivers)


def _perturb_shift_churn(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Fleet churn: day shifts, wrapped overnight shifts and boundary-aligned
    shift changes."""
    mps = world.generation_minutes_per_slot()
    boundary = (world.slots[0] * mps + world.batch_minutes) % DAY_MINUTES
    windows = [
        (300.0, 1050.0),  # day shift
        (1020.0, 300.0),  # overnight, wrapping midnight
        (boundary, (boundary + 360.0) % DAY_MINUTES),  # opens exactly on a batch
    ]
    drivers = []
    for driver in world.drivers:
        if rng.random() < 0.3:
            drivers.append(driver)
            continue
        online_from, online_until = windows[int(rng.integers(0, len(windows)))]
        drivers.append(
            replace(driver, online_from=online_from, online_until=online_until)
        )
    return replace(world, drivers=tuple(drivers))


def _perturb_tiny_patience(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Fleet/order churn: riders cancel after roughly one batch."""
    limit = world.batch_minutes * float(rng.uniform(0.5, 1.5))

    def impatient(order: FuzzOrder) -> FuzzOrder:
        return replace(order, max_wait_minutes=limit)

    return replace(world, orders_per_day=_map_orders(world, impatient))


def _perturb_equal_revenue(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Degeneracy: every order pays the same (LS weight ties)."""

    def flatten(order: FuzzOrder) -> FuzzOrder:
        return replace(order, revenue=8.0)

    return replace(world, orders_per_day=_map_orders(world, flatten))


def _perturb_zero_revenue(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Degeneracy: free rides — LS's ``min_weight=0`` profitability boundary."""

    def zero(order: FuzzOrder) -> FuzzOrder:
        return replace(order, revenue=0.0)

    return replace(world, orders_per_day=_map_orders(world, zero))


def _perturb_offset_window_infer(
    world: FuzzWorld, rng: np.random.Generator
) -> FuzzWorld:
    """The PR 5 bug class: a non-zero-start slot window whose slot length the
    engines must *infer* from the stream (``minutes_per_slot=None``)."""
    mps = world.generation_minutes_per_slot()
    shift = 40 - world.slots[0]
    slots = tuple(int(s) + shift for s in world.slots)

    def reslot(order: FuzzOrder) -> FuzzOrder:
        return replace(
            order,
            slot=order.slot + shift,
            arrival_minute=order.arrival_minute + shift * mps,
        )

    demand = world.demand
    if demand is not None:
        demand = replace(
            demand,
            targets=tuple((day, slot + shift) for day, slot in demand.targets),
        )
    return replace(
        world,
        minutes_per_slot=None,
        slots=slots,
        orders_per_day=_map_orders(world, reslot),
        demand=demand,
    )


def _perturb_empty_slots(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Pathological window: the replayed slot window includes empty slots."""
    last = world.slots[-1]
    return replace(world, slots=world.slots + (last + 1, last + 2))


def _perturb_single_driver(world: FuzzWorld, rng: np.random.Generator) -> FuzzWorld:
    """Fleet churn: the fleet collapses to a single driver."""
    return replace(world, drivers=world.drivers[:1])


#: Named perturbations composed by :func:`sample_world` (sorted registry so
#: random selection is reproducible across Python versions).
PERTURBATIONS: Dict[str, Perturbation] = {
    "all-orders-one-minute": _perturb_one_minute,
    "batch-boundary-orders": _perturb_batch_boundary,
    "closure-zone": _perturb_closure,
    "demand-shift": _perturb_demand_shift,
    "driver-on-boundary": _perturb_driver_boundary,
    "duplicate-drivers": _perturb_duplicate_drivers,
    "empty-slots": _perturb_empty_slots,
    "equal-revenue": _perturb_equal_revenue,
    "gridlock": _perturb_gridlock,
    "no-guidance": _perturb_no_guidance,
    "offset-window-infer": _perturb_offset_window_infer,
    "one-cell-city": _perturb_one_cell_city,
    "same-point": _perturb_same_point,
    "shift-churn": _perturb_shift_churn,
    "single-driver": _perturb_single_driver,
    "slowdown": _perturb_slowdown,
    "surge": _perturb_surge,
    "tiny-patience": _perturb_tiny_patience,
    "zero-revenue": _perturb_zero_revenue,
}


def sample_world(
    index: int, seed: int = 7, config: Optional[GeneratorConfig] = None
) -> FuzzWorld:
    """The ``index``-th fuzz world of campaign ``seed`` — a pure function.

    A base world is drawn, then 0-``max_perturbations`` named perturbations
    are applied in selection order; the applied names are recorded in the
    world's ``label`` so failures report their recipe.
    """
    config = config or GeneratorConfig()
    rng = np.random.default_rng(seed_for(f"fuzz/world/{index}", seed))
    world = _base_world(rng, config)
    names = sorted(PERTURBATIONS)
    count = int(rng.integers(0, config.max_perturbations + 1))
    applied: List[str] = []
    for name in rng.choice(names, size=min(count, len(names)), replace=False):
        world = PERTURBATIONS[str(name)](world, rng)
        applied.append(str(name))
    label = world.policy if not applied else f"{world.policy}+{'+'.join(applied)}"
    return replace(world, label=label)


# --------------------------------------------------------------------- #
# Scenario-vocabulary bridge
# --------------------------------------------------------------------- #


def world_from_bundle(bundle, label: Optional[str] = None) -> FuzzWorld:
    """Convert a materialised :class:`ScenarioBundle` into a :class:`FuzzWorld`.

    The world captures the bundle's exact inputs — orders per replay day, the
    spawned fleet (with its shift roster), travel model, slot window, slot
    length and simulator seed — so replaying the world on any engine is
    bit-identical to running the bundle itself.  This is the graduation path
    between the hand-curated scenario families and the fuzzer: scenario
    failures shrink like fuzzer failures, and shrunk fuzz survivors can be
    compared against the scenario vocabulary that seeded them.
    """
    scenario = bundle.scenario
    fleet = bundle.spawn_fleet()
    travel = bundle.travel
    drivers = tuple(
        FuzzDriver(
            x=float(fleet.x[i]),
            y=float(fleet.y[i]),
            available_at=float(fleet.available_at[i]),
            online_from=float(fleet.online_from[i]),
            online_until=float(fleet.online_until[i]),
        )
        for i in range(len(fleet))
    )
    orders_per_day = tuple(
        tuple(
            FuzzOrder(
                slot=int(day_orders.slot[i]),
                arrival_minute=float(day_orders.arrival_minute[i]),
                x=float(day_orders.x[i]),
                y=float(day_orders.y[i]),
                dropoff_x=float(day_orders.dropoff_x[i]),
                dropoff_y=float(day_orders.dropoff_y[i]),
                revenue=float(day_orders.revenue[i]),
                max_wait_minutes=float(day_orders.max_wait_minutes[i]),
            )
            for i in range(len(day_orders))
        )
        for day_orders in bundle.orders_per_day
    )
    demand: Optional[DemandSpec] = None
    if bundle.provider is not None:
        targets = []
        grids = []
        resolution = None
        for day in range(len(bundle.orders_per_day)):
            for slot in bundle.slots:
                if not bundle.provider.has_slot(day, slot):
                    continue
                grid = np.asarray(bundle.provider.hgrid_demand(day, slot), dtype=float)
                resolution = int(grid.shape[0])
                targets.append((day, int(slot)))
                grids.append(tuple(tuple(float(v) for v in row) for row in grid))
        if targets:
            demand = DemandSpec(
                resolution=resolution, targets=tuple(targets), grids=tuple(grids)
            )
    policy = scenario.policy
    if policy == "polar" and scenario.matching == "greedy":
        policy = "polar_greedy"
    return FuzzWorld(
        label=label or f"scenario:{scenario.label}",
        policy=policy,
        width_km=travel.width_km,
        height_km=travel.height_km,
        speed_kmh=travel.speed_kmh,
        metric=travel.metric,
        batch_minutes=float(scenario.batch_minutes),
        minutes_per_slot=float(bundle.minutes_per_slot),
        slots=tuple(int(s) for s in bundle.slots),
        sim_seed=scenario.sim_seed,
        drivers=drivers,
        orders_per_day=orders_per_day,
        demand=demand,
    )
