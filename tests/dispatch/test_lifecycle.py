"""Fleet & order lifecycle tests: shift windows, cancellations, multi-day replay.

The lifecycle subsystem must hold the same contract as every other engine
feature: the scalar per-object loop is the oracle, and the vectorized engine
(dense and sparse) reproduces its :class:`DispatchMetrics` — including the new
``cancelled_orders`` — final driver state and RNG stream position bit for bit.
This module also pins the two boundary semantics the lifecycle logic depends
on (idle at exactly the batch minute, shift edges) and the offset-slot-window
regression of ``minutes_per_slot``.
"""

import numpy as np
import pytest

from repro.dispatch.engine import infer_minutes_per_slot
from repro.dispatch.entities import (
    DAY_MINUTES,
    Driver,
    FleetArrays,
    Order,
    OrderArrays,
    online_mask,
)
from repro.dispatch.ls import LSDispatcher
from repro.dispatch.polar import POLARDispatcher
from repro.dispatch.simulator import TaskAssignmentSimulator, spawn_drivers
from repro.dispatch.travel import TravelModel

from tests.dispatch.test_engine_equivalence import assert_fleet_matches, run_vector

TRAVEL = TravelModel(width_km=9.0, height_km=11.0, speed_kmh=27.0)

POLICIES = ("polar", "polar_greedy", "ls")
SPARSE_MODES = ("auto", "always", "never")


def make_policy(name):
    if name == "polar":
        return POLARDispatcher()
    if name == "polar_greedy":
        return POLARDispatcher(use_optimal_matching=False)
    return LSDispatcher()


def make_orders(rng, count, slots=(16, 17), minutes_per_slot=30.0, patience=(6, 14)):
    orders = []
    for index in range(count):
        slot = int(rng.choice(slots))
        orders.append(
            Order(
                order_id=index,
                slot=slot,
                arrival_minute=slot * minutes_per_slot
                + float(rng.uniform(0, minutes_per_slot)),
                x=float(rng.random()),
                y=float(rng.random()),
                dropoff_x=float(rng.random()),
                dropoff_y=float(rng.random()),
                revenue=float(rng.uniform(2, 20)),
                max_wait_minutes=float(rng.uniform(*patience)),
            )
        )
    orders.sort(key=lambda order: order.arrival_minute)
    return orders


def shift_fleet(count, seed, windows):
    """Drivers whose shift windows cycle through ``windows`` by index."""
    drivers = spawn_drivers(count, np.random.default_rng(seed))
    for index, driver in enumerate(drivers):
        online_from, online_until = windows[index % len(windows)]
        driver.online_from = online_from
        driver.online_until = online_until
    return drivers


def run_both_engines(
    policy_name, orders, drivers_factory, sparse="auto", slots=None, days=None, **sim_kwargs
):
    """Run scalar and vector engines on identical inputs; return both results."""
    vector_stream = np.random.default_rng(123)
    metrics, fleet = run_vector(
        make_policy(policy_name),
        TRAVEL,
        orders,
        drivers_factory(),
        vector_stream,
        slots=slots,
        days=days,
        sparse=sparse,
        **sim_kwargs,
    )
    results = {"vector": (metrics, fleet, vector_stream.random(4).tolist())}
    scalar_stream = np.random.default_rng(123)
    drivers = drivers_factory()
    simulator = TaskAssignmentSimulator(
        make_policy(policy_name), TRAVEL, seed=scalar_stream, **sim_kwargs
    )
    metrics = simulator.run(orders, drivers, day=0, slots=slots, days=days)
    results["scalar"] = (metrics, drivers, scalar_stream.random(4).tolist())
    return results


def assert_engines_identical(results):
    scalar_metrics, scalar_drivers, scalar_tail = results["scalar"]
    vector_metrics, vector_fleet, vector_tail = results["vector"]
    assert scalar_metrics == vector_metrics
    assert scalar_tail == vector_tail
    assert_fleet_matches(scalar_drivers, vector_fleet)
    return scalar_metrics


class TestOnlineMask:
    def test_default_window_is_always_online(self):
        online_from = np.zeros(3)
        online_until = np.full(3, DAY_MINUTES)
        for minute in (0.0, 719.5, 1439.9, 1440.0, 2000.0):
            assert online_mask(online_from, online_until, minute).all()

    def test_straight_window_boundaries(self):
        """Closed at the shift start, open at the shift end."""
        online_from = np.array([300.0])
        online_until = np.array([1050.0])
        assert not online_mask(online_from, online_until, 299.999)[0]
        assert online_mask(online_from, online_until, 300.0)[0]
        assert online_mask(online_from, online_until, 1049.999)[0]
        assert not online_mask(online_from, online_until, 1050.0)[0]

    def test_wrapped_overnight_window(self):
        online_from = np.array([1020.0])
        online_until = np.array([300.0])
        assert online_mask(online_from, online_until, 1020.0)[0]
        assert online_mask(online_from, online_until, 1439.0)[0]
        assert online_mask(online_from, online_until, 0.0)[0]
        assert online_mask(online_from, online_until, 299.0)[0]
        assert not online_mask(online_from, online_until, 300.0)[0]
        assert not online_mask(online_from, online_until, 700.0)[0]

    def test_windows_recur_daily(self):
        online_from = np.array([300.0])
        online_until = np.array([1050.0])
        assert online_mask(online_from, online_until, DAY_MINUTES + 400.0)[0]
        assert not online_mask(online_from, online_until, DAY_MINUTES + 100.0)[0]

    def test_driver_is_online_agrees_with_mask(self):
        for online_from, online_until in ((300.0, 1050.0), (1020.0, 300.0)):
            driver = Driver(0, 0.5, 0.5, online_from=online_from, online_until=online_until)
            for minute in (0.0, 299.0, 300.0, 700.0, 1020.0, 1439.5, 1500.0):
                expected = bool(
                    online_mask(
                        np.array([online_from]), np.array([online_until]), minute
                    )[0]
                )
                assert driver.is_online(minute) == expected


class TestFleetArraysLifecycle:
    def test_default_fleet_has_no_shifts(self):
        fleet = FleetArrays.from_drivers(spawn_drivers(5, np.random.default_rng(0)))
        assert not fleet.has_shifts
        assert fleet.idle_indices(0.0).size == 5

    def test_from_drivers_round_trips_shift_windows(self):
        drivers = shift_fleet(6, 1, [(300.0, 1050.0), (1020.0, 300.0)])
        fleet = FleetArrays.from_drivers(drivers)
        assert fleet.has_shifts
        assert fleet.to_drivers() == drivers

    def test_idle_indices_masks_off_shift_drivers(self):
        drivers = shift_fleet(4, 2, [(0.0, DAY_MINUTES), (600.0, 700.0)])
        fleet = FleetArrays.from_drivers(drivers)
        # At minute 100 only the always-online drivers (even indices) are idle.
        assert fleet.idle_indices(100.0).tolist() == [0, 2]
        assert fleet.idle_indices(650.0).tolist() == [0, 1, 2, 3]
        # Availability still applies on top of the shift mask.
        fleet.available_at[0] = 1e9
        assert fleet.idle_indices(650.0).tolist() == [1, 2, 3]

    def test_scalar_and_vector_idle_sets_agree_on_boundaries(self):
        drivers = shift_fleet(8, 3, [(0.0, DAY_MINUTES), (480.0, 500.0)])
        drivers[2].available_at = 480.0  # exactly the probe minute
        drivers[4].available_at = np.nextafter(480.0, np.inf)
        fleet = FleetArrays.from_drivers(drivers)
        for minute in (479.999, 480.0, 500.0, 640.0):
            scalar = [i for i, d in enumerate(drivers) if d.is_idle(minute)]
            assert fleet.idle_indices(minute).tolist() == scalar


class TestIdleBoundarySemantics:
    """Pin ``available_at <= minute``: free at exactly the batch minute is idle."""

    def _boundary_inputs(self):
        # Slot 16 starts at 480; batches end at 482, 484, ...  The order
        # arrives in the first batch; the only driver sits exactly on the
        # order and becomes free at exactly the 484.0 batch boundary.  With
        # patience 4 the order survives to 484 but would be cancelled by 486,
        # so an engine that drifted to ``available_at < minute`` would serve
        # nothing — the boundary is observable, not cosmetic.
        order = Order(
            order_id=0,
            slot=16,
            arrival_minute=480.5,
            x=0.25,
            y=0.25,
            dropoff_x=0.75,
            dropoff_y=0.75,
            revenue=10.0,
            max_wait_minutes=4.0,
        )
        def drivers_factory():
            return [Driver(0, 0.25, 0.25, available_at=484.0)]
        return [order], drivers_factory

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_driver_free_at_exact_batch_minute_serves(self, policy_name):
        orders, drivers_factory = self._boundary_inputs()
        results = run_both_engines(policy_name, orders, drivers_factory, slots=[16])
        metrics = assert_engines_identical(results)
        assert metrics.served_orders == 1
        assert metrics.cancelled_orders == 0

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_driver_free_just_after_batch_minute_misses(self, policy_name):
        orders, drivers_factory = self._boundary_inputs()
        def late_factory():
            drivers = drivers_factory()
            drivers[0].available_at = np.nextafter(484.0, np.inf)
            return drivers
        results = run_both_engines(policy_name, orders, late_factory, slots=[16])
        metrics = assert_engines_identical(results)
        assert metrics.served_orders == 0
        assert metrics.cancelled_orders == 1


class TestOffsetSlotWindowRegression:
    """`_minutes_per_slot` regression: offset windows need the exact slot length.

    On a pre-fix code base the ``minutes_per_slot`` parameter does not exist
    (these tests fail with ``TypeError``), and the inference clamped every
    sub-30-minute stream to 30-minute slots: replaying the 15-minute slots
    [40..47] then placed the window hours after the orders arrived, so every
    order was stale before its slot opened and nothing was ever served.
    """

    def _offset_orders(self):
        rng = np.random.default_rng(3)
        return make_orders(
            rng, 40, slots=range(40, 48), minutes_per_slot=15.0, patience=(8, 8)
        )

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_offset_window_replays_on_both_engines(self, policy_name):
        orders = self._offset_orders()
        results = run_both_engines(
            policy_name,
            orders,
            lambda: spawn_drivers(10, np.random.default_rng(5)),
            slots=list(range(40, 48)),
            minutes_per_slot=15.0,
        )
        metrics = assert_engines_identical(results)
        # The mis-sized window served exactly 0 orders; the fixed one serves.
        assert metrics.served_orders > 0
        assert metrics.total_orders == 40

    def test_inference_clamp_still_mis_sizes_offset_windows(self):
        """Documents why the explicit slot length is the fix: inference alone
        cannot recover a sub-30-minute slot length (the 30-minute floor wins),
        so the un-plumbed replay still serves nothing."""
        orders = self._offset_orders()
        drivers = spawn_drivers(10, np.random.default_rng(5))
        metrics, _ = run_vector(
            POLARDispatcher(), TRAVEL, orders, drivers, 1, slots=list(range(40, 48))
        )
        assert metrics.served_orders == 0

    def test_inferred_slot_length_matches_thirty_minute_streams(self):
        """The improved per-order inference stays exactly 30 for 30-min data."""
        orders = make_orders(np.random.default_rng(11), 50)
        arrival = np.array([o.arrival_minute for o in orders])
        slots = np.array([o.slot for o in orders])
        assert infer_minutes_per_slot(arrival, slots) == 30.0

    def test_inference_uses_per_order_bounds(self):
        # One early-slot order arriving late in its slot: the legacy
        # latest/(max_slot+1) heuristic under-sizes (59 min slots, latest
        # arrival early in the last slot), the per-order bound does not.
        arrival = np.array([10 * 60.0 + 59.0, 20 * 60.0 + 1.0])
        slots = np.array([10, 20])
        inferred = infer_minutes_per_slot(arrival, slots)
        legacy = max(30.0, arrival.max() / (slots.max() + 1))
        assert inferred > legacy
        assert inferred == pytest.approx(659.0 / 11.0)

    def test_minutes_per_slot_validation(self):
        with pytest.raises(ValueError):
            TaskAssignmentSimulator(POLARDispatcher(), TRAVEL, minutes_per_slot=0.0)

    def test_empty_stream_falls_back_to_default(self):
        assert infer_minutes_per_slot(np.array([]), np.array([])) == 30.0

    def test_single_order_stream(self):
        # One order pins a single lower bound: arrival / (slot + 1), floored
        # at 30.  An order late in a 60-minute slot recovers ~60; an early one
        # can only return the floor.
        assert infer_minutes_per_slot(
            np.array([659.0]), np.array([10])
        ) == pytest.approx(659.0 / 11.0)
        assert infer_minutes_per_slot(np.array([301.0]), np.array([10])) == 30.0

    def test_all_orders_in_slot_zero(self):
        # Slot 0 gives the bound arrival / 1 = arrival itself: harmless for
        # sub-30 arrivals (the floor wins), but a late slot-0 arrival under a
        # long slot length is recovered exactly.
        arrival = np.array([1.0, 5.0, 29.0])
        assert infer_minutes_per_slot(arrival, np.zeros(3, dtype=int)) == 30.0
        assert infer_minutes_per_slot(
            np.array([1.0, 55.0]), np.array([0, 0])
        ) == 55.0


class TestLifecycleEquivalence:
    """Scalar oracle == vectorized engine (dense and sparse) under lifecycle."""

    def _shift_change_fleet(self):
        # Shift change mid-slot-16 (minute 495): half the fleet clocks out at
        # 495, the other half clocks in at 495 — mid-slot, between batches.
        return lambda: shift_fleet(12, 7, [(0.0, 495.0), (495.0, DAY_MINUTES)])

    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("sparse", SPARSE_MODES)
    def test_shift_change_mid_slot(self, policy_name, sparse):
        orders = make_orders(np.random.default_rng(21), 60)
        results = run_both_engines(
            policy_name, orders, self._shift_change_fleet(), sparse=sparse, slots=[16, 17]
        )
        metrics = assert_engines_identical(results)
        assert metrics.total_orders == 60

    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("sparse", SPARSE_MODES)
    def test_cancellation_burst(self, policy_name, sparse):
        # Impatient riders (1.5-3 min) and a small fleet: a burst of
        # cancellations that both engines must count identically.
        orders = make_orders(np.random.default_rng(22), 80, patience=(1.5, 3.0))
        results = run_both_engines(
            policy_name,
            orders,
            lambda: spawn_drivers(4, np.random.default_rng(8)),
            sparse=sparse,
            slots=[16, 17],
        )
        metrics = assert_engines_identical(results)
        assert metrics.cancelled_orders > 0
        assert metrics.served_orders + metrics.cancelled_orders <= metrics.total_orders

    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("sparse", SPARSE_MODES)
    def test_two_day_carry_over(self, policy_name, sparse):
        rng = np.random.default_rng(23)
        day0 = make_orders(rng, 40)
        day1 = make_orders(rng, 35)
        results = run_both_engines(
            policy_name,
            [day0, day1],
            self._shift_change_fleet(),
            sparse=sparse,
            slots=[16, 17],
            days=2,
        )
        metrics = assert_engines_identical(results)
        assert metrics.total_orders == 75

    def test_two_day_replay_carries_available_at(self):
        """A long trip at the end of day 0 keeps its driver busy on day 1."""
        # Slot 47 is the last 30-minute slot; the trip crosses midnight.
        late_order = Order(
            order_id=0,
            slot=47,
            arrival_minute=47 * 30.0 + 5.0,
            x=0.1,
            y=0.1,
            dropoff_x=0.95,
            dropoff_y=0.95,
            revenue=30.0,
            max_wait_minutes=10.0,
        )
        day1_order = Order(
            order_id=1,
            slot=0,
            arrival_minute=1.0,
            x=0.1,
            y=0.1,
            dropoff_x=0.2,
            dropoff_y=0.2,
            revenue=5.0,
            max_wait_minutes=3.0,
        )
        def drivers_factory():
            return [Driver(0, 0.1, 0.1)]
        results = run_both_engines(
            "polar", [[late_order], [day1_order]], drivers_factory, days=2
        )
        metrics = assert_engines_identical(results)
        # The only driver is still returning from the cross-midnight trip when
        # the day-1 order's patience runs out: served day 0, cancelled day 1.
        assert metrics.served_orders == 1
        assert metrics.cancelled_orders == 1
        (_, fleet, _) = results["vector"]
        assert fleet.available_at[0] > DAY_MINUTES

    def test_multi_day_total_is_sum_of_days(self):
        rng = np.random.default_rng(24)
        day0, day1 = make_orders(rng, 30), make_orders(rng, 20)
        single = TaskAssignmentSimulator(POLARDispatcher(), TRAVEL, seed=5)
        multi = single.run([day0, day1], spawn_drivers(6, np.random.default_rng(9)))
        assert multi.total_orders == 50

    def test_days_argument_validation(self):
        simulator = TaskAssignmentSimulator(POLARDispatcher(), TRAVEL, seed=5)
        orders = make_orders(np.random.default_rng(25), 10)
        drivers = spawn_drivers(3, np.random.default_rng(10))
        with pytest.raises(ValueError):
            simulator.run([orders, orders], drivers, days=3)
        with pytest.raises(ValueError):
            simulator.run(orders, drivers, days=2)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_overnight_wrap_shift_equivalence(self, policy_name):
        """Wrapped (cross-midnight) shift windows agree across engines too."""
        orders = make_orders(np.random.default_rng(26), 50, slots=(0, 1, 16))

        def factory():
            return shift_fleet(10, 11, [(1020.0, 300.0), (0.0, DAY_MINUTES)])

        results = run_both_engines(policy_name, orders, factory, slots=[0, 1, 16])
        metrics = assert_engines_identical(results)
        assert metrics.total_orders == 50

    def test_always_online_fleet_reproduces_pre_lifecycle_metrics(self):
        """Default shift windows change nothing: same metrics as a plain fleet."""
        orders = make_orders(np.random.default_rng(27), 40)
        plain = run_both_engines(
            "polar", orders, lambda: spawn_drivers(8, np.random.default_rng(12)),
            slots=[16, 17],
        )
        explicit = run_both_engines(
            "polar",
            orders,
            lambda: shift_fleet(8, 12, [(0.0, DAY_MINUTES)]),
            slots=[16, 17],
        )
        assert assert_engines_identical(plain) == assert_engines_identical(explicit)
