"""Property-style equivalence tests: vectorized engine == scalar oracle.

The scalar per-object loop is kept in the code base precisely to serve as the
reference oracle here: across seeds, policies, fleet sizes and guidance
settings, the struct-of-arrays engine must reproduce its
:class:`DispatchMetrics` *exactly* (same floats, not approximately), consume
the shared RNG stream to the same position, and leave the driver objects in
the identical final state.
"""

import numpy as np
import pytest

from repro.core.grid import GridLayout
from repro.dispatch.demand import PredictedDemandProvider
from repro.dispatch.engine import VectorizedAssignmentEngine
from repro.dispatch.entities import Driver, FleetArrays, Order, OrderArrays
from repro.dispatch.ls import LSDispatcher
from repro.dispatch.matching import (
    greedy_matching,
    greedy_pairs,
    greedy_pairs_masked,
    max_weight_pairs,
    maximum_weight_matching,
    min_cost_pairs,
    optimal_matching,
)
from repro.dispatch.polar import POLARDispatcher
from repro.dispatch.simulator import (
    TaskAssignmentSimulator,
    spawn_drivers,
    spawn_fleet,
)
from repro.dispatch.travel import TravelModel
from repro.utils.rng import default_rng

TRAVEL = TravelModel(width_km=9.0, height_km=11.0, speed_kmh=27.0)

FLEET_COLUMNS = (
    "driver_id",
    "x",
    "y",
    "available_at",
    "served_orders",
    "earned_revenue",
    "online_from",
    "online_until",
)


def run_vector(policy, travel, orders, drivers, seed, day=0, slots=None, days=None, **engine):
    """The vector side of an equivalence test, on the scalar oracle's inputs.

    ``orders`` is a list of :class:`Order` (one day) or one list per day and
    ``drivers`` a list of :class:`Driver`; both are packed into arrays, so the
    objects stay untouched for the oracle's own run.  ``engine`` holds the
    remaining :class:`VectorizedAssignmentEngine` arguments; ``seed`` goes
    through :func:`~repro.utils.rng.default_rng` like the oracle's.  Returns
    the metrics and the final fleet.
    """
    orders = list(orders)
    if orders and isinstance(orders[0], (list, tuple)):
        engine_orders = [OrderArrays.from_orders(day_orders) for day_orders in orders]
    else:
        engine_orders = OrderArrays.from_orders(orders)
    fleet = FleetArrays.from_drivers(drivers)
    metrics = VectorizedAssignmentEngine(policy, travel, **engine).run(
        engine_orders, fleet, default_rng(seed), day=day, slots=slots, days=days
    )
    return metrics, fleet


def assert_fleet_matches(drivers, fleet):
    """``fleet`` holds exactly the final state of the oracle's ``drivers``."""
    expected = FleetArrays.from_drivers(drivers)
    for name in FLEET_COLUMNS:
        np.testing.assert_array_equal(
            getattr(fleet, name), getattr(expected, name), err_msg=name
        )


def make_orders(rng, count, slots=(16, 17)):
    orders = []
    for index in range(count):
        slot = int(rng.choice(slots))
        orders.append(
            Order(
                order_id=index,
                slot=slot,
                arrival_minute=slot * 30 + float(rng.uniform(0, 30)),
                x=float(rng.random()),
                y=float(rng.random()),
                dropoff_x=float(rng.random()),
                dropoff_y=float(rng.random()),
                revenue=float(rng.uniform(2, 20)),
                max_wait_minutes=float(rng.uniform(6, 14)),
            )
        )
    orders.sort(key=lambda order: order.arrival_minute)
    return orders


def make_provider(rng, slots=(16, 17)):
    layout = GridLayout(num_mgrids=4, hgrids_per_mgrid=4)
    predictions = rng.uniform(0, 10, size=(len(slots), 2, 2))
    return PredictedDemandProvider(layout, predictions, [(0, slot) for slot in slots])


def make_policy(name):
    if name == "polar":
        return POLARDispatcher()
    if name == "polar_greedy":
        return POLARDispatcher(use_optimal_matching=False)
    return LSDispatcher()


POLICIES = ("polar", "polar_greedy", "ls")


class TestEngineEquivalence:
    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_metrics_identical_across_seeds(self, policy_name, seed):
        rng = np.random.default_rng(seed)
        orders = make_orders(rng, 60)
        provider = make_provider(rng)
        drivers = [
            Driver(i, float(x), float(y))
            for i, (x, y) in enumerate(np.random.default_rng(seed + 1000).random((12, 2)))
        ]
        vector_metrics, fleet = run_vector(
            make_policy(policy_name), TRAVEL, orders, drivers, seed,
            slots=[16, 17], demand=provider,
        )
        simulator = TaskAssignmentSimulator(
            make_policy(policy_name), TRAVEL, demand=provider, seed=seed
        )
        assert simulator.run(orders, drivers, day=0, slots=[16, 17]) == vector_metrics
        # The final driver states (position, availability, per-driver stats)
        # must also be identical, not just the aggregate metrics.
        assert_fleet_matches(drivers, fleet)

    @pytest.mark.parametrize("fleet_size", [1, 5, 40])
    def test_metrics_identical_across_fleet_sizes(self, fleet_size):
        rng = np.random.default_rng(99)
        orders = make_orders(rng, 80)
        provider = make_provider(rng)
        drivers = spawn_drivers(fleet_size, np.random.default_rng(5))
        vector_metrics, fleet = run_vector(
            POLARDispatcher(), TRAVEL, orders, drivers, 3, slots=[16, 17], demand=provider
        )
        simulator = TaskAssignmentSimulator(POLARDispatcher(), TRAVEL, demand=provider, seed=3)
        assert simulator.run(orders, drivers, day=0, slots=[16, 17]) == vector_metrics
        assert_fleet_matches(drivers, fleet)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_rng_stream_position_identical(self, policy_name):
        """Both engines must consume the shared generator to the same point."""
        rng = np.random.default_rng(11)
        orders = make_orders(rng, 40)
        provider = make_provider(rng)
        drivers = spawn_drivers(10, np.random.default_rng(6))
        vector_stream = np.random.default_rng(123)
        run_vector(
            make_policy(policy_name), TRAVEL, orders, drivers, vector_stream,
            slots=[16, 17], demand=provider,
        )
        scalar_stream = np.random.default_rng(123)
        simulator = TaskAssignmentSimulator(
            make_policy(policy_name), TRAVEL, demand=provider, seed=scalar_stream
        )
        simulator.run(orders, drivers, day=0, slots=[16, 17])
        assert scalar_stream.random(4).tolist() == vector_stream.random(4).tolist()

    def test_without_demand_guidance(self):
        rng = np.random.default_rng(21)
        orders = make_orders(rng, 30)
        drivers = spawn_drivers(8, np.random.default_rng(7))
        vector_metrics, fleet = run_vector(LSDispatcher(), TRAVEL, orders, drivers, 1)
        simulator = TaskAssignmentSimulator(LSDispatcher(), TRAVEL, demand=None, seed=1)
        assert simulator.run(orders, drivers) == vector_metrics
        assert_fleet_matches(drivers, fleet)

    def test_vector_engine_accepts_arrays_directly(self):
        # Arrays built straight by spawn_fleet run like the oracle's objects.
        rng = np.random.default_rng(31)
        orders = make_orders(rng, 30)
        provider = make_provider(rng)
        drivers = spawn_drivers(9, np.random.default_rng(8))
        fleet = spawn_fleet(9, np.random.default_rng(8))
        engine = VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, demand=provider)
        array_metrics = engine.run(
            OrderArrays.from_orders(orders), fleet, default_rng(5), day=0, slots=[16, 17]
        )
        simulator = TaskAssignmentSimulator(POLARDispatcher(), TRAVEL, demand=provider, seed=5)
        assert simulator.run(orders, drivers, day=0, slots=[16, 17]) == array_metrics
        assert_fleet_matches(drivers, fleet)

    def test_scalar_engine_rejects_fleet_arrays(self):
        rng = np.random.default_rng(1)
        orders = make_orders(rng, 5)
        drivers = spawn_drivers(3, np.random.default_rng(0))
        simulator = TaskAssignmentSimulator(POLARDispatcher(), TRAVEL)
        with pytest.raises(TypeError, match="VectorizedAssignmentEngine"):
            simulator.run(orders, FleetArrays.from_drivers(drivers))
        with pytest.raises(TypeError, match="VectorizedAssignmentEngine"):
            simulator.run(OrderArrays.from_orders(orders), drivers)

    @pytest.mark.parametrize("batch_minutes", [0.0, -2.0, float("nan")])
    def test_engine_rejects_non_positive_batch_minutes(self, batch_minutes):
        # The service session and ingest-log replay build the engine
        # directly; a zero-length batch would never advance the slot clock.
        with pytest.raises(ValueError, match="batch_minutes"):
            VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, batch_minutes=batch_minutes)
        with pytest.raises(ValueError, match="batch_minutes"):
            TaskAssignmentSimulator(POLARDispatcher(), TRAVEL, batch_minutes=batch_minutes)


class TestSpawnFleet:
    def test_bit_identical_to_spawn_drivers(self):
        demand = np.random.default_rng(3).uniform(0, 5, size=(4, 4))
        for grid in (None, demand):
            fleet = spawn_fleet(25, np.random.default_rng(17), demand_grid=grid)
            drivers = spawn_drivers(25, np.random.default_rng(17), demand_grid=grid)
            packed = FleetArrays.from_drivers(drivers)
            assert np.array_equal(fleet.x, packed.x)
            assert np.array_equal(fleet.y, packed.y)
            assert np.array_equal(fleet.driver_id, packed.driver_id)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            spawn_fleet(0, np.random.default_rng(0))


class TestOrderArrays:
    def test_round_trip(self):
        orders = make_orders(np.random.default_rng(5), 20)
        arrays = OrderArrays.from_orders(orders)
        assert len(arrays) == 20
        back = arrays.to_orders()
        assert back == orders

    def test_validation(self):
        with pytest.raises(ValueError):
            OrderArrays(
                order_id=[0],
                slot=[1],
                arrival_minute=[5.0],
                x=[0.1],
                y=[0.2],
                dropoff_x=[0.3],
                dropoff_y=[0.4],
                revenue=[-1.0],
                max_wait_minutes=[10.0],
            )


class TestMatchingKernelEquivalence:
    def _random_cost(self, seed, shape=(6, 9), infeasible=0.4):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0, 10, size=shape)
        feasible = rng.random(shape) > infeasible
        return cost, feasible

    @pytest.mark.parametrize("seed", range(8))
    def test_min_cost_pairs_matches_optimal_matching(self, seed):
        cost, feasible = self._random_cost(seed)
        rows, cols = min_cost_pairs(cost, feasible, max_cost=50.0)
        reference = optimal_matching(np.where(feasible, cost, np.inf), max_cost=50.0)
        assert dict(zip(rows.tolist(), cols.tolist())) == reference

    @pytest.mark.parametrize("seed", range(8))
    def test_max_weight_pairs_matches_maximum_weight_matching(self, seed):
        weight, feasible = self._random_cost(seed)
        rows, cols = max_weight_pairs(weight, feasible, min_weight=2.0)
        reference = maximum_weight_matching(
            np.where(feasible, weight, -np.inf), min_weight=2.0
        )
        assert dict(zip(rows.tolist(), cols.tolist())) == reference

    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_pairs_match_greedy_matching(self, seed):
        cost, feasible = self._random_cost(seed)
        masked_cost = np.where(feasible, cost, np.inf)
        reference = greedy_matching(masked_cost, max_cost=50.0)
        dense_rows, dense_cols = greedy_pairs(masked_cost, max_cost=50.0)
        sparse_rows, sparse_cols = greedy_pairs_masked(cost, feasible, max_cost=50.0)
        assert dict(zip(dense_rows.tolist(), dense_cols.tolist())) == reference
        assert dict(zip(sparse_rows.tolist(), sparse_cols.tolist())) == reference

    def test_greedy_tie_breaking_is_flat_order(self):
        """Exact cost ties resolve by row-major position in every greedy path."""
        cost = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
        feasible = np.ones_like(cost, dtype=bool)
        reference = greedy_matching(cost)
        assert reference == {0: 1, 1: 0}
        rows, cols = greedy_pairs(cost)
        assert dict(zip(rows.tolist(), cols.tolist())) == reference
        rows, cols = greedy_pairs_masked(cost, feasible, max_cost=10.0)
        assert dict(zip(rows.tolist(), cols.tolist())) == reference

    def test_all_infeasible(self):
        cost = np.ones((3, 4))
        feasible = np.zeros((3, 4), dtype=bool)
        assert min_cost_pairs(cost, feasible, max_cost=5.0)[0].size == 0
        assert max_weight_pairs(cost, feasible)[0].size == 0
        assert greedy_pairs_masked(cost, feasible, max_cost=5.0)[0].size == 0

    def test_empty_matrix(self):
        cost = np.empty((0, 0))
        feasible = np.empty((0, 0), dtype=bool)
        assert min_cost_pairs(cost, feasible, max_cost=1.0)[0].size == 0
        assert max_weight_pairs(cost, feasible)[0].size == 0
        assert greedy_pairs(cost)[0].size == 0


class TestPairwiseTravel:
    def test_pairwise_km_matches_elementwise_distance(self):
        rng = np.random.default_rng(0)
        ox, oy = rng.random(5), rng.random(5)
        dx, dy = rng.random(7), rng.random(7)
        matrix = TRAVEL.pairwise_km(ox, oy, dx, dy)
        assert matrix.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                assert matrix[i, j] == TRAVEL.distance_km(dx[j], dy[j], ox[i], oy[i])

    def test_euclidean_metric(self):
        travel = TravelModel(width_km=5.0, height_km=5.0, metric="euclidean")
        matrix = travel.pairwise_km(
            np.array([0.0]), np.array([0.0]), np.array([0.6]), np.array([0.8])
        )
        assert matrix[0, 0] == pytest.approx(5.0)
