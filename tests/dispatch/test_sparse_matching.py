"""Sparse matching pipeline tests: components, star fast paths, engine parity.

Three layers are pinned here:

1. :func:`edge_components` — the bipartite decomposition is a true partition
   of the feasibility graph, in the documented canonical order (components by
   ascending minimum row, indices ascending inside).
2. The engine's one decompose/solve/merge (``_match_sparse``) reproduces the
   dense kernels' pairs batch by batch — randomized batches, greedy ties,
   degenerate shapes and star blocks — and the policies' star-component
   rules agree with their ``match_pairs`` kernels.
3. The engine — ``sparse="always"`` replays ``sparse="never"`` (the dense
   oracle) bit-for-bit: metrics, final driver state and RNG stream position,
   for every policy.
"""

import numpy as np
import pytest

from repro.dispatch.engine import SPARSE_AUTO_THRESHOLD, VectorizedAssignmentEngine
from repro.dispatch.ls import LSDispatcher
from repro.dispatch.matching import edge_components
from repro.dispatch.polar import POLARDispatcher
from repro.dispatch.simulator import spawn_drivers
from repro.dispatch.travel import TravelModel

from tests.dispatch.test_engine_equivalence import (
    TRAVEL,
    make_orders,
    make_policy,
    make_provider,
    run_vector,
)

POLICIES = ("polar", "polar_greedy", "ls")


def brute_force_components(feasible):
    """Reference decomposition: BFS over the bipartite adjacency."""
    n_rows, n_cols = feasible.shape
    seen_rows, seen_cols = set(), set()
    components = []
    for start in range(n_rows):
        if start in seen_rows or not feasible[start].any():
            continue
        rows, cols, frontier = {start}, set(), [("r", start)]
        while frontier:
            kind, node = frontier.pop()
            if kind == "r":
                for col in np.flatnonzero(feasible[node]):
                    if int(col) not in cols:
                        cols.add(int(col))
                        frontier.append(("c", int(col)))
            else:
                for row in np.flatnonzero(feasible[:, node]):
                    if int(row) not in rows:
                        rows.add(int(row))
                        frontier.append(("r", int(row)))
        seen_rows |= rows
        seen_cols |= cols
        components.append((sorted(rows), sorted(cols)))
    return components


class TestEdgeComponents:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_partition(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 15)))
        feasible = rng.random(shape) < rng.uniform(0.05, 0.6)
        rows, cols = np.nonzero(feasible)
        components = edge_components(rows, cols, *shape)
        expected = brute_force_components(feasible)
        assert [(r.tolist(), c.tolist()) for r, c in components] == expected

    def test_canonical_order_and_empty(self):
        assert edge_components(np.empty(0, int), np.empty(0, int), 4, 4) == []
        # Two components: {1, 3} x {0} and {2} x {2}; min-row order.
        rows = np.array([3, 2, 1])
        cols = np.array([0, 2, 0])
        components = edge_components(rows, cols, 5, 4)
        assert [(r.tolist(), c.tolist()) for r, c in components] == [
            ([1, 3], [0]),
            ([2], [2]),
        ]

    def test_long_chain_converges(self):
        # Path graph r0-c0-r1-c1-...: one component regardless of diameter.
        n = 40
        rows = np.repeat(np.arange(n), 2)[1:-1]
        cols = np.repeat(np.arange(n - 1), 2)
        components = edge_components(rows, cols, n, n - 1)
        assert len(components) == 1
        assert components[0][0].tolist() == list(range(n))
        assert components[0][1].tolist() == list(range(n - 1))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            edge_components(np.array([0]), np.array([0, 1]), 2, 2)
        with pytest.raises(ValueError):
            edge_components(np.array([5]), np.array([0]), 2, 2)
        with pytest.raises(ValueError):
            edge_components(np.array([0]), np.array([7]), 2, 2)


def dense_batch(engine, order_x, order_y, waits, limits, revenue, idle_x, idle_y):
    """The engine's dense batch solve: full matrix, exact feasibility, kernel."""
    travel = engine.travel
    distance = travel.pairwise_km(order_x, order_y, idle_x, idle_y)
    feasible = distance / travel.speed_kmh * 60.0 + waits[:, None] <= limits[:, None]
    rows, cols = engine.policy.match_pairs(distance, feasible, revenue)
    return rows, cols, distance[rows, cols]


def assert_sparse_equals_dense(engine, *batch):
    dense = dense_batch(engine, *batch)
    sparse = engine._match_sparse(*batch)
    for expected, actual in zip(dense, sparse):
        assert np.array_equal(expected, actual)


def random_batch(seed, shape=None):
    """One batch of alive orders and idle drivers, split into several components."""
    rng = np.random.default_rng(seed)
    if shape is None:
        shape = (int(rng.integers(1, 14)), int(rng.integers(1, 18)))
    n_orders, n_drivers = shape
    waits = rng.uniform(0, 5, n_orders)
    return (
        rng.random(n_orders),
        rng.random(n_orders),
        waits,
        waits + rng.uniform(0, 6, n_orders),
        rng.uniform(2, 20, n_orders),
        rng.random(n_drivers),
        rng.random(n_drivers),
    )


# Euclidean distances make exact cost ties a measure-zero event, so the
# per-component assignment solvers must reproduce the full-matrix pairs.
EUCLIDEAN = TravelModel(width_km=9.0, height_km=11.0, speed_kmh=27.0, metric="euclidean")


class TestMatchSparseEqualsDense:
    """Decompose/solve/merge reproduces the dense kernels' pairs per batch."""

    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_batches(self, policy_name, seed):
        engine = VectorizedAssignmentEngine(make_policy(policy_name), EUCLIDEAN)
        assert_sparse_equals_dense(engine, *random_batch(seed))

    def test_greedy_exact_on_ties(self):
        """The greedy merge order is exact even under cost ties."""
        engine = VectorizedAssignmentEngine(make_policy("polar_greedy"), TRAVEL)
        # Two far-apart translated copies of one 2x2 cluster; each order is
        # exactly equidistant from both drivers of its cluster, and the two
        # clusters tie with each other (dyadic coordinates, exact floats).
        order_x = np.array([0.125, 0.125, 0.75, 0.75])
        order_y = np.array([0.125, 0.25, 0.75, 0.875])
        idle_x = np.array([0.0625, 0.1875, 0.6875, 0.8125])
        idle_y = np.array([0.125, 0.125, 0.75, 0.75])
        waits = np.zeros(4)
        limits = np.full(4, 5.0)
        revenue = np.full(4, 10.0)
        batch = (order_x, order_y, waits, limits, revenue, idle_x, idle_y)
        distance = TRAVEL.pairwise_km(order_x, order_y, idle_x, idle_y)
        assert distance[0, 0] == distance[0, 1] == distance[2, 2] == distance[2, 3]
        assert distance[1, 0] == distance[1, 1] == distance[3, 2] == distance[3, 3]
        assert len(edge_components(*np.nonzero(distance < 5.0), 4, 4)) == 2
        assert len(dense_batch(engine, *batch)[0]) == 4
        assert_sparse_equals_dense(engine, *batch)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_degenerate_shapes(self, policy_name):
        engine = VectorizedAssignmentEngine(make_policy(policy_name), EUCLIDEAN)
        # All-infeasible: no slack at all, drivers away from the orders.
        far = (
            np.array([0.1, 0.2, 0.3]),
            np.array([0.1, 0.2, 0.3]),
            np.full(3, 4.0),
            np.full(3, 4.0),
            np.full(3, 10.0),
            np.array([0.9, 0.8, 0.7, 0.6]),
            np.array([0.9, 0.8, 0.7, 0.6]),
        )
        assert engine._match_sparse(*far)[0].size == 0
        assert_sparse_equals_dense(engine, *far)
        # Single cell.
        one = tuple(np.array([value]) for value in (0.5, 0.5, 0.0, 10.0, 9.0, 0.52, 0.5))
        rows, cols, _ = engine._match_sparse(*one)
        assert (rows.tolist(), cols.tolist()) == ([0], [0])
        assert_sparse_equals_dense(engine, *one)

    @pytest.mark.parametrize("seed", range(6))
    def test_star_blocks(self, seed):
        """Single-order and single-driver components (the engine's fast paths)."""
        rng = np.random.default_rng(seed)
        # A 1 x 4 star around order 0 and a 3 x 1 star around driver 6; the
        # other orders and drivers sit far apart and stay unmatched.
        order_x = np.array([0.10, 0.95, 0.50, 0.51, 0.49, 0.05])
        order_y = np.array([0.10, 0.05, 0.50, 0.49, 0.51, 0.95])
        idle_x = np.concatenate([0.10 + rng.uniform(-0.02, 0.02, 4), [0.70, 0.30]])
        idle_y = np.concatenate([0.10 + rng.uniform(-0.02, 0.02, 4), [0.30, 0.70]])
        idle_x = np.insert(idle_x, 6, 0.50 + rng.uniform(-0.01, 0.01))
        idle_y = np.insert(idle_y, 6, 0.50 + rng.uniform(-0.01, 0.01))
        waits = np.zeros(6)
        limits = np.full(6, 2.0)
        revenue = rng.uniform(2, 20, 6)
        batch = (order_x, order_y, waits, limits, revenue, idle_x, idle_y)
        for policy_name in POLICIES:
            engine = VectorizedAssignmentEngine(make_policy(policy_name), EUCLIDEAN)
            components = edge_components(
                *np.nonzero(
                    EUCLIDEAN.pairwise_km(order_x, order_y, idle_x, idle_y)
                    / EUCLIDEAN.speed_kmh
                    * 60.0
                    <= limits[:, None]
                ),
                6,
                7,
            )
            assert [(r.tolist(), c.tolist()) for r, c in components] == [
                ([0], [0, 1, 2, 3]),
                ([2, 3, 4], [6]),
            ]
            assert_sparse_equals_dense(engine, *batch)


def single_star(policy, distance, revenue):
    """``match_single_orders`` on one star whose edges reach columns ``0..k-1``."""
    chosen = policy.match_single_orders(
        distance, np.arange(distance.size), np.array([0]), np.array([revenue])
    )
    return int(chosen[0])


class TestSingleMatchFastPaths:
    def test_polar_single_matches_kernel(self):
        policy = POLARDispatcher()
        distance = np.array([3.0, 1.0, 1.0, 2.0])
        feasible = np.ones((1, 4), dtype=bool)
        rows, cols = policy.match_pairs(distance[None, :], feasible, np.array([5.0]))
        # The tie between columns 1 and 2 goes to the smaller, as in match_pairs.
        assert single_star(policy, distance, 5.0) == cols[0] == 1
        assert policy.match_single_driver(distance, np.full(4, 5.0)) == 1
        # Beyond the cost cut-off nothing matches.
        assert single_star(policy, np.array([1e6]), 5.0) == -1

    def test_ls_single_matches_kernel(self):
        policy = LSDispatcher()
        distance = np.array([0.5, 4.0, 0.5])
        revenue = 6.0
        feasible = np.ones((1, 3), dtype=bool)
        rows, cols = policy.match_pairs(
            distance[None, :], feasible, np.array([revenue])
        )
        assert single_star(policy, distance, revenue) == cols[0] == 0
        # Unprofitable orders are left unmatched (min_weight = 0).
        assert single_star(policy, np.array([100.0]), 1.0) == -1
        assert policy.match_single_driver(np.array([100.0]), np.array([1.0])) == -1


class TestEngineSparseEquivalence:
    # Fleet size is pinned to a verified tie-free configuration: LS's
    # net-revenue objective can admit two equal-weight optima (two drivers
    # whose Manhattan-distance difference is order-independent), and SciPy's
    # tie-break on the full matrix need not match the per-component solve —
    # the documented caveat in repro.dispatch.matching.  The runs are fully
    # deterministic, so tie-free parameters stay tie-free.
    def run_engine(self, policy_name, seed, sparse, fleet=20, orders=70):
        rng = np.random.default_rng(seed)
        stream = np.random.default_rng(seed + 500)
        order_list = make_orders(rng, orders)
        provider = make_provider(rng)
        drivers = spawn_drivers(fleet, np.random.default_rng(seed + 1000))
        metrics, final = run_vector(
            make_policy(policy_name),
            TRAVEL,
            order_list,
            drivers,
            stream,
            slots=[16, 17],
            demand=provider,
            sparse=sparse,
        )
        state = [
            getattr(final, name).tolist()
            for name in ("x", "y", "available_at", "served_orders", "earned_revenue")
        ]
        return metrics, state, stream.random(4).tolist()

    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_always_replays_dense(self, policy_name, seed):
        dense = self.run_engine(policy_name, seed, "never")
        sparse = self.run_engine(policy_name, seed, "always")
        assert dense == sparse

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_auto_mode_replays_dense(self, policy_name):
        dense = self.run_engine(policy_name, 11, "never")
        auto = self.run_engine(policy_name, 11, "auto")
        assert dense == auto

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_single_driver_fleet(self, policy_name):
        dense = self.run_engine(policy_name, 3, "never", fleet=1)
        sparse = self.run_engine(policy_name, 3, "always", fleet=1)
        assert dense == sparse

    def test_auto_threshold_switches(self):
        engine = VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL)
        assert not engine._use_sparse(4, 100)
        assert engine._use_sparse(4, SPARSE_AUTO_THRESHOLD)
        never = VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, sparse="never")
        assert not never._use_sparse(10**6, 10**6)
        always = VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, sparse="always")
        assert always._use_sparse(1, 1)

    def test_invalid_sparse_mode(self):
        with pytest.raises(ValueError):
            VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, sparse="sometimes")

    def test_invalid_sparse_parameters_fail_at_construction(self):
        with pytest.raises(ValueError):
            VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, sparse_threshold=-1)
