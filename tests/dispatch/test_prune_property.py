"""Property tests for the sparse pipeline's pre-decomposition K-cut.

Before decomposing a batch's feasibility graph, the engine cuts every order
to its tie-inclusive ``K`` cheapest feasible drivers, ``K`` = the batch's
order count (:func:`repro.dispatch.matching.k_cheapest_mask`).  The exchange
argument makes that exact: the greedy scan returns bit-identical pairs, and
the Hungarian (POLAR) and net-revenue (LS) solvers reach the same objective.
Hypothesis drives small matrices with deliberately coarse costs, so ties at
the K-th cheapest distance are common, through the dispatchers' own kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dispatch.ls import LSDispatcher
from repro.dispatch.matching import k_cheapest_mask
from repro.dispatch.polar import POLARDispatcher


@st.composite
def batches(draw):
    """``(distance, feasible, revenue)`` of one batch; costs on a coarse grid."""
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_cols = draw(st.integers(min_value=1, max_value=14))
    cells = n_rows * n_cols
    distance = np.array(
        draw(st.lists(st.integers(0, 6), min_size=cells, max_size=cells)), dtype=float
    ).reshape(n_rows, n_cols) / 4.0
    feasible = np.array(
        draw(st.lists(st.booleans(), min_size=cells, max_size=cells)), dtype=bool
    ).reshape(n_rows, n_cols)
    revenue = np.array(
        draw(st.lists(st.integers(0, 8), min_size=n_rows, max_size=n_rows)), dtype=float
    )
    return distance, feasible, revenue


def pruned(distance, feasible, k=None):
    """The feasibility mask cut to each row's ``k`` (default: rows) cheapest."""
    rows, cols = np.nonzero(feasible)
    n_rows = distance.shape[0]
    keep = k_cheapest_mask(rows, distance[rows, cols], n_rows, n_rows if k is None else k)
    out = np.zeros_like(feasible)
    out[rows[keep], cols[keep]] = True
    return out


def objective(distance, revenue, pairs, weight_per_km=None):
    """(matched count, total cost or net revenue) of a matching."""
    rows, cols = pairs
    if weight_per_km is None:
        return rows.size, float(distance[rows, cols].sum())
    return rows.size, float((revenue[rows] - weight_per_km * distance[rows, cols]).sum())


class TestPruneIsExact:
    @given(batches())
    @settings(max_examples=200, deadline=None)
    def test_greedy_pairs_are_bit_identical(self, batch):
        distance, feasible, revenue = batch
        policy = POLARDispatcher(use_optimal_matching=False)
        full = policy.match_pairs(distance, feasible, revenue)
        cut = policy.match_pairs(distance, pruned(distance, feasible), revenue)
        assert np.array_equal(full[0], cut[0]) and np.array_equal(full[1], cut[1])

    @given(batches())
    @settings(max_examples=200, deadline=None)
    def test_hungarian_objective_is_preserved(self, batch):
        distance, feasible, revenue = batch
        policy = POLARDispatcher()
        full = objective(distance, revenue, policy.match_pairs(distance, feasible, revenue))
        cut = objective(
            distance, revenue, policy.match_pairs(distance, pruned(distance, feasible), revenue)
        )
        assert cut[0] == full[0]
        assert cut[1] == pytest.approx(full[1], rel=1e-12, abs=1e-12)

    @given(batches())
    @settings(max_examples=200, deadline=None)
    def test_ls_objective_is_preserved(self, batch):
        distance, feasible, revenue = batch
        policy = LSDispatcher()
        rate = policy.pickup_cost_per_km
        full = objective(
            distance, revenue, policy.match_pairs(distance, feasible, revenue), rate
        )
        cut = objective(
            distance,
            revenue,
            policy.match_pairs(distance, pruned(distance, feasible), revenue),
            rate,
        )
        assert cut[0] == full[0]
        assert cut[1] == pytest.approx(full[1], rel=1e-12, abs=1e-12)

    @given(batches())
    @settings(max_examples=200, deadline=None)
    def test_cut_keeps_exactly_the_tie_inclusive_k_cheapest(self, batch):
        distance, feasible, _ = batch
        k = distance.shape[0]
        kept = pruned(distance, feasible)
        for row in range(k):
            costs = distance[row, feasible[row]]
            if costs.size <= k:
                assert np.array_equal(kept[row], feasible[row])
            else:
                kth = np.sort(costs, kind="stable")[k - 1]
                assert np.array_equal(kept[row], feasible[row] & (distance[row] <= kth))


class TestPruneCases:
    def test_ties_at_the_kth_distance_are_all_kept(self):
        rows = np.zeros(6, dtype=np.intp)
        cost = np.array([3.0, 1.0, 2.0, 2.0, 2.0, 5.0])
        # k = 2: the 2nd cheapest is 2.0, and all three 2.0 edges tie with it.
        assert k_cheapest_mask(rows, cost, 1, 2).tolist() == [
            False, True, True, True, True, False
        ]

    def test_k_equal_one_keeps_each_rows_minimum_and_its_ties(self):
        rows = np.array([0, 0, 0, 1, 1], dtype=np.intp)
        cost = np.array([0.5, 0.25, 0.25, 4.0, 3.0])
        assert k_cheapest_mask(rows, cost, 2, 1).tolist() == [False, True, True, False, True]

    def test_rows_with_exactly_k_edges_keep_them_all(self):
        rows = np.array([0, 0, 0, 1, 1, 1, 1], dtype=np.intp)
        cost = np.array([9.0, 1.0, 5.0, 4.0, 3.0, 2.0, 8.0])
        assert k_cheapest_mask(rows, cost, 2, 3).tolist() == [
            True, True, True, True, True, True, False
        ]

    def test_no_row_over_k_is_a_no_op(self):
        rows = np.array([0, 2, 2, 3], dtype=np.intp)
        cost = np.array([7.0, 1.0, 6.0, 2.0])
        assert k_cheapest_mask(rows, cost, 4, 2).all()
        assert k_cheapest_mask(np.empty(0, dtype=np.intp), np.empty(0), 3, 3).size == 0

    def test_single_order_batch_keeps_its_nearest_driver_only(self):
        distance = np.array([[2.0, 0.5, 1.0, 0.75]])
        feasible = np.ones_like(distance, dtype=bool)
        assert pruned(distance, feasible).tolist() == [[False, True, False, False]]
