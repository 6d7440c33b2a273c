"""Tests for repro.experiments.case_study (Figures 6-9, Table III machinery)."""

import pytest

from repro.dispatch.entities import DispatchMetrics
from repro.experiments.case_study import (
    run_route_planning,
    run_task_assignment,
    table3_promotion,
)


class TestTaskAssignment:
    def test_polar_points_structure(self, tiny_context):
        points = run_task_assignment(
            tiny_context, "xian_like", "polar", "deepst", sides=[2, 4], surrogate=True
        )
        assert [p.mgrid_side for p in points] == [2, 4]
        for point in points:
            assert 0 <= point.metrics.served_orders <= point.metrics.total_orders
            assert point.metrics.total_revenue >= 0

    def test_ls_reports_revenue(self, tiny_context):
        points = run_task_assignment(
            tiny_context, "xian_like", "ls", "deepst", sides=[4], surrogate=True
        )
        assert points[0].metrics.total_revenue > 0

    def test_real_data_series_supported(self, tiny_context):
        points = run_task_assignment(
            tiny_context, "xian_like", "polar", "real_data", sides=[4]
        )
        assert points[0].metrics.total_orders > 0

    def test_unknown_dispatcher_rejected(self, tiny_context):
        with pytest.raises(ValueError):
            run_task_assignment(
                tiny_context, "xian_like", "taxi_hailing", "deepst", sides=[4]
            )

    def test_metrics_are_pinned(self, tiny_context):
        # Exact values of the tiny xian_like case study; a change to how the
        # engine, fleet or RNG of a run is built moves at least one of them.
        polar = run_task_assignment(
            tiny_context, "xian_like", "polar", "deepst", sides=[2, 4], surrogate=True
        )
        ls = run_task_assignment(
            tiny_context, "xian_like", "ls", "deepst", sides=[4], surrogate=True
        )
        assert [p.metrics for p in polar + ls] == [
            DispatchMetrics(
                served_orders=22,
                total_orders=48,
                total_revenue=168.04432386464552,
                total_travel_km=127.55386519514488,
                unified_cost=257.5538651951449,
                cancelled_orders=16,
            ),
            DispatchMetrics(
                served_orders=24,
                total_orders=48,
                total_revenue=171.87600022272164,
                total_travel_km=126.94515311091337,
                unified_cost=246.94515311091337,
                cancelled_orders=16,
            ),
            DispatchMetrics(
                served_orders=24,
                total_orders=48,
                total_revenue=164.43694050757034,
                total_travel_km=126.86086731016132,
                unified_cost=246.86086731016132,
                cancelled_orders=12,
            ),
        ]

    def test_total_orders_independent_of_side(self, tiny_context):
        points = run_task_assignment(
            tiny_context, "xian_like", "polar", "deepst", sides=[2, 8], surrogate=True
        )
        assert points[0].metrics.total_orders == points[1].metrics.total_orders


class TestRoutePlanning:
    def test_daif_points_structure(self, tiny_context):
        points = run_route_planning(
            tiny_context, "xian_like", "deepst", sides=[2, 4], surrogate=True
        )
        for point in points:
            assert point.metrics.unified_cost >= 0
            assert point.metrics.served_orders <= point.metrics.total_orders

    def test_unified_cost_accounts_for_unserved(self, tiny_context):
        points = run_route_planning(
            tiny_context, "xian_like", "deepst", sides=[4], surrogate=True
        )
        metrics = points[0].metrics
        expected_floor = metrics.total_travel_km
        assert metrics.unified_cost >= expected_floor - 1e-9


class TestTable3:
    def test_promotion_rows_structure(self, tiny_context):
        rows = table3_promotion(
            tiny_context, city="xian_like", model="deepst", sides=[2, 4, 8], surrogate=True
        )
        algorithms = {row.algorithm for row in rows}
        assert algorithms == {"polar", "ls", "daif"}
        for row in rows:
            assert row.optimal_side in {2, 4, 8}
            assert row.original_side in {2, 4, 8}
            # The optimal side is by definition at least as good as the original.
            if row.metric == "unified_cost":
                assert row.optimal_value <= row.original_value + 1e-9
            else:
                assert row.optimal_value >= row.original_value - 1e-9
            assert row.improvement_ratio >= -1e-9

    def test_improvement_ratio_direction_for_cost_metric(self):
        from repro.experiments.case_study import PromotionRow

        row = PromotionRow(
            metric="unified_cost",
            algorithm="daif",
            optimal_side=4,
            original_side=2,
            optimal_value=80.0,
            original_value=100.0,
        )
        assert row.improvement_ratio == pytest.approx(0.2)

    def test_improvement_ratio_zero_division_guard(self):
        from repro.experiments.case_study import PromotionRow

        row = PromotionRow(
            metric="served_orders",
            algorithm="polar",
            optimal_side=4,
            original_side=2,
            optimal_value=10.0,
            original_value=0.0,
        )
        assert row.improvement_ratio == 0.0
