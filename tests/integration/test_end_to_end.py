"""End-to-end integration tests: the full GridTuner pipeline on synthetic cities.

These tests exercise the complete workflow of the paper at tiny scale:
generate a city -> train a model -> compute the upper-bound curve -> search for
the optimal n -> verify the error decomposition -> feed the predictions into
the dispatch case study.
"""

import numpy as np

from repro.core import GridTuner
from repro.core.grid import GridLayout
from repro.core.interfaces import evaluation_targets
from repro.dispatch import (
    POLARDispatcher,
    PredictedDemandProvider,
    TaskAssignmentSimulator,
    TravelModel,
    orders_from_events,
    spawn_drivers,
)
from repro.prediction import (
    DeepSTPredictor,
    HistoricalAveragePredictor,
    model_factory,
    surrogate_factory,
)

from tests.dispatch.test_engine_equivalence import assert_fleet_matches, run_vector


class TestFullTuningPipeline:
    def test_quickstart_workflow(self, xian_dataset):
        """The README quickstart: tune the grid size with the iterative method."""
        tuner = GridTuner(
            xian_dataset, HistoricalAveragePredictor, hgrid_budget=16 * 16
        )
        result = tuner.select("iterative", min_side=2, initial_side=8, bound=2)
        assert 2 <= result.optimal_side <= 16
        report = tuner.evaluate_real_error(result.optimal_side)
        assert report.satisfies_upper_bound()

    def test_upper_bound_curve_has_interior_minimum_with_noisy_model(self, nyc_dataset):
        """With a realistically noisy model on a concentrated city the upper
        bound falls then rises (the paper's key qualitative claim)."""
        tuner = GridTuner(
            nyc_dataset,
            surrogate_factory("mlp", seed=3),
            hgrid_budget=16 * 16,
        )
        curve = tuner.error_curve([2, 4, 8, 16])
        totals = [curve[side].total for side in (2, 4, 8, 16)]
        best_index = int(np.argmin(totals))
        assert totals[0] > min(totals)  # coarser than optimal is worse
        assert best_index < 3 or totals[3] <= min(totals) * 1.05

    def test_neural_model_end_to_end(self, xian_dataset):
        """A real (NumPy) neural model can be tuned end to end."""
        factory = lambda: DeepSTPredictor(
            filters=4, period=1, epochs=3, max_train_samples=96, seed=0
        )
        tuner = GridTuner(xian_dataset, factory, hgrid_budget=64)
        curve = tuner.error_curve([2, 4, 8])
        assert all(result.total > 0 for result in curve.values())
        report = tuner.evaluate_real_error(4)
        assert report.satisfies_upper_bound()

    def test_search_algorithms_close_to_brute_force(self, xian_dataset):
        tuner = GridTuner(
            xian_dataset, surrogate_factory("deepst", seed=1), hgrid_budget=16 * 16
        )
        brute = tuner.select("brute_force", min_side=2)
        ternary = tuner.select("ternary", min_side=2)
        iterative = tuner.select("iterative", min_side=2, initial_side=8, bound=3)
        # Optimal ratio of the sub-optimal searches (paper: >= 97%).
        assert brute.upper_bound.total <= ternary.upper_bound.total
        assert ternary.upper_bound.total <= brute.upper_bound.total * 1.25
        assert iterative.upper_bound.total <= brute.upper_bound.total * 1.25


class TestPredictionToDispatchPipeline:
    def test_tuned_predictions_drive_the_dispatcher(self, xian_dataset):
        tuner = GridTuner(
            xian_dataset, HistoricalAveragePredictor, hgrid_budget=16 * 16
        )
        side = 4
        layout = tuner.layout_for(side)
        assert isinstance(layout, GridLayout)
        test_days = list(xian_dataset.split.test_days)
        predictions = tuner.predicted_demand(side, test_days)
        targets = [(0, slot) for _, slot in evaluation_targets(xian_dataset, test_days)]
        provider = PredictedDemandProvider(layout, predictions, targets)

        events = xian_dataset.test_events()
        orders = orders_from_events(events, day=0, slots=[16, 17], seed=0)
        travel = TravelModel.for_city(xian_dataset.city)
        drivers = spawn_drivers(
            max(5, len(orders) // 6), np.random.default_rng(0),
            demand_grid=provider.hgrid_demand(0, 16),
        )
        metrics, fleet = run_vector(
            POLARDispatcher(), travel, orders, drivers, 0, slots=[16, 17], demand=provider
        )
        simulator = TaskAssignmentSimulator(
            POLARDispatcher(), travel, demand=provider, seed=0
        )
        assert simulator.run(orders, drivers, day=0, slots=[16, 17]) == metrics
        assert_fleet_matches(drivers, fleet)
        assert metrics.total_orders == len(orders)
        assert 0 < metrics.served_orders <= metrics.total_orders
        assert metrics.total_revenue > 0

    def test_model_registry_round_trip(self, xian_dataset):
        """Every registered trainable model can run the core tuning loop."""
        for name in ("historical_average", "real_data"):
            tuner = GridTuner(xian_dataset, model_factory(name), hgrid_budget=64)
            result = tuner.evaluator.evaluate_side(4)
            assert result.total >= 0
