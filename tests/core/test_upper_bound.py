"""Tests for repro.core.upper_bound (Algorithm 3)."""

import pytest

from repro.core.upper_bound import UpperBoundEvaluator, UpperBoundResult
from repro.prediction.historical import HistoricalAveragePredictor
from repro.prediction.oracle import PerfectPredictor


@pytest.fixture()
def evaluator(tiny_dataset):
    return UpperBoundEvaluator(
        dataset=tiny_dataset,
        model_factory=HistoricalAveragePredictor,
        hgrid_budget=64,
        alpha_slot=16,
    )


class TestUpperBoundResult:
    def test_total_is_sum(self):
        result = UpperBoundResult(
            num_mgrids=16,
            hgrids_per_mgrid=4,
            model_error=3.0,
            expression_error=5.0,
            mae=0.2,
        )
        assert result.total == 8.0
        assert result.mgrid_side == 4


class TestUpperBoundEvaluator:
    def test_evaluate_side_components_positive(self, evaluator):
        result = evaluator.evaluate_side(4)
        assert result.model_error >= 0
        assert result.expression_error >= 0
        assert result.num_mgrids == 16
        assert result.hgrids_per_mgrid == 4

    def test_caching(self, evaluator):
        first = evaluator.evaluate_side(4)
        evaluations_after_first = evaluator.evaluations
        second = evaluator.evaluate_side(4)
        assert first is second
        assert evaluator.evaluations == evaluations_after_first

    def test_call_returns_total(self, evaluator):
        assert evaluator(4) == pytest.approx(evaluator.evaluate_side(4).total)

    def test_evaluate_accepts_perfect_square_n(self, evaluator):
        result = evaluator.evaluate(16)
        assert result.num_mgrids == 16

    def test_evaluate_rejects_non_square_n(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate(15)

    def test_invalid_side_rejected(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate_side(0)

    def test_side_beyond_budget_rejected(self, evaluator):
        """n = 9**2 MGrids cannot fit an N = 64 HGrid budget."""
        with pytest.raises(ValueError, match=r"\[1, 8\]"):
            evaluator.evaluate_side(9)
        assert evaluator.evaluations == 0
        assert evaluator.evaluate_side(8).num_mgrids == 64

    def test_invalid_alpha_slot_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            UpperBoundEvaluator(
                dataset=tiny_dataset,
                model_factory=HistoricalAveragePredictor,
                hgrid_budget=64,
                alpha_slot=99,
            )

    def test_invalid_budget_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            UpperBoundEvaluator(
                dataset=tiny_dataset,
                model_factory=HistoricalAveragePredictor,
                hgrid_budget=63,
            )

    def test_expression_error_zero_when_n_equals_budget(self, evaluator):
        result = evaluator.evaluate_side(8)  # n = 64 = N -> m = 1
        assert result.expression_error == pytest.approx(0.0)

    def test_perfect_model_has_zero_model_error(self, tiny_dataset):
        evaluator = UpperBoundEvaluator(
            dataset=tiny_dataset,
            model_factory=PerfectPredictor,
            hgrid_budget=64,
        )
        result = evaluator.evaluate_side(4)
        assert result.model_error == pytest.approx(0.0, abs=1e-9)
        assert result.mae == pytest.approx(0.0, abs=1e-12)

    def test_expression_error_decreases_with_n_on_aligned_sides(self, evaluator):
        """For sides that divide sqrt(N), expression error decreases in n."""
        coarse = evaluator.evaluate_side(2).expression_error
        medium = evaluator.evaluate_side(4).expression_error
        fine = evaluator.evaluate_side(8).expression_error
        assert coarse >= medium >= fine

    def test_cached_results_exposed(self, evaluator):
        evaluator.evaluate_side(2)
        evaluator.evaluate_side(4)
        cached = evaluator.cached_results()
        assert set(cached) == {2, 4}
