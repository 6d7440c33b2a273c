"""Tests for repro.core.model_error (Equation 20)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.errors import model_error_total
from repro.core.grid import GridLayout
from repro.core.model_error import mean_absolute_error, total_model_error_from_mae


def _total(predictions, actual):
    """Empirical total model error of MGrid-level arrays (one HGrid per MGrid)."""
    side = np.asarray(predictions).shape[-1]
    return model_error_total(predictions, actual, GridLayout(side * side, 1))


class TestMeanAbsoluteError:
    def test_known_value(self):
        assert mean_absolute_error(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == 1.5

    def test_zero_for_perfect_prediction(self):
        values = np.random.default_rng(0).random((3, 4))
        assert mean_absolute_error(values, values) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.array([]), np.array([]))


class TestTotalModelError:
    def test_equation_20_consistency(self):
        """The empirical total equals n * MAE on the same evaluation samples."""
        rng = np.random.default_rng(1)
        predictions = rng.random((10, 4, 4)) * 20
        actual = rng.random((10, 4, 4)) * 20
        mae = mean_absolute_error(predictions, actual)
        assert _total(predictions, actual) == pytest.approx(
            total_model_error_from_mae(mae, 16)
        )

    def test_accepts_2d_input(self):
        predictions = np.ones((2, 2))
        actual = np.zeros((2, 2))
        assert _total(predictions, actual) == pytest.approx(4.0)

    def test_from_mae_validation(self):
        with pytest.raises(ValueError):
            total_model_error_from_mae(-0.1, 4)
        with pytest.raises(ValueError):
            total_model_error_from_mae(0.5, 0)

    @given(
        arrays(dtype=float, shape=(5, 3, 3), elements=st.floats(0, 100)),
        arrays(dtype=float, shape=(5, 3, 3), elements=st.floats(0, 100)),
    )
    @settings(max_examples=40, deadline=None)
    def test_non_negative_and_symmetric(self, a, b):
        assert _total(a, b) >= 0.0
        assert _total(a, b) == pytest.approx(_total(b, a))

