"""Model-error estimation (Section III-C, Equation 20).

The total model error over all HGrids equals the total MGrid-level expected
absolute error, which the paper estimates as ``n * MAE(f)`` where ``MAE(f)`` is
the model's mean absolute error per (sample, MGrid) pair.  This module provides
the MAE and the ``n * MAE`` shortcut; the per-cell empirical total it
estimates is :func:`repro.core.errors.model_error_total`, and the two agree
by construction when the same evaluation samples are used.
"""

from __future__ import annotations

import numpy as np


def mean_absolute_error(predictions: np.ndarray, actual: np.ndarray) -> float:
    """MAE over all (sample, cell) pairs: ``mean |prediction - actual|``."""
    predictions = np.asarray(predictions, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predictions.shape != actual.shape:
        raise ValueError(
            f"predictions and actual must have the same shape, got "
            f"{predictions.shape} vs {actual.shape}"
        )
    if predictions.size == 0:
        raise ValueError("cannot compute MAE on empty arrays")
    return float(np.abs(predictions - actual).mean())


def total_model_error_from_mae(mae: float, num_mgrids: int) -> float:
    """Equation 20: total model error ``≈ n * MAE(f)``."""
    if mae < 0:
        raise ValueError("MAE must be non-negative")
    if num_mgrids <= 0:
        raise ValueError("num_mgrids must be positive")
    return float(num_mgrids * mae)
