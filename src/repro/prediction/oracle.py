"""Oracle-style predictors used by the case study and the search benchmarks.

Two predictors live here:

* :class:`PerfectPredictor` — returns the *actual* future counts.  The paper's
  case study (Figures 6-9) includes a "real order data" series where the
  dispatchers are fed the true demand; with a perfect predictor the model error
  is zero and the real error reduces to the expression error.
* :class:`NoisyOraclePredictor` — returns the actual counts corrupted by noise
  whose magnitude grows with the grid resolution, mimicking a trained model of
  configurable accuracy.  Table IV requires evaluating the upper bound for
  dozens of (time slot, n) combinations per search algorithm and city; training
  a neural network for every combination is infeasible at laptop scale, so the
  search benchmarks exercise the full OGSS machinery with this surrogate.  The
  substitution is documented in docs/architecture.md §3; the neural models
  remain available for the error-curve experiments (Figures 4-5).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.interfaces import DaySlot, actual_counts_for_targets
from repro.data.dataset import EventDataset
from repro.utils.rng import RandomState, default_rng


class PerfectPredictor:
    """Oracle that predicts the realised future demand exactly."""

    name = "real_data"

    def __init__(self) -> None:
        self._resolution: Optional[int] = None

    def fit(self, dataset: EventDataset, resolution: int) -> None:
        """No training required; records the resolution for sanity checks."""
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self._resolution = resolution

    def predict(
        self, dataset: EventDataset, resolution: int, targets: Sequence[DaySlot]
    ) -> np.ndarray:
        """Return the actual counts of the requested (day, slot) targets."""
        if self._resolution is not None and resolution != self._resolution:
            raise ValueError(
                f"model was fitted at resolution {self._resolution}, "
                f"cannot predict at {resolution}"
            )
        return actual_counts_for_targets(dataset, resolution, targets)


class NoisyOraclePredictor:
    """Surrogate model with controllable accuracy.

    The prediction for a cell with actual count ``c`` is
    ``max(0, c + noise)`` with ``noise ~ Normal(bias, (noise_level * sqrt(c + 1))^2)``.
    Because a finer grid has smaller per-cell counts, the *relative* error grows
    with ``n`` exactly as the paper argues for real models, so the model-error
    term of the upper bound retains its increasing-in-``n`` shape.

    Parameters
    ----------
    noise_level:
        Scale of the heteroscedastic noise; smaller values mimic a more
        accurate model (DMVST-like), larger values a weaker one (MLP-like).
    bias:
        Constant additive bias.
    resolution_exponent:
        How strongly the noise grows with the grid resolution, as
        ``(resolution / reference_resolution) ** resolution_exponent``.  Real
        models degrade on finer grids faster than the pure Poisson floor (the
        per-cell history becomes sparser and harder to fit — paper Figure 4),
        and this factor reproduces that super-linear growth of the total model
        error in ``n``.  Set it to 0 for purely count-proportional noise.
    reference_resolution:
        Resolution at which the noise multiplier equals 1.
    seed:
        Seed of the noise stream (the same seed gives reproducible surrogate
        predictions across candidate ``n`` values).
    """

    name = "noisy_oracle"

    def __init__(
        self,
        noise_level: float = 0.6,
        bias: float = 0.0,
        resolution_exponent: float = 0.75,
        reference_resolution: int = 8,
        seed: RandomState = None,
    ) -> None:
        if noise_level < 0:
            raise ValueError("noise_level must be non-negative")
        if resolution_exponent < 0:
            raise ValueError("resolution_exponent must be non-negative")
        if reference_resolution <= 0:
            raise ValueError("reference_resolution must be positive")
        self.noise_level = noise_level
        self.bias = bias
        self.resolution_exponent = resolution_exponent
        self.reference_resolution = reference_resolution
        self._seed = seed
        self._resolution: Optional[int] = None

    def fit(self, dataset: EventDataset, resolution: int) -> None:
        """No training required; records the resolution for sanity checks."""
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self._resolution = resolution

    def predict(
        self, dataset: EventDataset, resolution: int, targets: Sequence[DaySlot]
    ) -> np.ndarray:
        """Actual counts plus heteroscedastic noise."""
        if self._resolution is not None and resolution != self._resolution:
            raise ValueError(
                f"model was fitted at resolution {self._resolution}, "
                f"cannot predict at {resolution}"
            )
        actual = actual_counts_for_targets(dataset, resolution, targets)
        rng = default_rng(self._seed)
        scale = self.noise_level * (
            resolution / self.reference_resolution
        ) ** self.resolution_exponent
        noise = rng.normal(self.bias, 1.0, size=actual.shape)
        noise = noise * scale * np.sqrt(actual + 1.0)
        return np.maximum(actual + noise, 0.0)
