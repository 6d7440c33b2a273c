"""Multilayer-perceptron demand predictor.

The paper's MLP baseline takes the flattened counts of the eight most recent
time slots as input and predicts the full MGrid demand grid through a stack of
fully connected layers (1024-1024-512-512-256-256 units in the paper).  At
laptop scale the same architecture is used with configurable, smaller hidden
widths; the property the experiments rely on — a simple spatially unaware
model with the largest model error of the three — is preserved.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.prediction.base import NeuralDemandPredictor
from repro.prediction.layers import Dense, Flatten, Layer, ReLU, Reshape, Sequential
from repro.prediction.network import Inputs
from repro.utils.rng import RandomState


class MLPPredictor(NeuralDemandPredictor):
    """Fully connected predictor over the flattened closeness window."""

    name = "mlp"

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (128, 128, 64),
        closeness: int = 8,
        epochs: int = 15,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        max_train_samples: int | None = 4096,
        seed: RandomState = None,
    ) -> None:
        if not hidden_sizes:
            raise ValueError("hidden_sizes must contain at least one layer width")
        if any(size <= 0 for size in hidden_sizes):
            raise ValueError("hidden layer widths must be positive")
        super().__init__(
            closeness=closeness,
            period=0,
            trend=0,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            max_train_samples=max_train_samples,
            seed=seed,
        )
        self.hidden_sizes = tuple(int(size) for size in hidden_sizes)

    def build_network(self, resolution: int) -> Layer:
        """Flatten -> Dense/ReLU stack -> Dense -> Reshape to the demand grid."""
        input_size = self.closeness * resolution * resolution
        output_size = resolution * resolution
        layers: list[Layer] = [Flatten()]
        previous = input_size
        for width in self.hidden_sizes:
            layers.append(Dense(previous, width, seed=self._rng))
            layers.append(ReLU())
            previous = width
        layers.append(Dense(previous, output_size, seed=self._rng))
        layers.append(Reshape((resolution, resolution)))
        return Sequential(layers)

    def arrange_inputs(self, views: Dict[str, np.ndarray]) -> Inputs:
        """The MLP consumes only the closeness view."""
        return views["closeness"]
