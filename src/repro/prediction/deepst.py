"""DeepST-style convolutional demand predictor.

DeepST (Zhang et al., AAAI 2017) feeds three temporal views — *closeness*
(recent slots), *period* (same slot on previous days) and *trend* (same slot on
previous weeks) — through convolutional residual units and fuses them into the
next-slot demand grid.  This NumPy reimplementation stacks the views as input
channels and applies convolutional residual blocks; the residual structure and
the three-view input are retained, while the depth/width are scaled to run on a
laptop.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.prediction.base import NeuralDemandPredictor
from repro.prediction.layers import Conv2D, Layer, ReLU, Sequential
from repro.prediction.network import Inputs
from repro.utils.rng import RandomState


class ResidualBlock(Layer):
    """Two 3x3 convolutions with a ReLU in between and an identity skip."""

    def __init__(self, channels: int, seed: RandomState = None) -> None:
        if channels <= 0:
            raise ValueError("channels must be positive")
        self.conv1 = Conv2D(channels, channels, kernel=3, seed=seed)
        self.activation = ReLU()
        self.conv2 = Conv2D(channels, channels, kernel=3, seed=seed)

    def children(self) -> List[Layer]:
        """Sub-layers owning parameters (used by the trainer's parameter discovery)."""
        return [self.conv1, self.conv2]

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        hidden = self.conv1.forward(inputs, training=training)
        hidden = self.activation.forward(hidden, training=training)
        hidden = self.conv2.forward(hidden, training=training)
        return inputs + hidden

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_hidden = self.conv2.backward(grad_output)
        grad_hidden = self.activation.backward(grad_hidden)
        grad_hidden = self.conv1.backward(grad_hidden)
        return grad_output + grad_hidden


class SqueezeChannel(Layer):
    """Drop a singleton channel axis: (batch, 1, H, W) -> (batch, H, W)."""

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != 1:
            raise ValueError(f"expected a single-channel 4-D input, got {inputs.shape}")
        return inputs[:, 0]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output[:, None]


class DeepSTPredictor(NeuralDemandPredictor):
    """Convolutional residual predictor over closeness / period / trend views."""

    name = "deepst"

    def __init__(
        self,
        filters: int = 12,
        residual_blocks: int = 1,
        closeness: int = 8,
        period: int = 2,
        trend: int = 0,
        epochs: int = 12,
        batch_size: int = 16,
        learning_rate: float = 2e-3,
        max_train_samples: int | None = 2048,
        seed: RandomState = None,
    ) -> None:
        if filters <= 0:
            raise ValueError("filters must be positive")
        if residual_blocks < 0:
            raise ValueError("residual_blocks must be non-negative")
        super().__init__(
            closeness=closeness,
            period=period,
            trend=trend,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            max_train_samples=max_train_samples,
            seed=seed,
        )
        self.filters = filters
        self.residual_blocks = residual_blocks

    def build_network(self, resolution: int) -> Layer:
        """Conv -> residual blocks -> 1x1 conv to the single-channel demand grid."""
        in_channels = self.closeness + self.period + self.trend
        layers: list[Layer] = [
            Conv2D(in_channels, self.filters, kernel=3, seed=self._rng),
            ReLU(),
        ]
        for _ in range(self.residual_blocks):
            layers.append(ResidualBlock(self.filters, seed=self._rng))
            layers.append(ReLU())
        layers.append(Conv2D(self.filters, 1, kernel=1, seed=self._rng))
        layers.append(SqueezeChannel())
        return Sequential(layers)

    def arrange_inputs(self, views: Dict[str, np.ndarray]) -> Inputs:
        """Stack the temporal views along the channel axis."""
        pieces = [views["closeness"]]
        if "period" in views:
            pieces.append(views["period"])
        if "trend" in views:
            pieces.append(views["trend"])
        return np.concatenate(pieces, axis=1)
