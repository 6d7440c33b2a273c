"""DMVST-Net-style multi-view demand predictor.

DMVST-Net (Yao et al., AAAI 2018) combines three views of the demand history:
a *spatial* view (local convolutions around each cell), a *temporal* view
(recurrent encoding of each cell's recent series) and a *semantic* view
(similarity between regions with similar temporal patterns).  This NumPy
reimplementation keeps the multi-view structure at laptop scale:

* spatial view — 3x3 convolutions with a residual block over the closeness
  window;
* temporal view — a per-cell (1x1 convolution) encoder over the closeness
  series, playing the role of the LSTM;
* semantic view — a per-cell encoder over the period view (same slot on
  previous days), standing in for the semantic-graph embedding.

The three feature maps are concatenated per cell and fused by a 1x1
convolution.  Using both spatial and temporal information makes it the most
accurate of the three models, matching the ordering reported in the paper.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.prediction.base import NeuralDemandPredictor
from repro.prediction.deepst import ResidualBlock, SqueezeChannel
from repro.prediction.layers import Conv2D, Layer, ReLU, Sequential
from repro.prediction.network import Inputs
from repro.utils.rng import RandomState


class MultiViewNetwork(Layer):
    """Spatial + temporal (+ semantic) branches fused by a 1x1 convolution."""

    def __init__(
        self,
        closeness_channels: int,
        period_channels: int,
        filters: int,
        seed: RandomState = None,
    ) -> None:
        if closeness_channels <= 0:
            raise ValueError("closeness_channels must be positive")
        if period_channels < 0:
            raise ValueError("period_channels must be non-negative")
        if filters <= 0:
            raise ValueError("filters must be positive")
        self.period_channels = period_channels
        self.spatial = Sequential(
            [
                Conv2D(closeness_channels, filters, kernel=3, seed=seed),
                ReLU(),
                ResidualBlock(filters, seed=seed),
                ReLU(),
            ]
        )
        self.temporal = Sequential(
            [Conv2D(closeness_channels, filters, kernel=1, seed=seed), ReLU()]
        )
        branches = 2
        self.semantic: Sequential | None = None
        if period_channels > 0:
            self.semantic = Sequential(
                [Conv2D(period_channels, filters, kernel=1, seed=seed), ReLU()]
            )
            branches = 3
        self.head = Sequential(
            [Conv2D(branches * filters, 1, kernel=1, seed=seed), SqueezeChannel()]
        )
        self._filters = filters
        self._branch_count = branches

    def children(self) -> List[Layer]:
        """Composite sub-networks for parameter discovery."""
        result: List[Layer] = [self.spatial, self.temporal, self.head]
        if self.semantic is not None:
            result.append(self.semantic)
        return result

    def forward(self, inputs: Inputs, training: bool = True) -> np.ndarray:
        closeness, period = self._unpack(inputs)
        features = [
            self.spatial.forward(closeness, training=training),
            self.temporal.forward(closeness, training=training),
        ]
        if self.semantic is not None:
            if period is None:
                raise ValueError("the semantic branch requires a period view")
            features.append(self.semantic.forward(period, training=training))
        fused = np.concatenate(features, axis=1)
        return self.head.forward(fused, training=training)

    def backward(self, grad_output: np.ndarray) -> Inputs:
        grad_fused = self.head.backward(grad_output)
        filters = self._filters
        grad_spatial = self.spatial.backward(grad_fused[:, :filters])
        grad_temporal = self.temporal.backward(grad_fused[:, filters : 2 * filters])
        grad_closeness = grad_spatial + grad_temporal
        if self.semantic is not None:
            grad_period = self.semantic.backward(grad_fused[:, 2 * filters :])
            return grad_closeness, grad_period
        return grad_closeness

    def _unpack(self, inputs: Inputs) -> tuple[np.ndarray, np.ndarray | None]:
        if isinstance(inputs, tuple):
            if len(inputs) != 2:
                raise ValueError("MultiViewNetwork expects (closeness, period) inputs")
            return inputs[0], inputs[1]
        return inputs, None


class DMVSTNetPredictor(NeuralDemandPredictor):
    """Multi-view (spatial + temporal + semantic) demand predictor."""

    name = "dmvst_net"

    def __init__(
        self,
        filters: int = 12,
        closeness: int = 8,
        period: int = 3,
        epochs: int = 12,
        batch_size: int = 16,
        learning_rate: float = 2e-3,
        max_train_samples: int | None = 2048,
        seed: RandomState = None,
    ) -> None:
        if filters <= 0:
            raise ValueError("filters must be positive")
        super().__init__(
            closeness=closeness,
            period=period,
            trend=0,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            max_train_samples=max_train_samples,
            seed=seed,
        )
        self.filters = filters

    def build_network(self, resolution: int) -> Layer:
        """Construct the multi-view fusion network."""
        return MultiViewNetwork(
            closeness_channels=self.closeness,
            period_channels=self.period,
            filters=self.filters,
            seed=self._rng,
        )

    def arrange_inputs(self, views: Dict[str, np.ndarray]) -> Inputs:
        """Return (closeness, period) as separate branch inputs."""
        if self.period > 0:
            return views["closeness"], views["period"]
        return views["closeness"]
