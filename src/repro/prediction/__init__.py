"""Prediction substrate: NumPy reimplementations of the paper's demand models.

PyTorch and a GPU are unavailable in this environment, so the MLP, DeepST and
DMVST-Net prediction models are reimplemented on top of small hand-rolled
NumPy layers (see docs/architecture.md §3 for the substitution rationale).
A historical-average baseline and two oracle-style surrogates complete the
set.
"""

from repro.prediction.layers import (
    Layer,
    Dense,
    ReLU,
    Flatten,
    Reshape,
    Conv2D,
    Sequential,
)
from repro.prediction.optim import SGD, Adam, Optimizer
from repro.prediction.network import (
    Trainer,
    TrainingHistory,
    mse_loss,
    mae_metric,
    collect_parameter_layers,
)
from repro.prediction.base import NeuralDemandPredictor
from repro.prediction.historical import HistoricalAveragePredictor
from repro.prediction.smoothing import ExponentialSmoothingPredictor
from repro.prediction.oracle import NoisyOraclePredictor, PerfectPredictor
from repro.prediction.mlp import MLPPredictor
from repro.prediction.deepst import DeepSTPredictor, ResidualBlock, SqueezeChannel
from repro.prediction.dmvst import DMVSTNetPredictor, MultiViewNetwork
from repro.prediction.registry import (
    available_models,
    create_model,
    model_factory,
    register_model,
    surrogate_factory,
    SURROGATE_NOISE_LEVELS,
)

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Reshape",
    "Conv2D",
    "Sequential",
    "SGD",
    "Adam",
    "Optimizer",
    "Trainer",
    "TrainingHistory",
    "mse_loss",
    "mae_metric",
    "collect_parameter_layers",
    "NeuralDemandPredictor",
    "HistoricalAveragePredictor",
    "ExponentialSmoothingPredictor",
    "NoisyOraclePredictor",
    "PerfectPredictor",
    "MLPPredictor",
    "DeepSTPredictor",
    "ResidualBlock",
    "SqueezeChannel",
    "DMVSTNetPredictor",
    "MultiViewNetwork",
    "available_models",
    "create_model",
    "model_factory",
    "register_model",
    "surrogate_factory",
    "SURROGATE_NOISE_LEVELS",
]
