"""Training loop, loss functions and parameter discovery for the NumPy models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.prediction.layers import Layer, Sequential, _ensure_float
from repro.prediction.optim import Adam
from repro.utils.rng import RandomState, default_rng

#: Model inputs are either a single array or a tuple of view arrays.
Inputs = Union[np.ndarray, Tuple[np.ndarray, ...]]


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean-squared-error loss and its gradient w.r.t. the predictions."""
    predictions = _ensure_float(predictions)
    targets = _ensure_float(targets)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"predictions and targets must have the same shape, got "
            f"{predictions.shape} vs {targets.shape}"
        )
    diff = predictions - targets
    loss = float(np.mean(diff**2))
    grad = 2.0 * diff / diff.size
    return loss, grad


def mae_metric(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean absolute error used as the validation metric."""
    return float(np.mean(np.abs(np.asarray(predictions) - np.asarray(targets))))


def collect_parameter_layers(layer: Layer) -> List[Layer]:
    """Recursively gather every sub-layer that owns trainable parameters.

    Composite layers expose their children either through a ``layers``
    attribute (e.g. :class:`~repro.prediction.layers.Sequential`) or a
    ``children()`` method (custom multi-branch networks).
    """
    if isinstance(layer, Sequential):
        result: List[Layer] = []
        for child in layer.layers:
            result.extend(collect_parameter_layers(child))
        return result
    children = getattr(layer, "children", None)
    if callable(children):
        result = []
        for child in children():
            result.extend(collect_parameter_layers(child))
        return result
    if layer.params:
        return [layer]
    return []


def _slice_inputs(inputs: Inputs, indices: np.ndarray) -> Inputs:
    if isinstance(inputs, tuple):
        return tuple(view[indices] for view in inputs)
    return inputs[indices]


def _num_samples(inputs: Inputs) -> int:
    if isinstance(inputs, tuple):
        return inputs[0].shape[0]
    return inputs.shape[0]


def _check_aligned(inputs: Inputs, targets: np.ndarray, what: str) -> None:
    """Raise unless every input view and ``targets`` hold the same sample count."""
    views = inputs if isinstance(inputs, tuple) else (inputs,)
    lengths = [len(view) for view in views]
    if len(set(lengths)) > 1:
        raise ValueError(f"{what} input views differ in length: {lengths}")
    if len(targets) != lengths[0]:
        raise ValueError(
            f"{what} inputs have {lengths[0]} samples but targets have {len(targets)}"
        )


@dataclass
class TrainingHistory:
    """Per-epoch training and validation metrics.

    ``train_loss`` entries are sample-weighted epoch means: each batch
    contributes proportionally to its size, so a final partial batch is no
    longer over-weighted.
    """

    train_loss: List[float] = field(default_factory=list)
    val_mae: List[float] = field(default_factory=list)
    #: Index (0-based) of the epoch whose weights the trainer returned, when
    #: validation was tracked; ``None`` otherwise.
    best_epoch: Optional[int] = None

    @property
    def epochs_run(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)

    @property
    def best_val_mae(self) -> Optional[float]:
        """Validation MAE of the restored epoch (``None`` without validation)."""
        if self.best_epoch is None:
            return None
        return self.val_mae[self.best_epoch]


class Trainer:
    """Mini-batch Adam trainer with optional early stopping on validation MAE.

    When validation data is provided, the parameters achieving the best
    validation MAE are snapshotted and restored before :meth:`fit` returns —
    both on an early stop and when the epoch budget runs out with a worse
    final epoch.  (The seed implementation kept the *last* epoch's weights,
    silently shipping a worse network whenever training had already started
    to overfit.)
    """

    def __init__(
        self,
        network: Layer,
        learning_rate: float = 1e-3,
        epochs: int = 20,
        batch_size: int = 32,
        patience: Optional[int] = 5,
        seed: RandomState = None,
    ) -> None:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.network = network
        self.epochs = epochs
        self.batch_size = batch_size
        self.patience = patience
        self._rng = default_rng(seed)
        parameter_layers = collect_parameter_layers(network)
        if not parameter_layers:
            raise ValueError("the network has no trainable parameters")
        self.optimizer = Adam(parameter_layers, learning_rate=learning_rate)

    def _snapshot_params(self) -> List[dict]:
        return [
            {name: value.copy() for name, value in layer.params.items()}
            for layer in self.optimizer.layers
        ]

    def _restore_params(self, snapshot: List[dict]) -> None:
        # In-place so every reference to the parameter arrays (layers,
        # optimizer moments' shapes, user aliases) stays valid.
        for layer, saved in zip(self.optimizer.layers, snapshot):
            for name, value in layer.params.items():
                value[...] = saved[name]

    def fit(
        self,
        inputs: Inputs,
        targets: np.ndarray,
        val_inputs: Optional[Inputs] = None,
        val_targets: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train the network; returns the per-epoch history.

        With validation data, the returned network carries the weights of
        the best-validation epoch (``history.best_epoch``), not necessarily
        the last one.
        """
        history = TrainingHistory()
        num_samples = _num_samples(inputs)
        if num_samples == 0:
            raise ValueError("cannot train on zero samples")
        targets = np.asarray(targets)
        _check_aligned(inputs, targets, "training")
        if (val_inputs is None) != (val_targets is None):
            raise ValueError("val_inputs and val_targets must be given together")
        if val_inputs is not None:
            val_targets = np.asarray(val_targets)
            _check_aligned(val_inputs, val_targets, "validation")
        best_val = np.inf
        best_snapshot: Optional[List[dict]] = None
        epochs_without_improvement = 0
        for epoch in range(self.epochs):
            order = self._rng.permutation(num_samples)
            epoch_loss = 0.0
            for start in range(0, num_samples, self.batch_size):
                indices = order[start : start + self.batch_size]
                batch_inputs = _slice_inputs(inputs, indices)
                batch_targets = targets[indices]
                predictions = self.network.forward(batch_inputs, training=True)
                loss, grad = mse_loss(predictions, batch_targets)
                self.network.backward(grad)
                self.optimizer.step()
                epoch_loss += loss * len(indices)
            history.train_loss.append(epoch_loss / num_samples)
            if val_inputs is not None:
                predictions = self.network.forward(val_inputs, training=False)
                val_mae = mae_metric(predictions, val_targets)
                history.val_mae.append(val_mae)
                if val_mae < best_val - 1e-9:
                    best_val = val_mae
                    history.best_epoch = epoch
                    best_snapshot = self._snapshot_params()
                    epochs_without_improvement = 0
                elif self.patience is not None:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= self.patience:
                        break
        if best_snapshot is not None and history.best_epoch != history.epochs_run - 1:
            self._restore_params(best_snapshot)
        self._release_buffers()
        return history

    def _release_buffers(self) -> None:
        """Drop per-layer work buffers so idle fitted models stay small."""
        for layer in self.optimizer.layers:
            layer.release_buffers()

    def predict(self, inputs: Inputs, batch_size: Optional[int] = None) -> np.ndarray:
        """Run the network in inference mode, optionally in batches.

        Work buffers are reused across the batches of one call and released
        afterwards, so holding a fitted model does not pin
        inference-batch-sized arrays between calls.
        """
        if batch_size is not None and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        try:
            num_samples = _num_samples(inputs)
            if batch_size is None or num_samples == 0:
                return self.network.forward(inputs, training=False)
            outputs = []
            for start in range(0, num_samples, batch_size):
                indices = np.arange(start, min(start + batch_size, num_samples))
                outputs.append(
                    self.network.forward(_slice_inputs(inputs, indices), training=False)
                )
            return np.concatenate(outputs, axis=0)
        finally:
            self._release_buffers()
