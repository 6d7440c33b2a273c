"""Shared scaffolding for the demand predictors.

:class:`NeuralDemandPredictor` implements the :class:`~repro.core.interfaces.DemandPredictor`
protocol generically: it builds supervised samples from an
:class:`~repro.data.dataset.EventDataset`, normalises counts, trains a NumPy
network and reconstructs the history views needed at prediction time.  The
concrete models (MLP, DeepST, DMVST-Net) only specify their network
architecture and how the history views are arranged into network inputs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.interfaces import DaySlot
from repro.data.dataset import EventDataset
from repro.prediction.layers import Layer
from repro.prediction.network import Inputs, Trainer, TrainingHistory
from repro.utils.rng import RandomState, default_rng, spawn_rng


class NeuralDemandPredictor(ABC):
    """Base class turning a NumPy network into a grid-demand predictor.

    Parameters
    ----------
    closeness, period, trend:
        History views (number of recent slots, of same-slot previous days and
        of same-slot previous weeks) fed to the model.
    epochs, batch_size, learning_rate, patience:
        Training hyper-parameters.
    max_train_samples:
        Training samples are subsampled to this cap; ``None`` uses
        everything.  The default is generous now that the conv hot path is
        vectorised — the seed capped at 512 to stay usable on a laptop.

    Determinism
    -----------
    Three independent random streams are spawned from ``seed`` at
    construction: one for training-set subsampling, one for network weight
    initialisation (``self._rng``, consumed by :meth:`build_network`) and one
    for the trainer's shuffling.  Splitting them means changing
    ``max_train_samples`` — or whether subsampling triggers at all — cannot
    silently shift the weight-init or shuffle streams (in the seed, all three
    drew from one stream, so any subsampling change perturbed everything
    downstream).
    """

    name = "neural"

    def __init__(
        self,
        closeness: int = 8,
        period: int = 0,
        trend: int = 0,
        epochs: int = 15,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        patience: Optional[int] = 4,
        max_train_samples: Optional[int] = 4096,
        seed: RandomState = None,
    ) -> None:
        if closeness <= 0:
            raise ValueError("closeness must be >= 1")
        if period < 0 or trend < 0:
            raise ValueError("period and trend must be >= 0")
        self.closeness = closeness
        self.period = period
        self.trend = trend
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.patience = patience
        self.max_train_samples = max_train_samples
        self._seed = seed
        self._subsample_rng, self._rng, self._trainer_rng = spawn_rng(
            default_rng(seed), 3
        )
        self._trainer: Optional[Trainer] = None
        self._history: Optional[TrainingHistory] = None
        self._scale: float = 1.0
        self._resolution: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Abstract hooks
    # ------------------------------------------------------------------ #

    @abstractmethod
    def build_network(self, resolution: int) -> Layer:
        """Construct the untrained network for a given MGrid resolution."""

    @abstractmethod
    def arrange_inputs(self, views: Dict[str, np.ndarray]) -> Inputs:
        """Arrange the raw history views into the network's input format."""

    # ------------------------------------------------------------------ #
    # DemandPredictor protocol
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has completed."""
        return self._trainer is not None

    @property
    def training_history(self) -> Optional[TrainingHistory]:
        """Per-epoch metrics of the last :meth:`fit` call."""
        return self._history

    def fit(self, dataset: EventDataset, resolution: int) -> None:
        """Train the model to predict ``resolution x resolution`` MGrid counts."""
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        views, targets = dataset.supervised_samples(
            resolution,
            dataset.split.train_days,
            closeness=self.closeness,
            period=self.period,
            trend=self.trend,
        )
        views, targets = self._subsample(views, targets)
        self._scale = max(float(targets.max()), 1.0)
        scaled_views = {name: view / self._scale for name, view in views.items()}
        scaled_targets = targets / self._scale

        network = self.build_network(resolution)
        self._trainer = Trainer(
            network,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            patience=self.patience,
            seed=self._trainer_rng,
        )
        val_views, val_targets = self._validation_samples(dataset, resolution)
        inputs = self.arrange_inputs(scaled_views)
        if val_views is not None and val_targets is not None:
            val_inputs = self.arrange_inputs(
                {name: view / self._scale for name, view in val_views.items()}
            )
            self._history = self._trainer.fit(
                inputs, scaled_targets, val_inputs, val_targets / self._scale
            )
        else:
            self._history = self._trainer.fit(inputs, scaled_targets)
        self._resolution = resolution

    def predict(
        self, dataset: EventDataset, resolution: int, targets: Sequence[DaySlot]
    ) -> np.ndarray:
        """Predict the demand grid for each (day, slot) target."""
        if self._trainer is None:
            raise RuntimeError("predict called before fit")
        if resolution != self._resolution:
            raise ValueError(
                f"model was fitted at resolution {self._resolution}, "
                f"cannot predict at {resolution}"
            )
        views = self._views_for_targets(dataset, resolution, targets)
        inputs = self.arrange_inputs(
            {name: view / self._scale for name, view in views.items()}
        )
        predictions = self._trainer.predict(inputs, batch_size=256) * self._scale
        return np.maximum(predictions, 0.0)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _subsample(
        self, views: Dict[str, np.ndarray], targets: np.ndarray
    ) -> tuple[Dict[str, np.ndarray], np.ndarray]:
        if self.max_train_samples is None or len(targets) <= self.max_train_samples:
            return views, targets
        indices = self._subsample_rng.choice(
            len(targets), size=self.max_train_samples, replace=False
        )
        indices.sort()
        return {name: view[indices] for name, view in views.items()}, targets[indices]

    def _validation_samples(
        self, dataset: EventDataset, resolution: int
    ) -> tuple[Optional[Dict[str, np.ndarray]], Optional[np.ndarray]]:
        if not dataset.split.val_days:
            return None, None
        try:
            return dataset.supervised_samples(
                resolution,
                dataset.split.val_days,
                closeness=self.closeness,
                period=self.period,
                trend=self.trend,
            )
        except ValueError:
            return None, None

    def _views_for_targets(
        self, dataset: EventDataset, resolution: int, targets: Sequence[DaySlot]
    ) -> Dict[str, np.ndarray]:
        """History views for arbitrary (day, slot) targets, clamping early history."""
        counts = dataset.counts(resolution)
        slots = dataset.slots_per_day
        flat = counts.reshape(-1, resolution, resolution)
        total = flat.shape[0]
        closeness_list, period_list, trend_list = [], [], []
        for day, slot in targets:
            t = int(day) * slots + int(slot)
            if not 0 <= t < total:
                raise ValueError(f"target ({day}, {slot}) outside the dataset range")
            closeness_idx = np.clip(np.arange(t - self.closeness, t), 0, total - 1)
            closeness_list.append(flat[closeness_idx])
            if self.period > 0:
                idx = np.clip(
                    [t - slots * p for p in range(self.period, 0, -1)], 0, total - 1
                )
                period_list.append(flat[idx])
            if self.trend > 0:
                idx = np.clip(
                    [t - slots * 7 * q for q in range(self.trend, 0, -1)], 0, total - 1
                )
                trend_list.append(flat[idx])
        views: Dict[str, np.ndarray] = {"closeness": np.stack(closeness_list)}
        if self.period > 0:
            views["period"] = np.stack(period_list)
        if self.trend > 0:
            views["trend"] = np.stack(trend_list)
        return views
