"""Tests for repro.prediction.network (losses, trainer, parameter discovery)."""

import numpy as np
import pytest

from repro.prediction.deepst import ResidualBlock
from repro.prediction.layers import Conv2D, Dense, ReLU, Sequential
from repro.prediction.network import (
    Trainer,
    collect_parameter_layers,
    mae_metric,
    mse_loss,
)


class ConcatNetwork(Sequential):
    """Two-view network: concatenates the views, then runs the dense stack."""

    def forward(self, inputs, training=True):
        merged = np.concatenate(inputs, axis=1)
        return super().forward(merged, training=training)

    def backward(self, grad_output):
        grad = super().backward(grad_output)
        return grad[:, :2], grad[:, 2:]


class TestLosses:
    def test_mse_value_and_gradient(self):
        predictions = np.array([[1.0, 2.0]])
        targets = np.array([[0.0, 4.0]])
        loss, grad = mse_loss(predictions, targets)
        assert loss == pytest.approx((1 + 4) / 2)
        np.testing.assert_allclose(grad, [[1.0, -2.0]])

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_mae_metric(self):
        assert mae_metric(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == 1.5


class TestParameterDiscovery:
    def test_collects_nested_sequential(self):
        network = Sequential(
            [Sequential([Dense(2, 4, seed=0), ReLU()]), Dense(4, 1, seed=1)]
        )
        assert len(collect_parameter_layers(network)) == 2

    def test_collects_children_of_custom_composites(self):
        network = Sequential(
            [Conv2D(1, 4, seed=0), ResidualBlock(4, seed=1), Conv2D(4, 1, kernel=1)]
        )
        layers = collect_parameter_layers(network)
        # conv + (2 convs inside the residual block) + conv
        assert len(layers) == 4

    def test_plain_parameter_layer(self):
        dense = Dense(2, 2)
        assert collect_parameter_layers(dense) == [dense]


class TestTrainer:
    def _make_data(self, n=128, seed=0):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(n, 3))
        targets = inputs @ np.array([[1.0], [-2.0], [0.5]]) + 0.3
        return inputs, targets

    def test_training_reduces_loss(self):
        inputs, targets = self._make_data()
        network = Sequential([Dense(3, 16, seed=1), ReLU(), Dense(16, 1, seed=2)])
        trainer = Trainer(network, learning_rate=5e-3, epochs=30, batch_size=16, seed=0)
        history = trainer.fit(inputs, targets)
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.epochs_run == 30

    def test_early_stopping_on_validation(self):
        inputs, targets = self._make_data()
        network = Sequential([Dense(3, 8, seed=1), ReLU(), Dense(8, 1, seed=2)])
        trainer = Trainer(
            network, learning_rate=1e-2, epochs=100, batch_size=32, patience=2, seed=0
        )
        history = trainer.fit(inputs, targets, inputs, targets)
        assert history.epochs_run <= 100
        assert len(history.val_mae) == history.epochs_run

    def test_tuple_inputs_supported(self):
        rng = np.random.default_rng(3)
        view_a = rng.normal(size=(64, 2))
        view_b = rng.normal(size=(64, 2))
        targets = (view_a + view_b) @ np.array([[1.0], [1.0]])
        network = ConcatNetwork([Dense(4, 8, seed=0), ReLU(), Dense(8, 1, seed=1)])
        trainer = Trainer(network, epochs=10, batch_size=16, seed=0)
        history = trainer.fit((view_a, view_b), targets)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_predict_batched_matches_unbatched(self):
        inputs, targets = self._make_data(64)
        network = Sequential([Dense(3, 4, seed=5), ReLU(), Dense(4, 1, seed=6)])
        trainer = Trainer(network, epochs=2, batch_size=16, seed=0)
        trainer.fit(inputs, targets)
        np.testing.assert_allclose(
            trainer.predict(inputs), trainer.predict(inputs, batch_size=10), atol=1e-12
        )

    def test_invalid_hyperparameters(self):
        network = Sequential([Dense(2, 1)])
        with pytest.raises(ValueError):
            Trainer(network, epochs=0)
        with pytest.raises(ValueError):
            Trainer(network, batch_size=0)

    def test_network_without_parameters_rejected(self):
        with pytest.raises(ValueError):
            Trainer(Sequential([ReLU()]))

    def test_zero_samples_rejected(self):
        network = Sequential([Dense(2, 1)])
        trainer = Trainer(network, epochs=1)
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((0, 2)), np.zeros((0, 1)))

    def test_epoch_loss_is_sample_weighted(self):
        """A partial final batch must not be over-weighted in the epoch mean."""
        rng = np.random.default_rng(7)
        inputs = rng.normal(size=(10, 2))
        targets = rng.normal(size=(10, 1))
        network = Sequential([Dense(2, 1, seed=0)])
        # batch_size 8 -> batches of 8 and 2 samples.
        trainer = Trainer(
            network, learning_rate=1e-12, epochs=1, batch_size=8, seed=0
        )
        # A vanishing learning rate freezes the weights, so the epoch loss
        # must equal the loss of the (fixed) network over the whole set.
        history = trainer.fit(inputs, targets)
        from repro.prediction.network import mse_loss

        expected, _ = mse_loss(network.forward(inputs, training=False), targets)
        assert history.train_loss[0] == pytest.approx(expected, rel=1e-6)



class TestTrainerRejectsMisalignedData:
    """Mismatched arrays must fail loudly instead of training on a subset."""

    @staticmethod
    def _trainer():
        network = Sequential([Dense(2, 4, seed=0), ReLU(), Dense(4, 1, seed=1)])
        return Trainer(network, epochs=1, batch_size=4, seed=0)

    def test_more_targets_than_inputs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="10 samples but targets have 12"):
            self._trainer().fit(rng.normal(size=(10, 2)), rng.normal(size=(12, 1)))

    def test_tuple_views_of_different_lengths_rejected(self):
        rng = np.random.default_rng(1)
        network = ConcatNetwork([Dense(4, 4, seed=0), ReLU(), Dense(4, 1, seed=1)])
        trainer = Trainer(network, epochs=1, batch_size=4, seed=0)
        views = (rng.normal(size=(10, 2)), rng.normal(size=(12, 2)))
        with pytest.raises(ValueError, match="views differ in length"):
            trainer.fit(views, rng.normal(size=(10, 1)))

    def test_misaligned_validation_rejected(self):
        rng = np.random.default_rng(2)
        inputs, targets = rng.normal(size=(8, 2)), rng.normal(size=(8, 1))
        with pytest.raises(ValueError, match="validation inputs have 6 samples"):
            self._trainer().fit(
                inputs, targets, rng.normal(size=(6, 2)), rng.normal(size=(5, 1))
            )

    @pytest.mark.parametrize("given", ["val_inputs", "val_targets"])
    def test_half_given_validation_rejected(self, given):
        rng = np.random.default_rng(3)
        inputs, targets = rng.normal(size=(8, 2)), rng.normal(size=(8, 1))
        validation = {"val_inputs": inputs, "val_targets": targets}
        with pytest.raises(ValueError, match="must be given together"):
            self._trainer().fit(inputs, targets, **{given: validation[given]})

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_nonpositive_predict_batch_size_rejected(self, batch_size):
        rng = np.random.default_rng(4)
        inputs, targets = rng.normal(size=(8, 2)), rng.normal(size=(8, 1))
        trainer = self._trainer()
        trainer.fit(inputs, targets)
        with pytest.raises(ValueError, match="batch_size must be positive"):
            trainer.predict(inputs, batch_size=batch_size)


class TestEarlyStoppingBestWeights:
    """Regression tests: the trainer must return the best-validation weights.

    The seed early-stopped on validation MAE but kept the *last* epoch's
    weights, so every early-stopped predictor was silently worse than its
    reported best.
    """

    def _overfitting_run(self, patience):
        # Tiny training set, large capacity and learning rate: validation
        # MAE on a differently-distributed holdout deteriorates after the
        # first epochs, so the last epoch is reliably worse than the best.
        rng = np.random.default_rng(0)
        train_inputs = rng.normal(size=(24, 4))
        train_targets = rng.normal(size=(24, 1))
        val_inputs = rng.normal(size=(32, 4)) + 1.5
        val_targets = rng.normal(size=(32, 1)) - 1.5
        network = Sequential([Dense(4, 32, seed=1), ReLU(), Dense(32, 1, seed=2)])
        trainer = Trainer(
            network,
            learning_rate=5e-2,
            epochs=40,
            batch_size=8,
            patience=patience,
            seed=0,
        )
        history = trainer.fit(train_inputs, train_targets, val_inputs, val_targets)
        from repro.prediction.network import mae_metric

        returned_mae = mae_metric(
            network.forward(val_inputs, training=False), val_targets
        )
        return history, returned_mae

    def test_early_stop_restores_best_epoch_weights(self):
        history, returned_mae = self._overfitting_run(patience=3)
        assert history.epochs_run < 40  # early stopping actually triggered
        assert history.val_mae[-1] > min(history.val_mae)  # last epoch is worse
        assert returned_mae == min(history.val_mae)
        assert history.best_epoch == int(np.argmin(history.val_mae))
        assert history.best_val_mae == min(history.val_mae)

    def test_exhausted_epochs_also_restore_best(self):
        """Without early stopping, a worse final epoch must still be discarded."""
        history, returned_mae = self._overfitting_run(patience=None)
        assert history.epochs_run == 40
        assert history.val_mae[-1] > min(history.val_mae)
        assert returned_mae == min(history.val_mae)

    def test_best_final_epoch_keeps_last_weights(self):
        """When the last epoch is the best, nothing is restored."""
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(64, 3))
        targets = inputs @ np.array([[1.0], [-1.0], [0.5]])
        network = Sequential([Dense(3, 8, seed=1), ReLU(), Dense(8, 1, seed=2)])
        trainer = Trainer(
            network, learning_rate=1e-3, epochs=5, batch_size=16, seed=0
        )
        history = trainer.fit(inputs, targets, inputs, targets)
        from repro.prediction.network import mae_metric

        returned = mae_metric(network.forward(inputs, training=False), targets)
        assert history.best_epoch == history.epochs_run - 1
        assert returned == history.val_mae[-1]

    def test_no_validation_keeps_last_weights_and_no_best_epoch(self):
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(32, 2))
        targets = rng.normal(size=(32, 1))
        network = Sequential([Dense(2, 1, seed=0)])
        trainer = Trainer(network, epochs=3, batch_size=8, seed=0)
        history = trainer.fit(inputs, targets)
        assert history.best_epoch is None
        assert history.best_val_mae is None


class TestBufferLifecycle:
    def test_fit_and_predict_release_conv_buffers(self):
        rng = np.random.default_rng(0)
        conv = Conv2D(2, 2, kernel=3, seed=0)
        network = Sequential([conv])
        trainer = Trainer(network, epochs=1, batch_size=4, seed=0)
        inputs = rng.normal(size=(8, 2, 5, 5))
        targets = rng.normal(size=(8, 2, 5, 5))
        trainer.fit(inputs, targets)
        assert conv._buffers == {}
        trainer.predict(inputs, batch_size=4)
        assert conv._buffers == {}
