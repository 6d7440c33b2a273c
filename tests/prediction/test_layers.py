"""Tests for repro.prediction.layers, including finite-difference gradient checks.

The seed's conv pipeline, the reference the production ``Conv2D`` is checked
against, lives in ``benchmarks/seed_conv.py``.
"""

import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.prediction.deepst import DeepSTPredictor
from repro.prediction.dmvst import DMVSTNetPredictor
from repro.prediction.layers import (
    Conv2D,
    Dense,
    Flatten,
    ReLU,
    Reshape,
    Sequential,
    _im2col,
)

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from seed_conv import (  # noqa: E402
    _col2im_loops,
    _im2col_loops,
    conv_layers,
    loop_unfold,
    seed_mode,
)


def numerical_gradient(function, array, epsilon=1e-6):
    """Central-difference gradient of a scalar function w.r.t. ``array``."""
    gradient = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = gradient.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function()
        flat[index] = original - epsilon
        lower = function()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


class TestDense:
    def test_forward_shape_and_value(self):
        layer = Dense(3, 2, seed=0)
        layer.weight[:] = np.arange(6).reshape(3, 2)
        layer.bias[:] = [1.0, -1.0]
        output = layer.forward(np.array([[1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(output, [[1 + 0 + 8, -1 + 1 + 0 + 10]])

    def test_invalid_input_shape(self):
        with pytest.raises(ValueError):
            Dense(3, 2).forward(np.zeros((1, 4)))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Dense(0, 2)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2).backward(np.zeros((1, 2)))

    def test_gradient_check(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, seed=1)
        inputs = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss():
            return 0.5 * np.sum((layer.forward(inputs) - target) ** 2)

        output = layer.forward(inputs)
        grad_out = output - target
        grad_in = layer.backward(grad_out)

        np.testing.assert_allclose(
            layer.grads["weight"], numerical_gradient(loss, layer.weight), atol=1e-5
        )
        np.testing.assert_allclose(
            layer.grads["bias"], numerical_gradient(loss, layer.bias), atol=1e-5
        )
        numerical_input_grad = numerical_gradient(loss, inputs)
        np.testing.assert_allclose(grad_in, numerical_input_grad, atol=1e-5)


class TestReLU:
    def test_forward_clamps_negative(self):
        output = ReLU().forward(np.array([[-1.0, 2.0, 0.0]]))
        np.testing.assert_allclose(output, [[0.0, 2.0, 0.0]])

    def test_backward_masks_gradient(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_allclose(grad, [[0.0, 5.0]])

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros((1, 2)))


class TestShapeLayers:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        inputs = np.arange(24, dtype=float).reshape(2, 3, 4)
        flat = layer.forward(inputs)
        assert flat.shape == (2, 12)
        restored = layer.backward(flat)
        assert restored.shape == inputs.shape

    def test_reshape_roundtrip(self):
        layer = Reshape((3, 4))
        inputs = np.arange(24, dtype=float).reshape(2, 12)
        shaped = layer.forward(inputs)
        assert shaped.shape == (2, 3, 4)
        assert layer.backward(shaped).shape == (2, 12)


class TestConv2D:
    def test_forward_shape(self):
        layer = Conv2D(2, 3, kernel=3, seed=0)
        output = layer.forward(np.random.default_rng(0).normal(size=(4, 2, 5, 5)))
        assert output.shape == (4, 3, 5, 5)

    def test_identity_kernel(self):
        layer = Conv2D(1, 1, kernel=3, seed=0)
        layer.weight[:] = 0.0
        layer.weight[4, 0] = 1.0  # centre tap of the single 3x3 kernel
        layer.bias[:] = 0.0
        inputs = np.random.default_rng(1).normal(size=(2, 1, 6, 6))
        np.testing.assert_allclose(layer.forward(inputs), inputs, atol=1e-12)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, kernel=2)

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            Conv2D(0, 1)

    def test_wrong_input_channels(self):
        with pytest.raises(ValueError):
            Conv2D(2, 1).forward(np.zeros((1, 3, 4, 4)))

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        layer = Conv2D(2, 2, kernel=3, seed=3)
        inputs = rng.normal(size=(2, 2, 4, 4))
        target = rng.normal(size=(2, 2, 4, 4))

        def loss():
            return 0.5 * np.sum((layer.forward(inputs) - target) ** 2)

        output = layer.forward(inputs)
        grad_out = output - target
        grad_in = layer.backward(grad_out)

        np.testing.assert_allclose(
            layer.grads["weight"], numerical_gradient(loss, layer.weight), atol=1e-4
        )
        np.testing.assert_allclose(
            layer.grads["bias"], numerical_gradient(loss, layer.bias), atol=1e-4
        )
        np.testing.assert_allclose(grad_in, numerical_gradient(loss, inputs), atol=1e-4)


class TestUnfoldEquivalence:
    """The strided unfold must reproduce the seed's loop unfold bit-for-bit."""

    SHAPES = [
        (2, 3, 5, 7, 3),
        (1, 1, 4, 4, 1),
        (3, 5, 8, 8, 5),
        (2, 2, 6, 5, 3),
        (4, 10, 16, 16, 3),
    ]

    def test_im2col_bit_identical_on_random_shapes(self):
        rng = np.random.default_rng(0)
        for batch, channels, height, width, kernel in self.SHAPES:
            inputs = rng.normal(size=(batch, channels, height, width))
            pad = kernel // 2
            loops = _im2col_loops(inputs, kernel, pad)
            strided = _im2col(inputs, kernel, pad)
            assert (loops == strided).all(), (batch, channels, height, width, kernel)
            # Layout-identical too: the downstream matmul must hit the same
            # BLAS code path, or "same values" stops implying "same bits".
            assert loops.strides == strided.strides

    def test_im2col_reuses_caller_buffers(self):
        rng = np.random.default_rng(1)
        inputs = rng.normal(size=(2, 3, 6, 6))
        out = np.empty((2, 3, 3, 3, 6, 6))
        pad_buffer = np.empty((2, 3, 8, 8))
        first = _im2col(inputs, 3, 1, out=out, pad_buffer=pad_buffer)
        assert first.base is not None  # a view over the caller's buffer
        assert (first == _im2col_loops(inputs, 3, 1)).all()
        # A second call overwrites the same storage with the new unfold.
        other = rng.normal(size=(2, 3, 6, 6))
        second = _im2col(other, 3, 1, out=out, pad_buffer=pad_buffer)
        assert (second == _im2col_loops(other, 3, 1)).all()

    def test_col2im_is_the_adjoint_of_im2col(self):
        """<col2im(c), x> == <c, im2col(x)> for random operands."""
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(2, 3, 5, 5))
        columns = rng.normal(size=(2, 25, 27))
        lhs = np.sum(_col2im_loops(columns, inputs.shape, 3, 1) * inputs)
        rhs = np.sum(columns * _im2col(inputs, 3, 1))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_conv_forward_identical_across_unfold_modes(self):
        rng = np.random.default_rng(4)
        layer = Conv2D(3, 5, kernel=3, seed=7)
        inputs = rng.normal(size=(4, 3, 8, 8))
        production = layer.forward(inputs, training=False)
        with loop_unfold(layer):
            loops = layer.forward(inputs, training=False)
        assert (production == loops).all()

    def test_conv_forward_identical_to_seed_mode(self):
        rng = np.random.default_rng(5)
        layer = Conv2D(2, 4, kernel=3, seed=8)
        inputs = rng.normal(size=(3, 2, 7, 6))
        production = layer.forward(inputs, training=False)
        with seed_mode(layer):
            seed = layer.forward(inputs, training=False)
        assert (production == seed).all()

    def test_backward_modes_agree_to_float_precision(self):
        """The GEMM/gather backward computes the same sums as the seed's."""
        rng = np.random.default_rng(6)
        inputs = rng.normal(size=(3, 4, 6, 6))
        grad = rng.normal(size=(3, 5, 6, 6))

        def run(context):
            layer = Conv2D(4, 5, kernel=3, seed=9)
            with context(layer):
                layer.forward(inputs)
                grad_in = layer.backward(grad)
            return grad_in, layer.grads["weight"].copy(), layer.grads["bias"].copy()

        production = run(nullcontext)
        seed = run(seed_mode)
        np.testing.assert_allclose(production[0], seed[0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(production[1], seed[1], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(production[2], seed[2], rtol=1e-10, atol=1e-12)

    def test_inference_forward_does_not_clobber_pending_backward(self):
        """A training=False pass between forward and backward is harmless."""
        rng = np.random.default_rng(7)
        inputs = rng.normal(size=(2, 3, 5, 5))
        other = rng.normal(size=(4, 3, 5, 5))
        grad = rng.normal(size=(2, 2, 5, 5))

        reference = Conv2D(3, 2, kernel=3, seed=11)
        reference.forward(inputs)
        reference.backward(grad)

        layer = Conv2D(3, 2, kernel=3, seed=11)
        layer.forward(inputs)
        layer.forward(other, training=False)  # e.g. a validation pass
        layer.backward(grad)
        assert (layer.grads["weight"] == reference.grads["weight"]).all()

    def test_buffers_track_shape_changes(self):
        rng = np.random.default_rng(8)
        layer = Conv2D(2, 3, kernel=3, seed=12)
        small = rng.normal(size=(2, 2, 4, 4))
        large = rng.normal(size=(5, 2, 6, 6))
        with loop_unfold(layer):
            expected_small = layer.forward(small, training=False)
            expected_large = layer.forward(large, training=False)
        assert (layer.forward(small, training=False) == expected_small).all()
        assert (layer.forward(large, training=False) == expected_large).all()
        assert (layer.forward(small, training=False) == expected_small).all()

    def test_gradient_check_kernel_one(self):
        rng = np.random.default_rng(10)
        layer = Conv2D(3, 2, kernel=1, seed=14)
        inputs = rng.normal(size=(2, 3, 4, 4))
        target = rng.normal(size=(2, 2, 4, 4))

        def loss():
            return 0.5 * np.sum((layer.forward(inputs) - target) ** 2)

        output = layer.forward(inputs)
        grad_in = layer.backward(output - target)
        np.testing.assert_allclose(
            layer.grads["weight"], numerical_gradient(loss, layer.weight), atol=1e-4
        )
        np.testing.assert_allclose(grad_in, numerical_gradient(loss, inputs), atol=1e-4)


class TestSeedOracleScope:
    """The seed pipeline is rebound on one network's instances, nothing else."""

    @staticmethod
    def _deepst(seed=0):
        return DeepSTPredictor(filters=4, closeness=3, period=1, seed=seed).build_network(6)

    @pytest.mark.parametrize("context", [loop_unfold, seed_mode])
    def test_reaches_every_conv_and_restores_it(self, context):
        deepst = self._deepst()
        dmvst = DMVSTNetPredictor(filters=4, closeness=3, period=1, seed=0).build_network(6)
        for network, expected in ((deepst, 4), (dmvst, 6)):
            with context(network) as convs:
                assert len(convs) == expected
                assert all("_unfold" in vars(conv) for conv in convs)
            assert not any("_unfold" in vars(conv) for conv in conv_layers(network))
            assert not any("backward" in vars(conv) for conv in conv_layers(network))

    def test_network_beside_the_oracle_runs_the_production_path(self):
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(3, 4, 6, 6))
        grad = rng.normal(size=(3, 6, 6))

        def forward_backward(network):
            output = network.forward(inputs)
            network.backward(grad)
            return output, [conv.grads["weight"].copy() for conv in conv_layers(network)]

        expected_output, expected_grads = forward_backward(self._deepst())
        oracle, beside = self._deepst(), self._deepst()
        with seed_mode(oracle):
            forward_backward(oracle)
            output, grads = forward_backward(beside)
        assert (output == expected_output).all()
        for got, want in zip(grads, expected_grads):
            assert (got == want).all()
        # Only the production unfold fills the per-layer buffers.
        assert all(conv._buffers for conv in conv_layers(beside))
        assert not any(conv._buffers for conv in conv_layers(oracle))


class TestSequential:
    def test_forward_backward_chain(self):
        network = Sequential([Dense(4, 8, seed=0), ReLU(), Dense(8, 2, seed=1)])
        inputs = np.random.default_rng(0).normal(size=(3, 4))
        output = network.forward(inputs)
        assert output.shape == (3, 2)
        grad = network.backward(np.ones_like(output))
        assert grad.shape == inputs.shape

    def test_parameter_layers_discovery(self):
        inner = Sequential([Dense(2, 2, seed=0), ReLU()])
        outer = Sequential([inner, Dense(2, 1, seed=1)])
        assert len(outer.parameter_layers()) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_gradient_check_through_network(self):
        rng = np.random.default_rng(4)
        network = Sequential([Dense(3, 5, seed=5), ReLU(), Dense(5, 2, seed=6)])
        inputs = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss():
            return 0.5 * np.sum((network.forward(inputs) - target) ** 2)

        output = network.forward(inputs)
        network.backward(output - target)
        first_dense = network.layers[0]
        np.testing.assert_allclose(
            first_dense.grads["weight"],
            numerical_gradient(loss, first_dense.weight),
            atol=1e-5,
        )
