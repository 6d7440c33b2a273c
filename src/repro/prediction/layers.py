"""Minimal NumPy neural-network layers.

The original paper trains its prediction models (MLP, DeepST, DMVST-Net) in
PyTorch on a GPU.  PyTorch is not available in this environment, so the models
are built from these hand-rolled layers: dense, ReLU, 2-D convolution (im2col)
and shape utilities, each with explicit forward/backward passes.  The layers
are deliberately small and dependency-free; gradient correctness is covered by
finite-difference tests in ``tests/prediction/test_layers.py``.

Convolution hot path
--------------------
The seed implementation unfolded images with per-kernel-offset Python loops
(``for dy / for dx``) and scattered gradients back the same way.  The
production path now uses :func:`numpy.lib.stride_tricks.sliding_window_view`
(:func:`_im2col`) with reusable per-layer column/padding buffers, and
``Conv2D.backward`` computes the input gradient as a *gather* correlation —
an unfold of ``grad_output`` against the spatially flipped kernel — instead
of the scatter-add ``col2im``, so the backward pass reuses the same fast
unfold primitive as the forward pass.

The strided unfold produces a column matrix bit-identical to the seed's
loop-based one, so ``columns @ weight`` and therefore every forward output is
bit-identical to the seed.  The seed pipeline itself lives outside the
package, in ``benchmarks/seed_conv.py``: the layer tests compare against it
and ``benchmarks/bench_prediction.py`` times the production engine against
it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.utils.rng import RandomState, default_rng


def _ensure_float(inputs: np.ndarray) -> np.ndarray:
    """View ``inputs`` as a ``float64`` array (no copy when it already is one)."""
    return np.asarray(inputs, dtype=float)


class Layer:
    """Base class: a differentiable transformation with optional parameters."""

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and accumulate parameter gradients."""
        raise NotImplementedError

    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Trainable parameters keyed by name (empty for stateless layers)."""
        return {}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Gradients matching :attr:`params` (populated by :meth:`backward`)."""
        return {}

    def release_buffers(self) -> None:
        """Drop any reusable work buffers (no-op for buffer-less layers).

        Called by the trainer once a fit/predict pass completes so a
        long-lived fitted model does not pin inference-batch-sized arrays.
        """


class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, seed: RandomState = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        rng = default_rng(seed)
        scale = np.sqrt(2.0 / in_features)
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self._grad_weight = np.zeros_like(self.weight)
        self._grad_bias = np.zeros_like(self.bias)
        self._inputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        inputs = _ensure_float(inputs)
        if inputs.ndim != 2 or inputs.shape[1] != self.weight.shape[0]:
            raise ValueError(
                f"Dense expects input of shape (batch, {self.weight.shape[0]}), "
                f"got {inputs.shape}"
            )
        if training:
            self._inputs = inputs
        return inputs @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise RuntimeError("backward called before forward")
        self._grad_weight = self._inputs.T @ grad_output
        self._grad_bias = grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        return {"weight": self._grad_weight, "bias": self._grad_bias}


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        inputs = _ensure_float(inputs)
        mask = inputs > 0
        if training:
            self._mask = mask
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Flatten(Layer):
    """Flatten all axes after the batch axis."""

    def __init__(self) -> None:
        self._input_shape: tuple | None = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        inputs = _ensure_float(inputs)
        if training:
            self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._input_shape)


class Reshape(Layer):
    """Reshape the non-batch axes to ``target_shape``."""

    def __init__(self, target_shape: tuple) -> None:
        self.target_shape = tuple(int(s) for s in target_shape)
        self._input_shape: tuple | None = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        inputs = _ensure_float(inputs)
        if training:
            self._input_shape = inputs.shape
        return inputs.reshape((inputs.shape[0],) + self.target_shape)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._input_shape)


def _im2col(
    inputs: np.ndarray,
    kernel: int,
    pad: int,
    out: Optional[np.ndarray] = None,
    pad_buffer: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unfold (batch, channels, H, W) into (batch, H*W, channels*kernel*kernel).

    Strided production path: the padded image is viewed through
    ``sliding_window_view`` and copied in one vectorised pass into a
    ``(batch, channels, kernel, kernel, H, W)`` buffer — the exact memory
    layout the seed's per-offset loop produced — then returned as the same
    merged ``(batch, H*W, fan_in)`` *view* of that buffer the seed's
    reshape yielded.  Matching the layout, not just the values, matters:
    BLAS kernels select different accumulation paths for different operand
    strides, so only a layout-identical column view keeps the downstream
    ``columns @ weight`` bit-identical to the seed's loop unfold.

    ``out`` (the 6-D buffer) and ``pad_buffer`` let callers reuse
    allocations across training steps; allocation and page-fault churn is
    the dominant cost of the loop path.
    """
    batch, channels, height, width = inputs.shape
    if pad:
        if pad_buffer is None:
            pad_buffer = np.zeros(
                (batch, channels, height + 2 * pad, width + 2 * pad),
                dtype=inputs.dtype,
            )
        else:
            # Only the border needs zeroing; the centre is overwritten below.
            pad_buffer[:, :, :pad, :] = 0.0
            pad_buffer[:, :, -pad:, :] = 0.0
            pad_buffer[:, :, :, :pad] = 0.0
            pad_buffer[:, :, :, -pad:] = 0.0
        pad_buffer[:, :, pad : pad + height, pad : pad + width] = inputs
        padded = pad_buffer
    else:
        padded = inputs
    windows = sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    if out is None:
        out = np.empty(
            (batch, channels, kernel, kernel, height, width), dtype=inputs.dtype
        )
    # windows: (batch, channels, H, W, ky, kx) -> buffer (batch, channels,
    # ky, kx, H, W); for each (ky, kx) plane the reads scan contiguous rows
    # of the padded image, exactly like the reference loop's slice writes.
    np.copyto(out, windows.transpose(0, 1, 4, 5, 2, 3))
    return out.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch, height * width, channels * kernel * kernel
    )


class Conv2D(Layer):
    """Same-padding 2-D convolution over (batch, channels, H, W) inputs.

    The forward pass unfolds the input into a column matrix and multiplies by
    the ``(fan_in, out_channels)`` weight.  The backward pass reduces the
    weight gradient with a single GEMM over the stored columns and computes
    the input gradient as a *gather*: the padded ``grad_output`` is unfolded
    with the same strided primitive and correlated against the spatially
    flipped kernel (mathematically identical to the scatter-add ``col2im``,
    verified by the finite-difference and adjoint tests).  Column and padding
    buffers are reused across calls while shapes match.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        seed: RandomState = None,
    ) -> None:
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if kernel <= 0 or kernel % 2 == 0:
            raise ValueError("kernel must be a positive odd integer")
        rng = default_rng(seed)
        fan_in = in_channels * kernel * kernel
        scale = np.sqrt(2.0 / fan_in)
        self.kernel = kernel
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = rng.normal(0.0, scale, size=(fan_in, out_channels))
        self.bias = np.zeros(out_channels)
        self._grad_weight = np.zeros_like(self.weight)
        self._grad_bias = np.zeros_like(self.bias)
        self._columns: np.ndarray | None = None
        self._input_shape: tuple | None = None
        # Reusable (columns, padding) buffer pairs, one per role: "train"
        # columns survive until the matching backward, "grad" holds the
        # unfolded grad_output, "infer" keeps inference passes (e.g. the
        # per-epoch validation forward) from clobbering pending columns.
        self._buffers: Dict[str, list] = {}

    def _unfold(self, images: np.ndarray, role: str) -> np.ndarray:
        """Buffered strided unfold of ``images`` into the ``role`` buffers."""
        pad = self.kernel // 2
        batch, channels, height, width = images.shape
        col_shape = (batch, channels, self.kernel, self.kernel, height, width)
        pair = self._buffers.setdefault(role, [None, None])
        if pair[0] is None or pair[0].shape != col_shape:
            pair[0] = np.empty(col_shape)
        if pad:
            pad_shape = (batch, channels, height + 2 * pad, width + 2 * pad)
            if pair[1] is None or pair[1].shape != pad_shape:
                pair[1] = np.empty(pad_shape)
        return _im2col(images, self.kernel, pad, out=pair[0], pad_buffer=pair[1])

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        inputs = _ensure_float(inputs)
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects input of shape (batch, {self.in_channels}, H, W), "
                f"got {inputs.shape}"
            )
        columns = self._unfold(inputs, role="train" if training else "infer")
        if training:
            self._columns = columns
            self._input_shape = inputs.shape
        batch, _, height, width = inputs.shape
        output = columns @ self.weight
        output += self.bias
        return output.reshape(batch, height, width, self.out_channels).transpose(
            0, 3, 1, 2
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._columns is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        batch, _, height, width = self._input_shape
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(
            batch, height * width, self.out_channels
        )
        self._grad_bias = grad_flat.sum(axis=(0, 1))
        # The transposed column view (batch, fan_in, H*W) is contiguous (it
        # is the unfold buffer's natural layout), so the weight gradient
        # reduces through one batched GEMM instead of a naive einsum.
        self._grad_weight = np.matmul(
            self._columns.transpose(0, 2, 1), grad_flat
        ).sum(axis=0)
        # Input gradient as a gather: unfold grad_output with the same
        # strided primitive and correlate against the spatially flipped
        # kernel (same-padding makes the adjoint another same-padding
        # correlation); emitting (batch, in_channels, H*W) avoids a final
        # layout transpose.
        flipped_t = (
            self.weight.reshape(
                self.in_channels, self.kernel, self.kernel, self.out_channels
            )[:, ::-1, ::-1, :]
            .transpose(0, 3, 1, 2)
            .reshape(self.in_channels, self.out_channels * self.kernel * self.kernel)
        )
        grad_columns = self._unfold(np.asarray(grad_output), role="grad")
        grad_input = np.matmul(flipped_t, grad_columns.transpose(0, 2, 1))
        return grad_input.reshape(batch, self.in_channels, height, width)

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        return {"weight": self._grad_weight, "bias": self._grad_bias}

    def release_buffers(self) -> None:
        """Free the unfold buffers (and the column view referencing them)."""
        self._buffers = {}
        self._columns = None
        self._input_shape = None


class Sequential(Layer):
    """Chain of layers applied in order."""

    def __init__(self, layers: List[Layer]) -> None:
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        output = inputs
        for layer in self.layers:
            output = layer.forward(output, training=training)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameter_layers(self) -> List[Layer]:
        """Layers that own trainable parameters (recursing into nested containers)."""
        result: List[Layer] = []
        for layer in self.layers:
            if isinstance(layer, Sequential):
                result.extend(layer.parameter_layers())
            elif layer.params:
                result.append(layer)
        return result
