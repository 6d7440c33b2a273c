"""The seed's convolution pipeline, kept as a reference oracle for ``Conv2D``.

The seed unfolded images with per-kernel-offset Python loops and computed
the backward pass with an einsum weight reduction plus a scatter-add
``col2im``.  Production ``Conv2D`` (``repro.prediction.layers``) replaced both
with a buffered strided unfold and a GEMM/gather backward; this module keeps
the seed versions so tests can compare against them and
``benchmarks/bench_prediction.py`` can time the production engine against
them.

The context managers rebind methods on the ``Conv2D`` instances of *one*
network only (found through ``collect_parameter_layers``) and restore them
on exit, so any other network in the process, on any thread, keeps running
the production path.  They do not nest on the same network:

* :func:`loop_unfold` — the seed's loop unfold, production backward.  The
  two unfolds return bit-identical, layout-identical column views, so
  forward outputs and training histories are bit-identical to production.
* :func:`seed_mode` — the full seed pipeline: loop unfold *and* the seed
  backward (same sums as production in a different floating-point
  association; they agree to about one ulp).
"""

from __future__ import annotations

import types
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

from repro.prediction.layers import Conv2D, Layer
from repro.prediction.network import collect_parameter_layers


def _im2col_loops(inputs: np.ndarray, kernel: int, pad: int) -> np.ndarray:
    """Loop-based reference unfold (the seed implementation).

    Kept for the old-vs-new equality tests and as the baseline timed by
    ``benchmarks/bench_prediction.py``; :func:`_im2col` produces a
    bit-identical column matrix through ``sliding_window_view``.
    """
    batch, channels, height, width = inputs.shape
    padded = np.pad(
        inputs, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
    )
    columns = np.empty(
        (batch, channels, kernel, kernel, height, width), dtype=inputs.dtype
    )
    for dy in range(kernel):
        for dx in range(kernel):
            columns[:, :, dy, dx] = padded[:, :, dy : dy + height, dx : dx + width]
    return columns.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch, height * width, channels * kernel * kernel
    )


def _col2im_loops(
    columns: np.ndarray, input_shape: tuple, kernel: int, pad: int
) -> np.ndarray:
    """Loop-based reference scatter (the seed's ``_col2im``)."""
    batch, channels, height, width = input_shape
    columns = columns.reshape(batch, height, width, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros(
        (batch, channels, height + 2 * pad, width + 2 * pad), dtype=columns.dtype
    )
    for dy in range(kernel):
        for dx in range(kernel):
            padded[:, :, dy : dy + height, dx : dx + width] += columns[:, :, dy, dx]
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


def _loop_unfold(self: Conv2D, images: np.ndarray, role: str) -> np.ndarray:
    """``Conv2D._unfold`` replacement: the seed's unbuffered loop unfold."""
    return _im2col_loops(images, self.kernel, self.kernel // 2)


def _seed_backward(self: Conv2D, grad_output: np.ndarray) -> np.ndarray:
    """``Conv2D.backward`` replacement: einsum weight reduction plus col2im."""
    if self._columns is None or self._input_shape is None:
        raise RuntimeError("backward called before forward")
    batch, _, height, width = self._input_shape
    grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(
        batch, height * width, self.out_channels
    )
    self._grad_bias = grad_flat.sum(axis=(0, 1))
    self._grad_weight = np.einsum("bpc,bpo->co", self._columns, grad_flat)
    grad_columns = grad_flat @ self.weight.T
    return _col2im_loops(grad_columns, self._input_shape, self.kernel, self.kernel // 2)


def conv_layers(network: Layer) -> List[Conv2D]:
    """Every ``Conv2D`` the trainer would update in ``network``."""
    return [layer for layer in collect_parameter_layers(network) if isinstance(layer, Conv2D)]


@contextmanager
def _rebound(network: Layer, replacements: dict) -> Iterator[List[Conv2D]]:
    """Shadow the class methods with instance attributes; deleting them restores."""
    convs = conv_layers(network)
    for conv in convs:
        for name, function in replacements.items():
            setattr(conv, name, types.MethodType(function, conv))
    try:
        yield convs
    finally:
        for conv in convs:
            for name in replacements:
                delattr(conv, name)


def loop_unfold(network: Layer):
    """Run ``network``'s convolutions on the seed's loop unfold."""
    return _rebound(network, {"_unfold": _loop_unfold})


def seed_mode(network: Layer):
    """Run ``network``'s convolutions on the seed's full pipeline."""
    return _rebound(network, {"_unfold": _loop_unfold, "backward": _seed_backward})
