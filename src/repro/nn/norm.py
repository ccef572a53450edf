"""Batch normalization over channel dimension of image tensors."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn import init
from repro.nn.module import DTYPE, Module, Parameter
from repro.utils.validation import check_positive_int, check_shape_4d


class BatchNorm2d(Module):
    """Per-channel batch normalization for ``(N, C, H, W)`` inputs.

    Maintains running mean/variance for evaluation mode, exactly like
    ``torch.nn.BatchNorm2d`` (momentum convention: ``running = (1 - m) *
    running + m * batch``).

    Both modes run their four ops (subtract the mean, scale by
    ``1/sqrt(var + eps)``, scale by the weight, add the bias) on the
    flattened ``(N, C*H*W)`` rows, against each per-channel vector
    expanded to ``C*H*W`` with ``np.repeat``: one long broadcast per op
    instead of one short one per image row, with the floats of the
    ``(N, C, H, W)`` broadcast.  The output is one fresh array, never
    the input, which a residual shortcut reads again.

    Args:
        num_features: channel count ``C``.
        eps: numerical stabilizer added to the variance.
        momentum: running-statistics update rate.
    """

    def __init__(self, num_features: int, *, eps: float = 1e-5,
                 momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = check_positive_int(num_features, "num_features")
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.running_mean = np.zeros(num_features, dtype=DTYPE)
        self.running_var = np.ones(num_features, dtype=DTYPE)
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = check_shape_4d(x, "x")
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels, got {x.shape[1]}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(DTYPE)
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            ).astype(DTYPE)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        spatial = x.shape[2] * x.shape[3]
        x_hat = np.subtract(x.reshape(x.shape[0], -1),
                            np.repeat(mean, spatial))
        x_hat *= np.repeat(inv_std, spatial)
        weight = np.repeat(self.weight.data, spatial)
        if self.training:
            self._cache = (x_hat.reshape(x.shape), inv_std)
            y = weight * x_hat
        else:
            y = np.multiply(weight, x_hat, out=x_hat)
        y += np.repeat(self.bias.data, spatial)
        return y.reshape(x.shape).astype(DTYPE, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                "backward called before a training-mode forward")
        x_hat, inv_std = self._cache
        n, c, h, w = grad_out.shape
        m = n * h * w
        self.weight.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        g_hat = grad_out * self.weight.data[None, :, None, None]
        sum_g = g_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_x = (inv_std[None, :, None, None] / m) * (
            m * g_hat - sum_g - x_hat * sum_gx)
        self._cache = None
        return grad_x.astype(DTYPE)

    def extra_state(self) -> Dict[str, np.ndarray]:
        return {
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }

    def load_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        if "running_mean" in state:
            self.running_mean = np.asarray(state["running_mean"], dtype=DTYPE).copy()
        if "running_var" in state:
            self.running_var = np.asarray(state["running_var"], dtype=DTYPE).copy()

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features}, eps={self.eps})"
