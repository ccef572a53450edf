"""Activation and shape-adapter layers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.fastpath import current_workspace
from repro.nn.inference import is_inference
from repro.nn.module import DTYPE, Module


class ReLU(Module):
    """Rectified linear unit, ``max(x, 0)``.

    Both passes run as single SIMD ufuncs into buffers of the current
    workspace (:mod:`repro.nn.fastpath`): the forward is
    ``np.maximum(x, 0.0, out=...)`` — float-identical to the textbook
    ``np.where`` (ties at ``-0.0`` resolve to ``+0.0`` either way) —
    and the backward multiplies the gradient by the boolean mask.  The
    masked-out backward entries are ``-0.0`` where ``np.where`` writes
    ``+0.0`` for a negative gradient; the sign washes out at the next
    ``+=``-onto-zeros accumulation, so parameter gradients, losses and
    weights stay byte-identical (pinned against the ``np.where`` forms
    in ``tests/oracles.py`` by the trajectory tests).
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if is_inference():
            self._mask = None
            return np.maximum(x, 0).astype(DTYPE, copy=False)
        ws = current_workspace()
        self._mask = np.greater(
            x, 0, out=ws.buffer(self, "mask", x.shape, bool))
        return np.maximum(x, 0.0, out=ws.buffer(self, "out", x.shape))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        ws = current_workspace()
        grad = np.multiply(grad_out, self._mask,
                           out=ws.buffer(self, "grad", grad_out.shape))
        self._mask = None
        return grad

    def __repr__(self) -> str:
        return "ReLU()"


class LeakyReLU(Module):
    """Leaky rectified linear unit with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if is_inference():
            self._mask = None
            return np.where(x > 0, x, self.negative_slope * x).astype(DTYPE)
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x).astype(DTYPE)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = np.where(self._mask, grad_out,
                        self.negative_slope * grad_out).astype(DTYPE)
        self._mask = None
        return grad

    def __repr__(self) -> str:
        return f"LeakyReLU(negative_slope={self.negative_slope})"


class Flatten(Module):
    """Collapse all non-batch dimensions: ``(N, ...) -> (N, prod(...))``."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        grad = grad_out.reshape(self._shape)
        self._shape = None
        return grad

    def __repr__(self) -> str:
        return "Flatten()"
