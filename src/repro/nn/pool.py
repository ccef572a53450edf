"""Pooling layers: max, average, and global average pooling."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.fastpath import current_workspace
from repro.nn.functional import conv_output_size, pad2d
from repro.nn.inference import is_inference
from repro.nn.module import DTYPE, Module
from repro.utils.validation import check_positive_int, check_shape_4d


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Sliding windows ``(N, C, OH, OW, KH, KW)`` of a padded input."""
    win = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    return win[:, :, ::stride, ::stride, :, :]


class MaxPool2d(Module):
    """Max pooling with square windows.

    The forward accumulates ``np.maximum`` over the ``kernel^2`` strided
    window offsets into a workspace buffer (:mod:`repro.nn.fastpath`):
    each pass is one full-width elementwise op, with no
    ``kernel^2``-sized window copy and no winner index.  Its result
    equals a ``max`` over each window, ``-0.0``/``+0.0`` ties included
    (``max`` settles them in favor of the *later* operand, in the same
    sequential order).  Outside inference mode the padded input and
    the output are kept for the backward pass, which recovers each
    window's winner from them.

    Args:
        kernel_size: window side length.
        stride: window stride; defaults to ``kernel_size``.
        padding: symmetric padding with ``-inf``, so a padded position
            never wins.  At most ``kernel_size // 2`` (PyTorch's rule),
            so that every window holds an input position; a window
            entirely in the padding would emit ``-inf``.
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None,
                 padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(
            stride if stride is not None else kernel_size, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        if padding > self.kernel_size // 2:
            raise ValueError(
                f"padding must be at most kernel_size // 2 = "
                f"{self.kernel_size // 2}, got {padding}")
        self.padding = int(padding)
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._xp: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None

    def output_shape(self, h: int, w: int) -> Tuple[int, int]:
        """Spatial output size for an ``(h, w)`` input."""
        oh = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return oh, ow

    def _padded(self, x: np.ndarray) -> np.ndarray:
        if self.padding == 0:
            return x
        return np.pad(
            x, ((0, 0), (0, 0), (self.padding,) * 2, (self.padding,) * 2),
            mode="constant", constant_values=-np.inf)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = check_shape_4d(x, "x")
        k = self.kernel_size
        stride = self.stride
        xp = self._padded(x)
        oh, ow = self.output_shape(*x.shape[2:])
        out = current_workspace().buffer(
            self, "max", (x.shape[0], x.shape[1], oh, ow))
        for di in range(k):
            for dj in range(k):
                window = xp[:, :, di:di + stride * oh:stride,
                            dj:dj + stride * ow:stride]
                if di == 0 and dj == 0:
                    np.copyto(out, window)
                else:
                    np.maximum(out, window, out=out)
        if is_inference():
            self._x_shape = self._xp = self._out = None
        else:
            self._x_shape, self._xp, self._out = x.shape, xp, out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Scatter-free backward: ``kernel^2`` vectorized offset adds.

        One masked add per window offset, in fixed row-major offset
        order, instead of an element-at-a-time scatter to each window's
        winner.  The winning offset of each window is recovered by
        comparing the cached padded input against the cached maxima,
        claimed first-match-wins — the first of the maxima, as a
        winner-index reduction picks it (``-0.0 == +0.0``, so sign-zero
        ties select the same offset too).  Windows that never overlap (``stride >=
        kernel_size`` — every zoo model) give each input cell at most
        one contribution, so the result is bitwise-identical to the
        scatter; overlapping windows sum colliding contributions in
        per-offset instead of flat-index order, a deterministic
        ulp-level reordering (gradcheck-verified).
        """
        if self._out is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        k = self.kernel_size
        stride = self.stride
        hp, wp = h + 2 * self.padding, w + 2 * self.padding
        ws = current_workspace()
        out = self._out
        grad_pad = ws.zeros(self, "grad_pad", (n, c, hp, wp))
        oh, ow = grad_out.shape[2:]
        contrib = ws.buffer(self, "contrib", out.shape)
        sel = ws.buffer(self, "sel", out.shape, bool)
        unclaimed = ws.buffer(self, "unclaimed", out.shape, bool)
        unclaimed.fill(True)
        for di in range(k):
            for dj in range(k):
                window = self._xp[:, :, di:di + stride * oh:stride,
                                  dj:dj + stride * ow:stride]
                np.equal(window, out, out=sel)
                # First equal offset wins.
                np.logical_and(sel, unclaimed, out=sel)
                # sel is a subset of unclaimed, so xor clears exactly it.
                np.logical_xor(unclaimed, sel, out=unclaimed)
                np.multiply(grad_out, sel, out=contrib)
                grad_pad[:, :, di:di + stride * oh:stride,
                         dj:dj + stride * ow:stride] += contrib
        if self.padding:
            grad_pad = grad_pad[:, :, self.padding:-self.padding,
                                self.padding:-self.padding]
        self._x_shape = self._xp = self._out = None
        return grad_pad

    def __repr__(self) -> str:
        return (f"MaxPool2d(kernel_size={self.kernel_size}, "
                f"stride={self.stride}, padding={self.padding})")


class AvgPool2d(Module):
    """Average pooling with square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None,
                 padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(
            stride if stride is not None else kernel_size, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.padding = int(padding)
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = check_shape_4d(x, "x")
        # Parity with MaxPool2d/Conv2d: no backward state is retained
        # under inference mode.
        self._x_shape = None if is_inference() else x.shape
        xp = pad2d(x, self.padding)
        win = _windows(xp, self.kernel_size, self.stride)
        return np.ascontiguousarray(win.mean(axis=(-2, -1)), dtype=DTYPE)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        hp, wp = h + 2 * self.padding, w + 2 * self.padding
        grad_pad = current_workspace().zeros(self, "grad_pad", (n, c, hp, wp))
        oh, ow = grad_out.shape[2:]
        share = grad_out / (self.kernel_size * self.kernel_size)
        for ki in range(self.kernel_size):
            for kj in range(self.kernel_size):
                grad_pad[:, :, ki:ki + self.stride * oh:self.stride,
                         kj:kj + self.stride * ow:self.stride] += share
        if self.padding:
            grad_pad = grad_pad[:, :, self.padding:-self.padding,
                                self.padding:-self.padding]
        self._x_shape = None
        return grad_pad

    def __repr__(self) -> str:
        return (f"AvgPool2d(kernel_size={self.kernel_size}, "
                f"stride={self.stride}, padding={self.padding})")


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, producing ``(N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = check_shape_4d(x, "x")
        # Parity with MaxPool2d/Conv2d: no backward state is retained
        # under inference mode.
        self._x_shape = None if is_inference() else x.shape
        return np.ascontiguousarray(x.mean(axis=(2, 3)), dtype=DTYPE)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        grad = np.broadcast_to(
            grad_out[:, :, None, None] / (h * w), (n, c, h, w))
        self._x_shape = None
        return np.ascontiguousarray(grad, dtype=DTYPE)

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"
