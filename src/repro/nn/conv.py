"""2-D convolution via im2col lowering, with manual backward pass."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.fastpath import current_workspace
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.inference import is_inference
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int, check_shape_4d


class Conv2d(Module):
    """Square-kernel 2-D convolution over ``(N, C, H, W)`` inputs.

    The forward pass lowers the input with :func:`im2col` and performs a
    single matrix multiply per batch — the same lowering the HLS
    accelerator model assumes, which keeps algorithm-side MAC counts and
    hardware-side cycle estimates consistent.  ``im2col`` gathers output
    maps of at most :data:`~repro.nn.functional.GATHER_MAX_POSITIONS`
    positions through a cached flat index and copies larger ones from a
    strided window view; both write the same columns, so the per-image
    GEMM operands, and the output bytes, do not depend on the rule.

    The backward pass is two GEMMs over the same lowering: one
    flattened ``(F, N*L) @ (N*L, CKK)`` product for the weight gradient
    and one broadcast batch of per-image ``(CKK, F) @ (F, L)`` products
    for the column gradient, which :func:`col2im` scatters back to
    image form.  Every intermediate is written into a buffer of the
    current workspace (:mod:`repro.nn.fastpath`): persistent per layer
    inside a training loop, fresh otherwise, with the same floats
    either way.

    Args:
        in_channels: input channel count ``C``.
        out_channels: number of filters ``F``.
        kernel_size: square kernel side length.
        stride: window stride.
        padding: symmetric zero padding.
        bias: whether to learn a per-filter bias.
        rng: seed or generator for weight initialization.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 *, stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: SeedLike = None) -> None:
        super().__init__()
        self.in_channels = check_positive_int(in_channels, "in_channels")
        self.out_channels = check_positive_int(out_channels, "out_channels")
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(stride, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.padding = int(padding)
        weight_shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.he_normal(weight_shape, rng))
        self.bias: Optional[Parameter] = (
            Parameter(init.zeros((out_channels,))) if bias else None
        )
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def output_shape(self, h: int, w: int) -> Tuple[int, int]:
        """Spatial output size for an ``(h, w)`` input."""
        oh = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return oh, ow

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = check_shape_4d(x, "x")
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        oh, ow = self.output_shape(h, w)
        ckk = c * self.kernel_size * self.kernel_size
        ws = current_workspace()
        cols = im2col(x, self.kernel_size, self.stride, self.padding,
                      out=ws.buffer(self, "cols", (n, ckk, oh * ow)))
        if is_inference():
            self._cols = None
            self._x_shape = None
        else:
            self._cols = cols
            self._x_shape = x.shape
        w2d = self.weight.data.reshape(self.out_channels, -1)
        # Broadcasted batch of per-image GEMMs: (F, CKK) @ (N, CKK, L)
        # -> (N, F, L).  Each image is an independent fixed-dims GEMM,
        # so per-image results do not depend on the batch size — the
        # bitwise invariance the batched MC engine's equivalence
        # contract relies on (an einsum contraction may switch paths
        # with N and break it).
        y = np.matmul(w2d, cols, out=ws.buffer(
            self, "y", (n, self.out_channels, oh * ow)))
        if self.bias is not None:
            np.add(y, self.bias.data[None, :, None], out=y)
        return y.reshape(n, self.out_channels, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n = grad_out.shape[0]
        f = self.out_channels
        cols = self._cols
        ckk = cols.shape[1]
        l = cols.shape[2]
        g = grad_out.reshape(n, f, -1)  # (N, F, L)
        w2d = self.weight.data.reshape(f, -1)
        ws = current_workspace()
        # grad_w: one flattened (F, N*L) @ (N*L, CKK) GEMM.  The two
        # operands are gathered into contiguous layout first (that copy
        # is what the einsum formulation also paid, hidden inside the
        # contraction).
        gt = ws.buffer(self, "gt", (f, n, l))
        np.copyto(gt, g.transpose(1, 0, 2))
        colst = ws.buffer(self, "colst", (n, l, ckk))
        np.copyto(colst, cols.transpose(0, 2, 1))
        grad_w = np.matmul(gt.reshape(f, n * l), colst.reshape(n * l, ckk),
                           out=ws.buffer(self, "gw", (f, ckk)))
        self.weight.grad += grad_w.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))
        # grad_cols: broadcast batch of per-image (CKK, F) @ (F, L)
        # GEMMs, mirroring the forward's per-image batching.
        grad_cols = np.matmul(w2d.T, g,
                              out=ws.buffer(self, "gcols", (n, ckk, l)))
        hp = self._x_shape[2] + 2 * self.padding
        wp = self._x_shape[3] + 2 * self.padding
        grad_x = col2im(grad_cols, self._x_shape, self.kernel_size,
                        self.stride, self.padding,
                        out=ws.buffer(self, "gx",
                                      (n, self._x_shape[1], hp, wp)))
        self._cols = None
        self._x_shape = None
        return grad_x

    def macs_per_image(self, h: int, w: int) -> int:
        """Multiply-accumulate count for one image — used by repro.hw."""
        oh, ow = self.output_shape(h, w)
        k2 = self.kernel_size * self.kernel_size
        return oh * ow * self.out_channels * self.in_channels * k2

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, "
                f"padding={self.padding})")
