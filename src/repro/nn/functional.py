"""Stateless numerical kernels shared by the layer implementations.

The convolution kernels use the im2col/col2im formulation: a convolution
is lowered to one big matrix multiply, which is the same lowering most
HLS dataflow accelerators (and hls4ml) use, so the hardware model in
:mod:`repro.hw` can reason about the identical operation counts.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.nn.module import DTYPE


def pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing spatial dimensions of ``(N, C, H, W)``."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    out[:, :, padding:padding + h, padding:padding + w] = x
    return out


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size {out} for input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


#: Output maps of at most this many positions gather their windows
#: through a cached flat index; larger ones pad and copy a strided
#: window view.  On ResNet-slim's shapes (540 rows, 2-core host, one
#: BLAS thread) the gather lowers 2x2 and 4x4 maps 2.6-5.3x and 8x8
#: maps 1.3-1.5x faster than the padded window copy; a cut at 256
#: positions (16x16 maps too) made a search candidate slower, and one
#: at 16 gave up the 8x8 gain.  Both paths write the same bytes.
GATHER_MAX_POSITIONS = 64


@functools.lru_cache(maxsize=64)
def _window_index(c: int, h: int, w: int, kernel: int, stride: int,
                  padding: int) -> np.ndarray:
    """Flat offsets of every window element in an image's ``C*H*W``
    values, in :func:`im2col`'s ``(C, KH, KW, OH, OW)`` column order; a
    padding position reads offset ``C*H*W``, a zero placed after them."""
    def taps(size, out):
        at = (np.arange(kernel)[:, None] + stride * np.arange(out)
              - padding)
        return at, (at >= 0) & (at < size)
    rows, rows_in = taps(h, conv_output_size(h, kernel, stride, padding))
    cols, cols_in = taps(w, conv_output_size(w, kernel, stride, padding))
    index = np.where(
        rows_in[None, :, None, :, None] & cols_in[None, None, :, None, :],
        np.arange(c)[:, None, None, None, None] * (h * w)
        + rows[None, :, None, :, None] * w + cols[None, None, :, None, :],
        c * h * w).reshape(-1)
    index.flags.writeable = False
    return index


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int,
           out: np.ndarray = None) -> np.ndarray:
    """Lower sliding windows of ``x`` to columns.

    The columns are gathered one of two ways, fixed by the output map's
    size: maps of at most :data:`GATHER_MAX_POSITIONS` positions take
    every window element through one cached flat index (``np.take``)
    from the image's values followed by one zero, which every padding
    position reads; larger maps pad and copy a strided window view.
    Either way each column holds the same values in the same order, so
    the GEMM operands, and the bytes of every conv built on them, do
    not depend on the rule.

    Args:
        x: input of shape ``(N, C, H, W)``.
        kernel: square kernel size.
        stride: window stride.
        padding: symmetric zero padding.
        out: optional preallocated ``(N, C*kernel*kernel, OH*OW)``
            destination (training fast path, fixed-point kernel); the
            gather is written in place instead of allocating, with
            bitwise-identical values.

    Returns:
        Array of shape ``(N, C * kernel * kernel, OH * OW)`` where each
        column holds one receptive field, flattened channel-major.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, padding)
    ow = conv_output_size(w, kernel, stride, padding)
    if oh * ow <= GATHER_MAX_POSITIONS:
        dtype = DTYPE if out is None else out.dtype
        if padding:
            flat = np.empty((n, c * h * w + 1), dtype=dtype)
            flat[:, :-1] = x.reshape(n, -1)
            flat[:, -1] = 0
        else:
            flat = np.ascontiguousarray(x, dtype=dtype).reshape(n, -1)
        if out is None:
            out = np.empty((n, c * kernel * kernel, oh * ow), dtype=dtype)
        np.take(flat, _window_index(c, h, w, kernel, stride, padding),
                axis=1, out=out.reshape(n, -1), mode="clip")
        return out
    xp = pad2d(x, padding)
    # windows: (N, C, OH, OW, KH, KW)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    # -> (N, C, KH, KW, OH, OW) -> (N, C*KH*KW, OH*OW)
    cols = windows.transpose(0, 1, 4, 5, 2, 3)
    if out is None:
        return np.ascontiguousarray(
            cols.reshape(n, c * kernel * kernel, oh * ow), dtype=DTYPE)
    np.copyto(out.reshape(n, c, kernel, kernel, oh, ow), cols)
    return out


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kernel: int,
           stride: int, padding: int, out: np.ndarray = None) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to image form.

    Contributions are accumulated per ``(ki, kj)`` window offset in a
    fixed row-major order, so the summation order — and therefore the
    floats — is identical whether ``out`` is freshly allocated or a
    reused workspace buffer.

    Args:
        cols: array of shape ``(N, C * kernel * kernel, OH * OW)``.
        x_shape: original ``(N, C, H, W)`` input shape.
        kernel, stride, padding: the window sweep parameters used forward.
        out: optional preallocated padded ``(N, C, H+2p, W+2p)``
            accumulator (training fast path); zeroed, accumulated into
            in place, and sliced for the return value.

    Returns:
        Array of shape ``x_shape`` with overlapping contributions summed
        (a view into ``out`` when padding is non-zero and ``out`` given).
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kernel, stride, padding)
    ow = conv_output_size(w, kernel, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    if out is None:
        out = np.zeros((n, c, hp, wp), dtype=DTYPE)
    else:
        if out.shape != (n, c, hp, wp):
            raise ValueError(
                f"col2im out buffer has shape {out.shape}, "
                f"expected {(n, c, hp, wp)}")
        out.fill(0.0)
    cols6 = cols.reshape(n, c, kernel, kernel, oh, ow)
    for ki in range(kernel):
        i_end = ki + stride * oh
        for kj in range(kernel):
            j_end = kj + stride * ow
            out[:, :, ki:i_end:stride, kj:j_end:stride] += cols6[:, :, ki, kj]
    if padding:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    z = logits - np.max(logits, axis=axis, keepdims=True)
    ez = np.exp(z)
    return ez / np.sum(ez, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    z = logits - np.max(logits, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Validate integer class labels: 1-D and within ``[0, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), "
            f"got range [{labels.min()}, {labels.max()}]"
        )
    return labels


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer ``labels`` of shape ``(N,)`` as ``(N, num_classes)``."""
    labels = check_labels(labels, num_classes)
    out = np.zeros((labels.shape[0], num_classes), dtype=DTYPE)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
