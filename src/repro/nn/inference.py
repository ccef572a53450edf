"""Inference-mode and Monte-Carlo batch execution contexts.

Two small, orthogonal mechanisms used by the batched MC-dropout engine
(:mod:`repro.bayes.mc`):

* :func:`inference_mode` — a ``torch.no_grad()``-style context.  While
  active, layers skip their backward caches (im2col columns, pooling
  argmax indices, activation masks), which removes a large share of the
  forward cost for inference-only workloads.  Calling ``backward`` on a
  layer whose last forward ran under inference mode raises the usual
  "backward called before forward" error.

* :class:`MCBatchContext` / :func:`mc_batch` — the *mask plan* of one
  Monte-Carlo prediction.  All ``T`` dropout masks of every stochastic
  layer are sampled lazily at the **canonical** shape (the full input
  batch, pass-major order) through the layer's
  :meth:`~repro.dropout.base.DropoutLayer.sample_masks` API.  Because
  masks are planned at full-batch granularity, micro-batching never
  perturbs the random stream: every ``batch_size`` setting, every pass
  span and both engines consume identical masks.

The context also carries the *sample-sliced* execution convention that
keeps the fused forward pass bit-identical to the looped reference:

* every per-row operation (conv as per-image matmul, pooling,
  activations, normalization with frozen statistics) is batch-size
  invariant by construction, and
* :class:`~repro.nn.linear.Linear` consults :func:`current_mc_batch` to
  perform its GEMM per Monte-Carlo sample slice ``(S, rows, K)`` rather
  than on the fused ``(S * rows, K)`` matrix — BLAS results for a row
  depend on the GEMM's row count, so slicing pins the reference dims.

The library is single-threaded; the active contexts are module globals.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional

import numpy as np

_INFERENCE_DEPTH = 0
_ACTIVE_MC_BATCH: Optional["MCBatchContext"] = None


def is_inference() -> bool:
    """True while an :func:`inference_mode` context is active."""
    return _INFERENCE_DEPTH > 0


@contextlib.contextmanager
def inference_mode():
    """Context manager: layers skip backward caches while active."""
    global _INFERENCE_DEPTH
    _INFERENCE_DEPTH += 1
    try:
        yield
    finally:
        _INFERENCE_DEPTH -= 1


def current_mc_batch() -> Optional["MCBatchContext"]:
    """The active :class:`MCBatchContext`, or None outside an engine."""
    return _ACTIVE_MC_BATCH


@contextlib.contextmanager
def mc_batch(ctx: "MCBatchContext"):
    """Activate ``ctx`` for the duration of one MC prediction."""
    global _ACTIVE_MC_BATCH
    if _ACTIVE_MC_BATCH is not None:
        raise RuntimeError("nested mc_batch contexts are not supported")
    _ACTIVE_MC_BATCH = ctx
    try:
        yield ctx
    finally:
        _ACTIVE_MC_BATCH = None


class MCBatchContext:
    """Mask plan and execution state of one Monte-Carlo prediction.

    Args:
        num_samples: number of Monte-Carlo samples ``T``.
        total_rows: full input batch size ``N`` — the canonical shape
            at which every layer's masks are sampled, independently of
            any micro-batching.
        pass_start / pass_stop: the pass span ``[pass_start,
            pass_stop)`` fused execution computes (default: all ``T``).
            Masks are still planned for all ``T`` passes; the span only
            selects which of their slices are applied.

    The engine mutates :attr:`sample_index` / chunk bounds between
    forward calls:

    * ``sample_index = t`` — looped execution: the model processes one
      ``(rows, ...)`` chunk under Monte-Carlo sample ``t``.
    * ``sample_index = None`` — fused execution: the first stochastic
      dropout layer *tiles* its ``(rows, ...)`` input to
      ``(S * rows, ...)`` for the ``S = pass_stop - pass_start`` passes
      of the span (everything upstream of it is shared across samples
      and computed once), and every stochastic layer applies the mask
      slices of all ``S`` samples at once.
    """

    def __init__(self, num_samples: int, total_rows: int, *,
                 pass_start: int = 0,
                 pass_stop: Optional[int] = None) -> None:
        if num_samples < 1:
            raise ValueError(
                f"num_samples must be positive, got {num_samples}")
        if pass_stop is None:
            pass_stop = num_samples
        if not 0 <= pass_start < pass_stop <= num_samples:
            raise ValueError(
                f"pass span [{pass_start}, {pass_stop}) out of range for "
                f"{num_samples} Monte-Carlo samples")
        self.num_samples = int(num_samples)
        self.total_rows = int(total_rows)
        self.pass_start = int(pass_start)
        self.pass_stop = int(pass_stop)
        self.span = self.pass_stop - self.pass_start
        self.row_start = 0
        self.rows = int(total_rows)
        self.sample_index: Optional[int] = None
        self._plans: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Engine-facing state transitions
    # ------------------------------------------------------------------
    def set_sample(self, sample_index: Optional[int]) -> None:
        """Select looped sample ``t``, or None for fused execution."""
        self.sample_index = sample_index

    def set_chunk(self, row_start: int, rows: int) -> None:
        """Bound the current micro-batch to input rows [start, start+rows)."""
        self.row_start = int(row_start)
        self.rows = int(rows)

    # ------------------------------------------------------------------
    # Mask plan
    # ------------------------------------------------------------------
    def masks_for(self, layer, feature_shape) -> np.ndarray:
        """The layer's planned masks, sampled on first use.

        Masks are drawn once per layer at the canonical shape
        ``(T, total_rows, *feature_shape)`` (possibly broadcast-compressed
        along any axis), so the stream matches ``T`` sequential
        full-batch draws regardless of micro-batching.
        """
        key = id(layer)
        masks = self._plans.get(key)
        if masks is None:
            masks = np.asarray(layer.sample_masks(
                self.num_samples, (self.total_rows,) + tuple(feature_shape)))
            if masks.ndim != len(feature_shape) + 2:
                raise ValueError(
                    f"sample_masks returned ndim {masks.ndim}, expected "
                    f"{len(feature_shape) + 2}")
            self._plans[key] = masks
        return masks

    def _mask_slice(self, masks: np.ndarray) -> np.ndarray:
        """Rows [row_start, row_start + rows) of the planned masks.

        Broadcast-compressed plans (row axis of size 1, e.g. Masksembles
        channel masks shared across the batch) pass through unchanged.
        """
        if masks.shape[1] == 1:
            return masks
        return masks[:, self.row_start:self.row_start + self.rows]

    # ------------------------------------------------------------------
    # Dropout application (called from DropoutLayer.forward)
    # ------------------------------------------------------------------
    def apply(self, layer, x: np.ndarray) -> np.ndarray:
        """Apply the layer's planned mask(s) to activation ``x``.

        In looped mode multiplies by sample ``t``'s mask slice.  In
        fused mode multiplies by the span's ``S`` slices at once, tiling
        ``x`` across samples if this is the first stochastic layer of
        the network (the shared pre-dropout prefix is computed only
        once).
        """
        feat = x.shape[1:]
        sl = self._mask_slice(self.masks_for(layer, feat))
        if self.sample_index is not None:
            return np.multiply(x, sl[self.sample_index])
        sl = sl[self.pass_start:self.pass_stop]
        t, b = self.span, self.rows
        if x.shape[0] == b:
            # First stochastic layer: broadcast-tile across samples.
            y = x[None, ...] * sl
        elif x.shape[0] == t * b:
            y = x.reshape((t, b) + feat) * sl
        else:
            raise ValueError(
                f"activation batch {x.shape[0]} matches neither the chunk "
                f"rows ({b}) nor the fused rows ({t * b})")
        return y.reshape((t * b,) + tuple(feat))

    # ------------------------------------------------------------------
    # Linear-layer convention
    # ------------------------------------------------------------------
    def linear_slices(self, batch_rows: int) -> Optional[int]:
        """Sample count to slice a fused GEMM into, or None for a plain one.

        A linear layer processing the fused ``(S * rows, K)`` activation
        must run one GEMM per sample slice so each slice has the same
        row count as the looped reference pass.  Untiled (shared-prefix)
        activations and looped passes use the plain path.
        """
        if self.sample_index is not None or self.span == 1:
            return None
        if batch_rows == self.span * self.rows and batch_rows != self.rows:
            return self.span
        return None


__all__ = [
    "MCBatchContext",
    "current_mc_batch",
    "inference_mode",
    "is_inference",
    "mc_batch",
]
