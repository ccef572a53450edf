"""Inference-mode and Monte-Carlo batch execution contexts.

Three small mechanisms used by the batched MC-dropout engine
(:mod:`repro.bayes.mc`) and the serving stack (:mod:`repro.serve`):

* :func:`inference_mode` — a ``torch.no_grad()``-style context.  While
  active, layers skip their backward caches (im2col columns, pooled
  inputs and maxima, activation masks), which removes a large share of
  the forward cost for inference-only workloads.  Calling ``backward`` on a
  layer whose last forward ran under inference mode raises the usual
  "backward called before forward" error.

* :class:`MCBatchContext` / :func:`mc_batch` — the *mask plan* of one
  Monte-Carlo prediction.  All ``T`` dropout masks of every stochastic
  layer are sampled lazily at the **canonical** shape (the whole input
  batch, pass-major order) through the layer's
  :meth:`~repro.dropout.base.DropoutLayer.sample_masks` API, so every
  pass span consumes identical masks, and so does the looped reference
  the test suite keeps (``tests/oracles.py``).

* :class:`MaskPlanCache` — plan *reuse*.  A serving plan is a pure
  function of its shape and seed, so an executing instance keeps the
  plans it drew in a small byte-bounded cache and passes them to the
  next prediction of the same key as the context's ``plans`` argument:
  the context reads the plans it finds there and draws the missing
  ones into the same dict.

The context also carries the *sample-sliced* execution convention that
keeps the fused forward pass bit-identical to ``T`` separate passes:

* every per-row operation (conv as per-image matmul, pooling,
  activations, normalization with frozen statistics) is batch-size
  invariant by construction, and
* :class:`~repro.nn.linear.Linear` consults :func:`current_mc_batch` to
  perform its GEMM per Monte-Carlo sample slice ``(S, rows, K)`` rather
  than on the fused ``(S * rows, K)`` matrix — BLAS results for a row
  depend on the GEMM's row count, so slicing pins one pass's dims.

The library is single-threaded; the active contexts are module globals.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

#: Byte budget of one :class:`MaskPlanCache` (one executing instance).
#: LeNet 28x28 B-K-M at T = 3 holds 0.6 MB of float32 plans (1.2 MB of
#: float64 kernel codes) per 32 fused rows, so every shape a serving
#: benchmark fuses fits with room to spare.
MASK_PLAN_BUDGET = 8 << 20

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


def check_batch_rows(rows: int) -> int:
    """``rows`` as an int; ``ValueError`` for an empty batch, which both
    backends refuse (a Monte-Carlo batch needs at least one row)."""
    if rows < 1:
        raise ValueError(
            f"a Monte-Carlo batch needs at least one row, got {rows}")
    return int(rows)


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


class MaskPlanCache:
    """The canonical mask plans one executing instance has drawn, by key.

    A serving plan is a pure function of its key (the serving seed, the
    sample count ``T``, the fused row count and the active dropout
    layers), so one draw can answer every later batch of that key.
    Entries are dicts of plan arrays, stored read-only so an in-place
    write raises instead of corrupting later batches, and evicted
    least-recently-used once their bytes exceed
    :data:`MASK_PLAN_BUDGET`.  An entry larger than the whole budget is
    not stored.
    """

    def __init__(self) -> None:
        self.nbytes = 0
        self._entries: "OrderedDict[Hashable, Tuple[dict, int]]" = \
            OrderedDict()

    def get(self, key: Hashable) -> Optional[dict]:
        """The plans stored under ``key`` (now most recently used), or
        None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: Hashable, plans: dict) -> None:
        """Store ``plans`` read-only under ``key`` (a key :meth:`get`
        just missed) within the budget."""
        size = 0
        for array in plans.values():
            array.flags.writeable = False
            size += array.nbytes
        if size > MASK_PLAN_BUDGET:
            return
        self._entries[key] = (plans, size)
        self.nbytes += size
        while self.nbytes > MASK_PLAN_BUDGET:
            self.nbytes -= self._entries.popitem(last=False)[1][1]

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self.nbytes = 0


class MCBatchContext:
    """Mask plan and execution state of one Monte-Carlo prediction.

    Args:
        num_samples: number of Monte-Carlo samples ``T``.
        rows: input batch size ``N`` — the canonical shape at which
            every layer's masks are sampled; at least one row
            (:func:`check_batch_rows`).
        pass_start / pass_stop: the pass span ``[pass_start,
            pass_stop)`` fused execution computes (default: all ``T``).
            Masks are still planned for all ``T`` passes; the span only
            selects which of their slices are applied.
        plans: the mask plan, keyed by ``id(layer)``: a layer found
            there is read, and every plan the context has to draw is
            stored into it.  Omitted, the context draws into a fresh
            dict.

    The first stochastic dropout layer *tiles* its ``(rows, ...)``
    input to ``(S * rows, ...)`` for the ``S = pass_stop - pass_start``
    passes of the span (everything upstream of it is shared across
    samples and computed once), and every stochastic layer applies the
    mask slices of all ``S`` samples at once.
    """

    def __init__(self, num_samples: int, rows: int, *,
                 pass_start: int = 0,
                 pass_stop: Optional[int] = None,
                 plans: Optional[Dict[int, np.ndarray]] = None) -> None:
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
        self.rows = check_batch_rows(rows)
        self.pass_start = int(pass_start)
        self.pass_stop = int(pass_stop)
        self.span = self.pass_stop - self.pass_start
        self._plans = {} if plans is None else plans

    # ------------------------------------------------------------------
    # Mask plan
    # ------------------------------------------------------------------
    def masks_for(self, layer, feature_shape) -> np.ndarray:
        """The layer's planned masks: passed in, or sampled on first use.

        Masks are drawn once per layer at the canonical shape
        ``(T, rows, *feature_shape)`` (possibly broadcast-compressed
        along any axis), so the stream matches ``T`` sequential
        full-batch draws.
        """
        key = id(layer)
        masks = self._plans.get(key)
        if masks is None:
            masks = np.asarray(layer.sample_masks(
                self.num_samples, (self.rows,) + tuple(feature_shape)))
            if masks.ndim != len(feature_shape) + 2:
                raise ValueError(
                    f"sample_masks returned ndim {masks.ndim}, expected "
                    f"{len(feature_shape) + 2}")
            self._plans[key] = masks
        return masks

    # ------------------------------------------------------------------
    # Dropout application (called from DropoutLayer.forward)
    # ------------------------------------------------------------------
    def apply(self, layer, x: np.ndarray) -> np.ndarray:
        """Apply the span's ``S`` planned mask slices to activation ``x``.

        Tiles ``x`` across samples if this is the first stochastic layer
        of the network (the shared pre-dropout prefix is computed only
        once).
        """
        feat = x.shape[1:]
        sl = self.masks_for(layer, feat)[self.pass_start:self.pass_stop]
        t, b = self.span, self.rows
        if x.shape[0] == b:
            # First stochastic layer: broadcast-tile across samples.
            y = x[None, ...] * sl
        elif x.shape[0] == t * b:
            y = x.reshape((t, b) + feat) * sl
        else:
            raise ValueError(
                f"activation batch {x.shape[0]} matches neither the input "
                f"rows ({b}) nor the fused rows ({t * b})")
        return y.reshape((t * b,) + tuple(feat))

    # ------------------------------------------------------------------
    # Linear-layer convention
    # ------------------------------------------------------------------
    def linear_slices(self, batch_rows: int) -> Optional[int]:
        """Sample count to slice a fused GEMM into, or None for a plain one.

        A linear layer processing the fused ``(S * rows, K)`` activation
        must run one GEMM per sample slice so each slice has the same
        row count as a single pass.  Untiled (shared-prefix) activations
        use the plain path.
        """
        if self.span > 1 and batch_rows == self.span * self.rows:
            return self.span
        return None


__all__ = [
    "MASK_PLAN_BUDGET",
    "MCBatchContext",
    "MaskPlanCache",
    "check_batch_rows",
    "current_mc_batch",
    "inference_mode",
    "is_inference",
    "mc_batch",
]
