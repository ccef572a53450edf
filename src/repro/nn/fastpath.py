"""Training workspace: per-layer buffers reused across steps.

Layers with large training intermediates (:class:`~repro.nn.Conv2d`,
:class:`~repro.nn.ReLU`, :class:`~repro.nn.MaxPool2d`,
:class:`~repro.nn.AvgPool2d`) take them — im2col columns, GEMM outputs,
pooling maxima, activation masks, padded gradients — from the
workspace that :func:`current_workspace` returns, in one code path:

* inside :func:`fast_training` (every loop in
  :mod:`repro.search.trainer`) it is a :class:`TrainWorkspace` that
  keeps each buffer, so every step after the first reuses the previous
  step's memory — shapes are fixed within an epoch — and never touches
  the allocator for the activation-sized footprint;
* outside, every buffer is a fresh ``np.empty`` array.

Writing a result through ``out=`` produces the same floats as
allocating it, so both give the same bytes.  Against the textbook
``argmax``/``np.add.at`` max pool and ``np.where`` ReLU that
``tests/oracles.py`` keeps as the reference, the only documented
divergence is MaxPool backward with *overlapping* windows
(``stride < kernel_size``), where colliding contributions are summed in
per-offset instead of flat-index order — an ulp-level reordering no zoo
model exercises (see :mod:`repro.nn.pool`).

Like the inference/MC contexts in :mod:`repro.nn.inference`, the active
workspace is a module global (the library is single-threaded).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.module import DTYPE

_ACTIVE_WORKSPACE: Optional["TrainWorkspace"] = None


class TrainWorkspace:
    """A pool of named, shape-keyed scratch buffers for training steps.

    Buffers are keyed by ``(owner id, tag, shape, dtype)`` so a layer's
    forward/backward intermediates of every distinct geometry (e.g. the
    full batch and the smaller epoch-tail batch) persist side by side
    across steps.  Buffers are handed out *uninitialized* — callers
    must fully overwrite (or explicitly ``fill``) them.

    Ownership discipline: a buffer may be returned as a layer output or
    cached for the same step's backward, because by the time the owning
    layer runs again every downstream consumer of the previous step has
    finished.  Buffers must never outlive the training loop that
    installed the workspace.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple, np.ndarray] = {}

    def buffer(self, owner: object, tag: str, shape: Tuple[int, ...],
               dtype=DTYPE) -> np.ndarray:
        """An uninitialized reusable array of ``shape``/``dtype``."""
        key = (id(owner), tag, tuple(shape), np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(tuple(shape), dtype=dtype)
            self._buffers[key] = buf
        return buf

    def zeros(self, owner: object, tag: str, shape: Tuple[int, ...],
              dtype=DTYPE) -> np.ndarray:
        """A reusable array of ``shape``/``dtype``, zeroed on every call."""
        buf = self.buffer(owner, tag, shape, dtype)
        buf.fill(0)
        return buf

    @property
    def num_buffers(self) -> int:
        """Number of distinct buffers currently pooled."""
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the pooled buffers."""
        # Integer byte counts: order-free accumulation.
        return sum(buf.nbytes  # repro: allow[unordered-float-sum]
                   for buf in self._buffers.values())


class _FreshBuffers(TrainWorkspace):
    """The workspace outside :func:`fast_training`: nothing is kept."""

    def buffer(self, owner: object, tag: str, shape: Tuple[int, ...],
               dtype=DTYPE) -> np.ndarray:
        return np.empty(tuple(shape), dtype=dtype)


_FRESH = _FreshBuffers()


def current_workspace() -> TrainWorkspace:
    """The active :class:`TrainWorkspace`, or one whose buffers are
    fresh arrays outside :func:`fast_training`."""
    return _FRESH if _ACTIVE_WORKSPACE is None else _ACTIVE_WORKSPACE


@contextlib.contextmanager
def fast_training(workspace: Optional[TrainWorkspace] = None):
    """Keep the layers' buffers across the steps of a training loop.

    Args:
        workspace: buffer pool to (re)use; a fresh one by default.

    Yields the active workspace.  Nesting is rejected — a training loop
    owns its buffers exclusively.
    """
    global _ACTIVE_WORKSPACE
    if _ACTIVE_WORKSPACE is not None:
        raise RuntimeError("nested fast_training contexts are not supported")
    _ACTIVE_WORKSPACE = workspace if workspace is not None else TrainWorkspace()
    try:
        yield _ACTIVE_WORKSPACE
    finally:
        _ACTIVE_WORKSPACE = None


__all__ = [
    "TrainWorkspace",
    "current_workspace",
    "fast_training",
]
