"""Loss functions with analytic gradients."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import check_labels
from repro.nn.module import DTYPE


class CrossEntropyLoss:
    """Softmax cross-entropy on raw logits.

    Usage::

        loss = criterion(logits, targets)   # scalar float
        dlogits = criterion.backward()      # (N, K) gradient

    The loss never materializes the one-hot target matrix: the forward
    is an index-gathered NLL (one shared max/exp pass feeding both the
    probabilities and the log-normalizer) and the gradient is an
    in-place subtract-at-label on the cached probabilities.  Both are
    bitwise-identical to the dense ``one_hot`` formulation
    (regression-pinned by ``tests/test_nn_losses.py``); the gathered
    terms are summed through a zero matrix of the logits' shape so even
    the reduction order matches the dense path float-for-float.
    """

    def __init__(self) -> None:
        self._probs: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(logits)
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, K), got {logits.shape}")
        n, k = logits.shape
        targets = check_labels(targets, k)
        # One shared stabilization pass: z and exp(z) feed both the
        # softmax probabilities (cached for backward) and the gathered
        # log-probabilities, instead of separate softmax/log_softmax
        # passes each redoing the max-subtract and exponentials.
        z = logits - np.max(logits, axis=1, keepdims=True)
        ez = np.exp(z)
        denom = np.sum(ez, axis=1, keepdims=True)
        rows = np.arange(n)
        picked = z[rows, targets] - np.log(denom[:, 0])
        self._probs = ez / denom
        self._labels = targets
        # Summing the gathered terms through a zero (N, K) matrix keeps
        # the reduction tree identical to the dense formulation's
        # ``(soft * logp).sum()`` — a flat gathered ``picked.sum()``
        # pairs the addends differently and drifts by ulps.
        dense = np.zeros((n, k), dtype=np.result_type(DTYPE, z.dtype))
        dense[rows, targets] = picked
        return float(-dense.sum() / n)

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        if self._probs is None:
            raise RuntimeError("backward called before forward")
        n = self._probs.shape[0]
        # In-place subtract-at-label on the cached probabilities: label
        # entries become (p - 1) / n and the rest p / n — float-for-float
        # the dense ``(probs - one_hot) / n``.
        grad = self._probs
        grad[np.arange(n), self._labels] -= 1.0
        grad /= n
        self._probs = None
        self._labels = None
        return grad.astype(DTYPE, copy=False)
