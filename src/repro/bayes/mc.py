"""Monte-Carlo dropout inference (paper Sec. 2.1.2).

A dropout-based BayesNN produces its predictive distribution by running
``T`` stochastic forward passes with dropout *enabled at inference*;
each pass draws a fresh dropout mask (dynamic designs) or rotates to the
next pre-generated mask (Masksembles).  The Monte-Carlo average of the
per-pass softmax outputs approximates the Bayesian posterior predictive.

Engine and oracle
-----------------

:func:`mc_predict`
    The production engine.  The ``T`` Monte-Carlo samples are folded
    into a single forward pass: the deterministic *prefix* of the
    network (everything upstream of the first stochastic dropout layer)
    is computed once, the first stochastic layer tiles its activation
    to ``T * N`` rows, and the rest of the network processes all
    samples in one fused sweep under
    :func:`repro.nn.inference.inference_mode` (no backward caches).

:func:`mc_predict_looped`
    The reference oracle: ``T`` sequential stochastic forward passes,
    exactly the textbook formulation.  Kept deliberately simple so its
    correctness is obvious; the fused engine is verified against it.
    Its partial form :func:`mc_predict_span` is the float shard of the
    replica pool.

Equivalence contract (enforced by ``tests/test_mc_equivalence.py``):
for every ``batch_size`` the engine and the oracle produce
**bit-identical** ``MCPrediction.probs``.  Two mechanisms make this
possible:

* *Canonical mask plans* — both draw all masks through
  :meth:`DropoutLayer.sample_masks` at the full input-batch shape in
  pass-major order, so the random stream is independent of the code
  path and of any micro-batching; ``batch_size`` can split a
  Monte-Carlo sample mid-batch without perturbing a single mask bit.
* *Batch-size-invariant operators* — convolution runs as per-image
  GEMMs, pooling/activations/frozen-norm are row-local, and linear
  layers slice the fused matrix back into per-sample GEMMs
  (:meth:`repro.nn.inference.MCBatchContext.linear_slices`), so every
  row is computed with the same BLAS call shape as in the reference.

Across *different* ``batch_size`` settings the masks are still
identical and probabilities agree to GEMM rounding (the row count of a
BLAS GEMM affects last-bit rounding; see the equivalence suite).

Note: layers that share one ``numpy.random.Generator`` *instance* would
interleave draws differently under a mask plan than under per-pass
in-layer sampling; every constructor in this library hands each layer
an independent stream, which keeps plans bit-compatible with the
pre-plan sequential behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.dropout.base import DropoutLayer
from repro.nn.functional import softmax
from repro.nn.inference import MCBatchContext, inference_mode, mc_batch
from repro.nn.module import Module
from repro.utils.validation import check_positive_int

#: Numerical floor used inside logs.
_EPS = 1e-12


@dataclass
class MCPrediction:
    """Result of a Monte-Carlo dropout prediction.

    Attributes:
        probs: per-sample softmax outputs, shape ``(T, N, K)``.
        mean_probs: Monte-Carlo posterior predictive, shape ``(N, K)``.
    """

    probs: np.ndarray

    @property
    def num_samples(self) -> int:
        """Number of Monte-Carlo forward passes ``T``."""
        return self.probs.shape[0]

    @property
    def mean_probs(self) -> np.ndarray:
        """Posterior predictive mean, shape ``(N, K)``."""
        return self.probs.mean(axis=0)

    def predictions(self) -> np.ndarray:
        """Hard class predictions from the posterior predictive."""
        return self.mean_probs.argmax(axis=1)

    def predictive_entropy(self) -> np.ndarray:
        """Total predictive entropy H[E[p]] per input, in nats.

        Probabilities are clipped into ``[_EPS, 1]`` inside the log, so
        saturated (one-hot) predictions yield exactly zero entropy
        instead of drifting slightly negative (``log(1 + eps) > 0``).
        """
        p = self.mean_probs
        return -(p * np.log(np.clip(p, _EPS, 1.0))).sum(axis=1)

    def expected_entropy(self) -> np.ndarray:
        """Expected per-pass entropy E[H[p]] (aleatoric part), in nats.

        Uses the same log clipping as :meth:`predictive_entropy` so the
        two entropy terms are computed consistently and each per-pass
        entropy is non-negative.
        """
        p = self.probs
        h = -(p * np.log(np.clip(p, _EPS, 1.0))).sum(axis=2)
        return h.mean(axis=0)

    def mutual_information(self) -> np.ndarray:
        """BALD epistemic uncertainty: H[E[p]] - E[H[p]], in nats."""
        return np.maximum(
            self.predictive_entropy() - self.expected_entropy(), 0.0)

    def row_slice(self, start: int, stop: int) -> "MCPrediction":
        """Input rows ``[start, stop)`` as their own prediction.

        The slice-stable entry point of the serving layer
        (:mod:`repro.serve`): every :class:`MCPrediction` reduction —
        ``mean_probs``, :meth:`predictions`, both entropy terms and
        :meth:`mutual_information` — is row-local (a reduction over the
        sample and class axes only), so for any rows of a fused batch

        ``pred.row_slice(a, b).predictive_entropy()``
        is bit-identical to ``pred.predictive_entropy()[a:b]``

        and likewise for every other reduction.  This is what lets a
        micro-batching service hand each caller exactly its rows of a
        fused posterior without recomputing (or perturbing) anything.
        The slice shares memory with the parent prediction.
        """
        if not 0 <= start <= stop <= self.probs.shape[1]:
            raise ValueError(
                f"row slice [{start}, {stop}) out of range for "
                f"{self.probs.shape[1]} rows")
        return MCPrediction(probs=self.probs[:, start:stop])


def _mc_layers(model: Module) -> List[DropoutLayer]:
    """All dropout layers (directly or via slots) inside ``model``."""
    return [m for m in model.modules() if isinstance(m, DropoutLayer)]


def _chunk_bounds(total: int, batch_size: Optional[int]):
    """Yield ``(start, rows)`` micro-batch bounds over ``total`` rows."""
    if batch_size is None or batch_size >= total:
        yield 0, total
        return
    for start in range(0, total, batch_size):
        yield start, min(batch_size, total - start)


def _finish(model: Module, layers: List[DropoutLayer], num_samples: int,
            was_training: bool) -> None:
    """Restore mode and leave sample counters as after ``T`` passes."""
    for layer in layers:
        layer.reset_samples()
        for _ in range(num_samples):
            layer.new_sample()
    if was_training:
        model.train()


def mc_predict_span(model: Module, images: np.ndarray,
                    num_samples: int = 3, *,
                    pass_start: int = 0,
                    pass_stop: Optional[int] = None,
                    batch_size: Optional[int] = None) -> np.ndarray:
    """Passes ``[pass_start, pass_stop)`` of a ``T``-sample prediction.

    The partial-evaluation form of the looped oracle: the mask plan is
    still drawn at the canonical ``(num_samples, N, ...)`` full-batch
    shape (the stream is a function of ``num_samples`` and the input
    batch only, never of the span), and each requested pass runs as a
    full-row forward — so ``mc_predict_span(m, x, T, pass_start=a,
    pass_stop=b)`` is bit-identical to ``mc_predict(m, x, T).probs[a:b]``
    for any sub-span.  This is what lets a replica pool
    (:mod:`repro.serve.replicas`) split one fused batch across processes
    along the pass axis without perturbing a single bit: every GEMM in
    every pass keeps the exact row count of the single-process
    reference, which a *row* split would not (BLAS rounding depends on
    the GEMM's row count; see the module docstring).

    Returns the raw probabilities, shape ``(pass_stop - pass_start, N,
    K)`` — a span is not a complete posterior, so it is not wrapped in
    :class:`MCPrediction`.
    """
    check_positive_int(num_samples, "num_samples")
    if pass_stop is None:
        pass_stop = num_samples
    if not 0 <= pass_start < pass_stop <= num_samples:
        raise ValueError(
            f"pass span [{pass_start}, {pass_stop}) out of range for "
            f"{num_samples} Monte-Carlo samples")
    was_training = model.training
    model.eval()
    layers = _mc_layers(model)
    for layer in layers:
        layer.reset_samples()
    n = images.shape[0]
    ctx = MCBatchContext(num_samples, n)
    all_probs = []
    with mc_batch(ctx):
        for t in range(pass_start, pass_stop):
            ctx.set_sample(t)
            chunks = []
            for start, rows in _chunk_bounds(n, batch_size):
                ctx.set_chunk(start, rows)
                chunks.append(model(images[start:start + rows]))
            logits = chunks[0] if len(chunks) == 1 else np.concatenate(
                chunks, axis=0)
            all_probs.append(softmax(logits, axis=1))
    _finish(model, layers, num_samples, was_training)
    return np.stack(all_probs, axis=0)


def mc_predict_looped(model: Module, images: np.ndarray,
                      num_samples: int = 3, *,
                      batch_size: Optional[int] = None) -> MCPrediction:
    """Reference oracle: ``T`` sequential stochastic forward passes.

    Masks come from the canonical plan (full-batch shape, pass-major),
    so with ``batch_size=None`` this is bit-identical to the historic
    per-pass in-layer sampling, and with micro-batching the mask stream
    is unchanged — only activations are processed in chunks.
    """
    return MCPrediction(probs=mc_predict_span(
        model, images, num_samples, batch_size=batch_size))


def mc_predict(model: Module, images: np.ndarray, num_samples: int = 3, *,
               batch_size: Optional[int] = None) -> MCPrediction:
    """Run ``num_samples`` stochastic forward passes over ``images``.

    The model is put in eval mode (frozen batch-norm statistics) while
    its MC-dropout layers stay stochastic — the defining behaviour of
    dropout-based BayesNN inference.  Static designs rotate through
    their mask families via the canonical mask plan.

    All ``T`` samples run in one fused forward pass: the shared
    pre-dropout prefix is computed once per chunk, the first stochastic
    dropout layer tiles its activation across samples, and the fused
    suffix runs under :func:`inference_mode`.  The result is
    bit-identical to :func:`mc_predict_looped` for any fixed
    ``batch_size`` (see the module docstring).

    Args:
        model: network containing MC-dropout layers (possibly none, in
            which case all passes are identical).
        images: input batch ``(N, C, H, W)`` or features ``(N, D)``.
        num_samples: number of Monte-Carlo passes ``T`` (the paper's
            experiments use ``T = 3``).
        batch_size: optional micro-batch size bounding the *input* rows
            per chunk (each chunk still carries all ``T`` samples), so
            the forward working set scales with ``T * batch_size``
            rather than ``T * len(images)``.  Mask plans are the
            exception: they are always drawn at the canonical
            full-batch shape (that is what makes the random stream
            micro-batch invariant), so each stochastic layer holds one
            ``(T, N, ...)``-sized mask array for the duration of the
            call.

    Returns:
        An :class:`MCPrediction` with per-pass probabilities.
    """
    check_positive_int(num_samples, "num_samples")
    was_training = model.training
    model.eval()
    layers = _mc_layers(model)
    for layer in layers:
        layer.reset_samples()
    n = images.shape[0]
    ctx = MCBatchContext(num_samples, n)
    chunk_probs = []
    with inference_mode(), mc_batch(ctx):
        for start, rows in _chunk_bounds(n, batch_size):
            ctx.set_sample(None)
            ctx.set_chunk(start, rows)
            logits = model(images[start:start + rows])
            if logits.shape[0] == num_samples * rows:
                stacked = logits.reshape(num_samples, rows, -1)
                chunk_probs.append(softmax(stacked, axis=2))
            elif logits.shape[0] == rows:
                # No stochastic layer fired: all passes are identical,
                # so one softmax is broadcast across the samples.
                p = softmax(logits, axis=1)
                chunk_probs.append(
                    np.broadcast_to(p, (num_samples,) + p.shape))
            else:
                raise RuntimeError(
                    f"model returned batch {logits.shape[0]} for chunk of "
                    f"{rows} rows and {num_samples} MC samples")
    probs = chunk_probs[0] if len(chunk_probs) == 1 else np.concatenate(
        chunk_probs, axis=1)
    _finish(model, layers, num_samples, was_training)
    return MCPrediction(probs=np.ascontiguousarray(probs))
