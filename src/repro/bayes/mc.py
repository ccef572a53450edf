"""Monte-Carlo dropout inference (paper Sec. 2.1.2).

A dropout-based BayesNN produces its predictive distribution by running
``T`` stochastic forward passes with dropout *enabled at inference*;
each pass draws a fresh dropout mask (dynamic designs) or rotates to the
next pre-generated mask (Masksembles).  The Monte-Carlo average of the
per-pass softmax outputs approximates the Bayesian posterior predictive.

The engine
----------

:func:`mc_predict_span` / :func:`mc_predict`
    The Monte-Carlo samples are folded into a single forward pass: the
    deterministic *prefix* of the network (everything upstream of the
    first stochastic dropout layer) is computed once, the first
    stochastic layer tiles its activation to ``S * N`` rows, and the
    rest of the network processes all ``S`` samples in one fused sweep
    under :func:`repro.nn.inference.inference_mode` (no backward
    caches).  :func:`mc_predict_span` computes any pass span ``[a, b)``
    of a ``T``-sample prediction (``S = b - a``) — the float shard of
    the replica pool — and :func:`mc_predict` is its full span
    ``[0, T)`` wrapped in :class:`MCPrediction`.

Equivalence contract (enforced by ``tests/test_mc_equivalence.py``
against the textbook ``T`` sequential passes, which the suite keeps in
``tests/oracles.py``): for every pass span the engine produces the
**bit-identical** probabilities of ``T`` separate passes.  Two
mechanisms make this possible:

* *Canonical mask plans* — all ``T`` passes' masks are drawn through
  :meth:`DropoutLayer.sample_masks` at the input-batch shape in
  pass-major order, so the random stream is independent of the code
  path and of the pass span.
* *Batch-size-invariant operators* — convolution runs as per-image
  GEMMs, pooling/activations/frozen-norm are row-local, and linear
  layers slice the fused matrix back into per-sample GEMMs
  (:meth:`repro.nn.inference.MCBatchContext.linear_slices`), so every
  row is computed with the same BLAS call shape as in a single pass.

Plans can be passed in: ``plans=`` is a dict keyed by ``id(layer)``;
the engine reads the plans it finds there and draws only the ones it
lacks, into it.  The serving stack uses this to reuse one instance's
canonical plans across batches of one shape
(:meth:`repro.serve.Deployment.predict`); without ``plans=``, every
call draws a fresh plan.

An empty batch is refused with one ``ValueError`` (a Monte-Carlo
batch needs at least one row, :class:`repro.nn.inference.
MCBatchContext`), as the fixed kernel refuses it.

Note: layers that share one ``numpy.random.Generator`` *instance* would
interleave draws differently under a mask plan than under per-pass
in-layer sampling; every constructor in this library hands each layer
an independent stream, which keeps plans bit-compatible with the
pre-plan sequential behaviour.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dropout.base import DropoutLayer
from repro.nn.functional import softmax
from repro.nn.inference import MCBatchContext, inference_mode, mc_batch
from repro.nn.module import Module
from repro.utils.validation import check_positive_int

#: Numerical floor used inside logs.
_EPS = 1e-12

#: Largest Monte-Carlo sample count ``T`` a spec or a service accepts.
#: The paper serves ``T = 3``; 1024 leaves room for the ``T`` of about
#: 100 common in MC-dropout work while bounding every ``(T, N, ...)``
#: mask plan before it is allocated, and serving keeps such plans
#: resident (:class:`repro.nn.inference.MaskPlanCache`).
MAX_MC_SAMPLES = 1024


def check_mc_samples(value: int, name: str = "mc_samples") -> int:
    """``value`` as a positive int of at most :data:`MAX_MC_SAMPLES`;
    ``TypeError``/``ValueError`` otherwise."""
    value = check_positive_int(value, name)
    if value > MAX_MC_SAMPLES:
        raise ValueError(
            f"{name} must be at most {MAX_MC_SAMPLES}, got {value}")
    return value


def _pass_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the leading Monte-Carlo axis, summed pass by pass.

    numpy sums that axis pass by pass when the trailing axes hold two
    or more elements, but pairwise once ``T >= 8`` when they hold one
    (a single row's entropies), so a 1-row reduction would differ in
    the last bit from the same row of a batch.  Summing pass by pass
    for every shape keeps each reduction row-local.
    """
    total = np.zeros(values.shape[1:], dtype=values.dtype)
    for sample in values:
        total += sample
    return total / values.shape[0]


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
        return _pass_mean(self.probs)

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
        return _pass_mean(h)

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
        sample and class axes only, the sample axis summed pass by pass
        whatever the row count), so for any rows of a fused batch

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


@contextlib.contextmanager
def _mc_run(model: Module, ctx: MCBatchContext):
    """One prediction under ``ctx``: eval mode and fresh sample counters,
    then the training flag restored and every counter left as after
    ``T`` passes."""
    was_training = model.training
    model.eval()
    layers = _mc_layers(model)
    for layer in layers:
        layer.reset_samples()
    with mc_batch(ctx):
        yield
    for layer in layers:
        layer.reset_samples()
        for _ in range(ctx.num_samples):
            layer.new_sample()
    if was_training:
        model.train()


def mc_predict_span(model: Module, images: np.ndarray,
                    num_samples: int = 3, *,
                    pass_start: int = 0,
                    pass_stop: Optional[int] = None,
                    plans: Optional[Dict[int, np.ndarray]] = None
                    ) -> np.ndarray:
    """Passes ``[pass_start, pass_stop)`` of a ``T``-sample prediction.

    The fused engine (:func:`mc_predict` is its full span).  The mask
    plan is still drawn at the canonical ``(num_samples, N, ...)``
    shape, so the stream never depends on the span; the prefix runs
    once and the span's passes in one sweep, every GEMM at a single
    pass's row count.  So
    ``mc_predict_span(m, x, T, pass_start=a, pass_stop=b)`` is
    bit-identical to ``mc_predict(m, x, T).probs[a:b]`` for any
    sub-span.  This is what lets a replica pool
    (:mod:`repro.serve.replicas`) split one fused batch across processes
    along the pass axis without perturbing a single bit, which a *row*
    split would not (BLAS rounding depends on the GEMM's row count; see
    the module docstring).

    ``plans`` is the mask plan to read and draw into (see the module
    docstring).

    Returns the raw probabilities, shape ``(pass_stop - pass_start, N,
    K)`` — a span is not a complete posterior, so it is not wrapped in
    :class:`MCPrediction`.
    """
    check_positive_int(num_samples, "num_samples")
    rows = images.shape[0]
    ctx = MCBatchContext(num_samples, rows, pass_start=pass_start,
                         pass_stop=pass_stop, plans=plans)
    span = ctx.span
    with inference_mode(), _mc_run(model, ctx):
        logits = model(images)
    if logits.shape[0] == span * rows:
        probs = softmax(logits.reshape(span, rows, -1), axis=2)
    elif logits.shape[0] == rows:
        # No stochastic layer fired: all passes are identical, so one
        # softmax is broadcast across the samples.
        p = softmax(logits, axis=1)
        probs = np.broadcast_to(p, (span,) + p.shape)
    else:
        raise RuntimeError(
            f"model returned batch {logits.shape[0]} for {rows} rows and "
            f"{span} MC samples")
    return np.ascontiguousarray(probs)


def mc_predict(model: Module, images: np.ndarray, num_samples: int = 3, *,
               plans: Optional[Dict[int, np.ndarray]] = None
               ) -> MCPrediction:
    """Run ``num_samples`` stochastic forward passes over ``images``.

    The model is put in eval mode (frozen batch-norm statistics) while
    its MC-dropout layers stay stochastic — the defining behaviour of
    dropout-based BayesNN inference.  Static designs rotate through
    their mask families via the canonical mask plan.

    All ``T`` samples run in one fused forward pass: the shared
    pre-dropout prefix is computed once, the first stochastic dropout
    layer tiles its activation across samples, and the fused suffix
    runs under :func:`inference_mode`.  This is the full span of
    :func:`mc_predict_span`, and the result is bit-identical to ``T``
    sequential passes (see the module docstring).

    Args:
        model: network containing MC-dropout layers (possibly none, in
            which case all passes are identical).
        images: input batch ``(N, C, H, W)`` or features ``(N, D)``.
        num_samples: number of Monte-Carlo passes ``T`` (the paper's
            experiments use ``T = 3``).
        plans: the mask plan to read and draw into, keyed by
            ``id(layer)``; each stochastic layer's plan is one
            ``(T, N, ...)``-sized (or broadcast-compressed) mask array.
            Omitted, every plan is drawn fresh.

    Returns:
        An :class:`MCPrediction` with per-pass probabilities.
    """
    return MCPrediction(probs=mc_predict_span(
        model, images, num_samples, plans=plans))
