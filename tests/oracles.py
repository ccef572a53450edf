"""Test oracles: the reference paths production code never runs.

Inference always runs the fused MC engine (:func:`repro.bayes.mc.
mc_predict`) and training always runs the in-place optimizer updates
and the workspace layer kernels (:mod:`repro.nn.fastpath`).  The
library has one code path per operation; the textbook references they
are compared against live here, and only here:

* :func:`mc_predict_looped` — the MC oracle, ``T`` sequential passes
  over one pass's slice of the same canonical mask plan, the network
  prefix included, every GEMM unsliced and the max pools and ReLUs on
  their textbook kernels, for direct comparisons against
  ``mc_predict``;
* :func:`looped_mc` routes the candidate evaluator (through
  :mod:`repro.bayes.evaluate`) and the serving deployment
  (:meth:`repro.serve.Deployment.predict`, and the pooled float shards'
  :meth:`~repro.serve.Deployment.predict_span` through
  :func:`mc_predict_span_looped`) onto the looped oracle;
* :func:`reference_optimizers` swaps ``SGD.step`` and ``Adam.step``
  for the fresh-array textbook updates;
* :func:`reference_layers` swaps the :class:`~repro.nn.MaxPool2d`
  forward and backward for the ``argmax`` window reduction and the
  ``np.add.at`` scatter, and the :class:`~repro.nn.ReLU` passes for
  their ``np.where`` forms;
* :func:`reference_training` runs :mod:`repro.search.trainer` on the
  reference trajectory: both of the above, and no persistent training
  workspace (every layer buffer fresh);
* :func:`reference_float_ops` swaps the float engine's operators —
  ``pad2d``/``im2col`` (the fixed kernel's conv lowering included),
  :class:`~repro.nn.BatchNorm2d` and the Bernoulli, Block and Random
  mask samplers — for their
  straightforward forms (``np.pad`` and one strided window copy, a
  ``(N, C, H, W)`` broadcast, ``np.where`` and divide-then-cast, a
  ``block x block`` dilation loop, a per-pass sequential plan), kept
  verbatim as the byte reference the faster library forms must equal:
  the looped MC oracle runs the same module forwards, so it cannot see
  a byte change in them;
* :func:`fixed_predict_looped` is the fixed-point kernel's oracle:
  ``T`` per-pass forwards through the model's own Python forward, every
  traced leaf running its plan's unfused op on ``int64`` codes between
  a quantize and a grid conversion — independent of the kernel's graph,
  its fusions and its dtypes — against which the folded sweep of
  :meth:`repro.hw.compile.CompiledKernel.predict` (float64 codes where
  certified) is compared; :func:`gemm_log` records which GEMM path a
  kernel call really ran and :func:`code_log` which code dtype every
  op and mask plan ran on;
* :func:`ece_from_reliability_diagram` is the calibration metric's
  oracle: a reliability diagram filled row by row, recomposed into the
  expected calibration error;
* :func:`gp_fit_reference` is the GP cost model's fit on
  finite-difference gradients (L-BFGS-B differencing
  :func:`gp_nlml_reference`, the likelihood alone, from LU solves on
  the Cholesky factor), and :func:`reference_gp_fit` swaps it in for
  :meth:`repro.hw.gp.GaussianProcessRegressor.fit`;
* :func:`make_mnist_like_reference`, :func:`make_svhn_like_reference`
  and :func:`make_cifar_like_reference` render the synthetic datasets
  one image at a time, the byte reference for the block renderers of
  :mod:`repro.data.synthetic`.

The patches are process-global, so worker processes forked inside the
block (evaluation pools, replica pools) inherit them.
:func:`mc_engine` and :func:`train_mode` map the path names onto the
contexts so suites can parametrize over production and oracle alike.
``tests/test_oracles.py`` checks that every context selects what it
claims.
"""

from __future__ import annotations

import contextlib
import functools
import math
import zlib
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
from scipy import optimize

import repro.hw.compile.kernel as kernel_module
import repro.hw.gp as gp_module
import repro.nn.conv as conv_module
import repro.nn.functional as functional_module
import repro.nn.pool as pool_module
from repro.bayes.mc import MCPrediction, _mc_run
from repro.data.dataset import Dataset
from repro.data.fonts import digit_glyph, upsample_glyph
from repro.dropout import BernoulliDropout, BlockDropout, RandomDropout
from repro.dropout.base import (
    GRANULARITY_CHANNEL,
    GRANULARITY_POINT,
    _validate_conv_input,
)
from repro.hw.compile.kernel import CompiledKernel, LayerPlan
from repro.hw.netlist import (
    KIND_DROPOUT,
    KIND_FLATTEN,
    KIND_IDENTITY,
    traced_leaves,
)
from repro.nn import SGD, Adam, BatchNorm2d, MaxPool2d, ReLU
from repro.nn.functional import conv_output_size, softmax
from repro.nn.inference import MCBatchContext, is_inference
from repro.nn.module import DTYPE
from repro.nn.pool import _windows
from repro.search import trainer
from repro.utils.rng import SeedLike, derive_seed, new_rng
from repro.utils.validation import check_positive_int, check_shape_4d

#: MC inference paths: the production engine, then its oracle.
ENGINES = ("batched", "looped")

#: Training paths: the production fast path, then its oracle.
TRAIN_MODES = ("fast", "reference")


# ----------------------------------------------------------------------
# The looped MC oracle
# ----------------------------------------------------------------------
class _LoopedBatch(MCBatchContext):
    """One Monte-Carlo pass at a time: :attr:`sample` picks pass ``t``'s
    slice of the same canonical plan, and no GEMM is sliced."""

    sample = 0

    def apply(self, layer, x: np.ndarray) -> np.ndarray:
        return np.multiply(x, self.masks_for(layer, x.shape[1:])[self.sample])

    def linear_slices(self, batch_rows: int) -> Optional[int]:
        return None


def mc_predict_looped(model, images: np.ndarray, num_samples: int = 3, *,
                      plans: Optional[Dict[int, np.ndarray]] = None
                      ) -> MCPrediction:
    """Reference oracle: ``T`` sequential stochastic forward passes.

    Every pass runs the whole network, prefix included, outside
    :func:`~repro.nn.inference.inference_mode`, on the textbook
    max-pool and ReLU kernels (:func:`reference_layers`).  Masks come
    from the canonical plan (full-batch shape, pass-major), read from
    and drawn into ``plans`` as the engine does, so this is
    bit-identical to the historic per-pass in-layer sampling.
    """
    check_positive_int(num_samples, "num_samples")
    ctx = _LoopedBatch(num_samples, images.shape[0], plans=plans)
    all_probs = []
    with _mc_run(model, ctx), reference_layers():
        for t in range(num_samples):
            ctx.sample = t
            all_probs.append(softmax(model(images), axis=1))
    return MCPrediction(probs=np.stack(all_probs, axis=0))


def mc_predict_span_looped(model, images: np.ndarray,
                           num_samples: int = 3, *, pass_start: int = 0,
                           pass_stop: Optional[int] = None,
                           plans: Optional[Dict[int, np.ndarray]] = None
                           ) -> np.ndarray:
    """The looped oracle's pass span: a slice of all ``T`` passes."""
    return mc_predict_looped(model, images, num_samples,
                             plans=plans).probs[pass_start:pass_stop]


@contextlib.contextmanager
def looped_mc():
    """Serve evaluator and deployment MC calls from the looped oracle."""
    with mock.patch("repro.bayes.evaluate.mc_predict", mc_predict_looped), \
            mock.patch("repro.serve.deployment.mc_predict",
                       mc_predict_looped), \
            mock.patch("repro.serve.deployment.mc_predict_span",
                       mc_predict_span_looped):
        yield


# ----------------------------------------------------------------------
# The reference training trajectory
# ----------------------------------------------------------------------
def sgd_step_reference(self) -> None:
    """:meth:`SGD.step` through fresh intermediate arrays."""
    for i, p in enumerate(self.params):
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        if self.momentum:
            v = self._velocity.get(i)
            if v is None:
                v = np.zeros_like(p.data)
            v = self.momentum * v + g
            self._velocity[i] = v
            g = v
        p.data -= (self.lr * g).astype(DTYPE)


def adam_step_reference(self) -> None:
    """:meth:`Adam.step` through fresh intermediate arrays."""
    self._t += 1
    b1, b2 = self.betas
    bc1 = 1.0 - b1 ** self._t
    bc2 = 1.0 - b2 ** self._t
    for i, p in enumerate(self.params):
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        m = self._m.get(i)
        v = self._v.get(i)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        self._m[i] = m
        self._v[i] = v
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        p.data -= (self.lr * update).astype(DTYPE)


def max_pool_forward_reference(self, x: np.ndarray) -> np.ndarray:
    """:meth:`MaxPool2d.forward` as one window reduction, caching the
    ``argmax`` of every window."""
    x = check_shape_4d(x, "x")
    self._x_shape = x.shape
    xp = self._padded(x)
    win = _windows(xp, self.kernel_size, self.stride)
    n, c, oh, ow = win.shape[:4]
    flat = win.reshape(n, c, oh, ow, -1)
    self._argmax = flat.argmax(axis=-1)
    return np.ascontiguousarray(flat.max(axis=-1), dtype=DTYPE)


def max_pool_backward_reference(self, grad_out: np.ndarray) -> np.ndarray:
    """:meth:`MaxPool2d.backward` as one ``np.add.at`` scatter to the
    cached ``argmax`` positions."""
    if self._x_shape is None or getattr(self, "_argmax", None) is None:
        raise RuntimeError("backward called before forward")
    n, c, h, w = self._x_shape
    hp, wp = h + 2 * self.padding, w + 2 * self.padding
    grad_pad = np.zeros((n, c, hp, wp), dtype=DTYPE)
    oh, ow = grad_out.shape[2:]
    ki = self._argmax // self.kernel_size
    kj = self._argmax % self.kernel_size
    oi = np.arange(oh)[None, None, :, None] * self.stride
    oj = np.arange(ow)[None, None, None, :] * self.stride
    rows = (oi + ki).ravel()
    cols = (oj + kj).ravel()
    ni = np.repeat(np.arange(n), c * oh * ow)
    ci = np.tile(np.repeat(np.arange(c), oh * ow), n)
    np.add.at(grad_pad, (ni, ci, rows, cols), grad_out.ravel())
    if self.padding:
        grad_pad = grad_pad[:, :, self.padding:-self.padding,
                            self.padding:-self.padding]
    self._argmax = None
    self._x_shape = None
    return grad_pad


def relu_forward_reference(self, x: np.ndarray) -> np.ndarray:
    """:meth:`ReLU.forward` with an ``np.where`` select."""
    if is_inference():
        self._mask = None
        return np.maximum(x, 0).astype(DTYPE, copy=False)
    self._mask = x > 0
    return np.where(self._mask, x, 0.0).astype(DTYPE)


def relu_backward_reference(self, grad_out: np.ndarray) -> np.ndarray:
    """:meth:`ReLU.backward` with an ``np.where`` select."""
    if self._mask is None:
        raise RuntimeError("backward called before forward")
    grad = np.where(self._mask, grad_out, 0.0).astype(DTYPE)
    self._mask = None
    return grad


#: ``(owner, attribute, reference)`` of every binding
#: :func:`reference_optimizers` swaps.
OPTIMIZER_REFERENCES = (
    (SGD, "step", sgd_step_reference),
    (Adam, "step", adam_step_reference),
)

#: ``(owner, attribute, reference)`` of every binding
#: :func:`reference_layers` swaps.
LAYER_REFERENCES = (
    (MaxPool2d, "forward", max_pool_forward_reference),
    (MaxPool2d, "backward", max_pool_backward_reference),
    (ReLU, "forward", relu_forward_reference),
    (ReLU, "backward", relu_backward_reference),
)


@contextlib.contextmanager
def _swapped(references):
    with contextlib.ExitStack() as stack:
        for owner, name, reference in references:
            stack.enter_context(mock.patch.object(owner, name, reference))
        yield


def reference_optimizers():
    """Step ``SGD`` and ``Adam`` through the textbook updates."""
    return _swapped(OPTIMIZER_REFERENCES)


def reference_layers():
    """Run ``MaxPool2d`` and ``ReLU`` on their textbook kernels."""
    return _swapped(LAYER_REFERENCES)


@contextlib.contextmanager
def reference_training():
    """Train on the reference trajectory: textbook optimizer updates and
    layer kernels, and no persistent workspace."""
    with mock.patch.object(trainer, "fast_training",
                           contextlib.nullcontext), \
            reference_optimizers(), reference_layers():
        yield


# ----------------------------------------------------------------------
# The float engine's byte reference (see reference_float_ops)
# ----------------------------------------------------------------------
def pad2d_reference(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing spatial dimensions of ``(N, C, H, W)``."""
    if padding == 0:
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )


def im2col_reference(x: np.ndarray, kernel: int, stride: int, padding: int,
                     out: np.ndarray = None) -> np.ndarray:
    """Lower sliding windows of ``x`` to columns: one strided window
    copy at every map size."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, padding)
    ow = conv_output_size(w, kernel, stride, padding)
    xp = pad2d_reference(x, padding)
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


def batch_norm_forward_reference(self, x: np.ndarray) -> np.ndarray:
    """:meth:`BatchNorm2d.forward` with one ``(N, C, H, W)`` broadcast
    per op in both modes."""
    x = check_shape_4d(x, "x")
    if x.shape[1] != self.num_features:
        raise ValueError(
            f"expected {self.num_features} channels, got {x.shape[1]}")
    if self.training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        self.running_mean = (
            (1 - self.momentum) * self.running_mean + self.momentum * mean
        ).astype(DTYPE)
        self.running_var = (
            (1 - self.momentum) * self.running_var + self.momentum * var
        ).astype(DTYPE)
    else:
        mean = self.running_mean
        var = self.running_var
    inv_std = 1.0 / np.sqrt(var + self.eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    if self.training:
        self._cache = (x_hat, inv_std)
    y = (self.weight.data[None, :, None, None] * x_hat
         + self.bias.data[None, :, None, None])
    return y.astype(DTYPE)


def bernoulli_sample_mask_reference(self, shape) -> np.ndarray:
    keep = 1.0 - self.p
    if keep >= 1.0:
        return np.ones(shape, dtype=DTYPE)
    bern = self.rng.random(shape) < keep
    return (bern / keep).astype(DTYPE)


def bernoulli_sample_masks_reference(self, num_samples: int,
                                     shape) -> np.ndarray:
    check_positive_int(num_samples, "num_samples")
    self.reset_samples()
    keep = 1.0 - self.p
    if keep >= 1.0:
        masks = np.ones((num_samples,) + tuple(shape), dtype=DTYPE)
    else:
        bern = self.rng.random((num_samples,) + tuple(shape)) < keep
        masks = np.where(bern, DTYPE(1.0 / keep), DTYPE(0.0))
    self._sample_index = int(num_samples)
    return masks


def block_sample_mask_reference(self, shape) -> np.ndarray:
    _validate_conv_input(shape, "BlockDropout")
    n, c, h, w = shape
    if self.p == 0.0:
        return np.ones(shape, dtype=DTYPE)
    block = min(self.block_size, h, w)
    gamma = min(self._gamma(h, w, block), 1.0)
    valid_h = max(h - block + 1, 1)
    valid_w = max(w - block + 1, 1)
    seeds = self.rng.random((n, c, valid_h, valid_w)) < gamma
    drop = np.zeros(shape, dtype=bool)
    # Expand each seed to a block x block patch (max-pool dilation).
    for di in range(block):
        for dj in range(block):
            drop[:, :, di:di + valid_h, dj:dj + valid_w] |= seeds
    mask = (~drop).astype(DTYPE)
    kept = mask.sum(axis=(1, 2, 3), keepdims=True)
    total = float(c * h * w)
    # Per-sample renormalization; fully-dropped samples stay zero.
    scale = np.where(kept > 0, total / np.maximum(kept, 1.0), 0.0)
    return (mask * scale).astype(DTYPE)


def block_sample_masks_reference(self, num_samples: int,
                                 shape) -> np.ndarray:
    check_positive_int(num_samples, "num_samples")
    _validate_conv_input(shape, "BlockDropout")
    self.reset_samples()
    n, c, h, w = shape
    if self.p == 0.0:
        self._sample_index = int(num_samples)
        return np.ones((num_samples,) + tuple(shape), dtype=DTYPE)
    block = min(self.block_size, h, w)
    gamma = min(self._gamma(h, w, block), 1.0)
    valid_h = max(h - block + 1, 1)
    valid_w = max(w - block + 1, 1)
    seeds = self.rng.random(
        (num_samples, n, c, valid_h, valid_w)) < gamma
    drop = np.zeros((num_samples,) + tuple(shape), dtype=bool)
    for di in range(block):
        for dj in range(block):
            drop[:, :, :, di:di + valid_h, dj:dj + valid_w] |= seeds
    mask = (~drop).astype(DTYPE)
    kept = mask.sum(axis=(2, 3, 4), keepdims=True)
    total = float(c * h * w)
    scale = np.where(kept > 0, total / np.maximum(kept, 1.0), 0.0)
    self._sample_index = int(num_samples)
    return (mask * scale).astype(DTYPE)


def random_sample_mask_reference(self, shape) -> np.ndarray:
    keep = 1.0 - self.p
    if keep >= 1.0:
        return np.ones(shape, dtype=DTYPE)
    use_channel = self.rng.random() < self.channel_prob
    if use_channel:
        self._last_granularity = GRANULARITY_CHANNEL
        if len(shape) == 4:
            mask_shape = (shape[0], shape[1], 1, 1)
        elif len(shape) == 2:
            # For FC tensors "channel" degenerates to per-feature,
            # shared across the batch: drop whole columns.
            mask_shape = (1, shape[1])
        else:
            raise ValueError(
                f"RandomDropout expects 2-D or 4-D input, got shape "
                f"{tuple(shape)}")
        bern = self.rng.random(mask_shape) < keep
        mask = np.broadcast_to(bern, shape)
    else:
        self._last_granularity = GRANULARITY_POINT
        mask = self.rng.random(shape) < keep
    return (mask / keep).astype(DTYPE)


def sequential_sample_masks_reference(self, num_samples: int,
                                      shape) -> np.ndarray:
    """A mask plan as ``num_samples`` sequential one-pass draws."""
    check_positive_int(num_samples, "num_samples")
    self.reset_samples()
    masks = np.empty((num_samples,) + tuple(shape), dtype=DTYPE)
    for t in range(num_samples):
        masks[t] = self._sample_mask(tuple(shape))
        self.new_sample()
    return masks


#: ``(owner, attribute, reference)`` of every binding
#: :func:`reference_float_ops` swaps.
FLOAT_REFERENCES = (
    (functional_module, "pad2d", pad2d_reference),
    (functional_module, "im2col", im2col_reference),
    (conv_module, "im2col", im2col_reference),
    (pool_module, "pad2d", pad2d_reference),
    (kernel_module, "im2col", im2col_reference),
    (BatchNorm2d, "forward", batch_norm_forward_reference),
    (BernoulliDropout, "_sample_mask", bernoulli_sample_mask_reference),
    (BernoulliDropout, "sample_masks", bernoulli_sample_masks_reference),
    (BlockDropout, "_sample_mask", block_sample_mask_reference),
    (BlockDropout, "sample_masks", block_sample_masks_reference),
    (RandomDropout, "_sample_mask", random_sample_mask_reference),
    (RandomDropout, "sample_masks", sequential_sample_masks_reference),
)


def reference_float_ops():
    """Run the float operators, in training and inference and in the
    fixed kernel's conv lowering, on the byte reference."""
    return _swapped(FLOAT_REFERENCES)


def _int64_forward(plan: LayerPlan, masks: dict):
    """``plan``'s unfused ``int64`` op as a float leaf forward: quantize
    each input into the plan's input format, run the op, emit the exact
    grid values ``codes * 2**-fraction`` of its output format."""
    if plan.kind == KIND_FLATTEN:
        return lambda x: x.reshape(x.shape[0], -1)
    if plan.kind == KIND_IDENTITY:
        return lambda x: x
    op = kernel_module.plan_op(plan, np.int64)
    fmt_in, fmt_out = plan.in_format, plan.out_format

    def forward(*inputs):
        codes = [kernel_module._quantize(x, fmt_in, np.int64)
                 for x in inputs]
        if plan.kind == KIND_DROPOUT:
            codes.append(masks.get(plan.slot_name))
        return op(*codes) * 2.0 ** -fmt_out.fraction_bits
    return forward


def fixed_predict_looped(kernel: CompiledKernel, images: np.ndarray,
                         num_samples: int, *,
                         total_rows: Optional[int] = None,
                         row_start: int = 0) -> MCPrediction:
    """Fixed-point oracle: ``T`` separate ``int64`` forwards.

    Replays :meth:`CompiledKernel.predict`'s serving mask contract —
    the same reseed, the same ``(T, total_rows, ...)`` draw and the
    same row-window slice — but runs one ``rows``-row forward per pass
    (the deterministic prefix included) through a fresh instantiation's
    own Python forward, each traced leaf patched with its plan's
    unfused ``int64`` op (:func:`_int64_forward`), and softmaxes
    float32 logits as the kernel does.
    """
    model = kernel.deployment.instantiate()
    plans = {p.name: p for p in kernel.plans}
    masks = {}
    for name, _, module in traced_leaves(model.model):
        module.forward = _int64_forward(plans[name], masks)
    images = np.asarray(images, dtype=DTYPE)
    rows = images.shape[0]
    if total_rows is None:
        total_rows, row_start = rows, 0
    slots = {p.slot_name: p for p in kernel.dropout_plans}
    slot_order = [slot.name for slot in model.slots]
    mask_codes = []
    for index, layer in enumerate(model.active_dropout_layers()):
        plan = slots[slot_order[index]]
        layer.reseed(derive_seed(kernel.deployment.serve_seed, index))
        codes = plan.mask_format.to_fixed(layer.sample_masks(
            num_samples, (total_rows,) + plan.in_shape))
        if codes.shape[1] != 1:
            codes = codes[:, row_start:row_start + rows]
        mask_codes.append((plan.slot_name, codes))
    probs = np.empty((num_samples, rows, kernel.num_classes), dtype=DTYPE)
    for t in range(num_samples):
        masks.update(
            (name, np.broadcast_to(codes[t], (rows,) + codes.shape[2:]))
            for name, codes in mask_codes)
        probs[t] = softmax(model(images).astype(DTYPE), axis=1)
    return MCPrediction(probs=probs)


def gemm_log(fn) -> List[Tuple[np.dtype, int]]:
    """``(dtype, rows)`` of every conv/dense GEMM that ``fn()`` runs."""
    log = []
    matmul = kernel_module._matmul

    def spy(a, b):
        log.append((np.result_type(a, b),
                    b.shape[0] if b.ndim == 3 else a.shape[0]))
        return matmul(a, b)

    with mock.patch.object(kernel_module, "_matmul", spy):
        fn()
    return log


def code_log(fn) -> List[np.dtype]:
    """The dtype of the integer codes ``fn()`` computes on, in call order.

    Each quantization outside a kernel step — a drawn mask plan, or an
    oracle op's quantized input (the codes that op's arithmetic runs
    on) — then each arithmetic kernel step's output codes (the dtype
    its arithmetic ran in; the images a step quantizes are its own).
    """
    log = []
    depth = [0]
    quantize = kernel_module._quantize
    call = kernel_module.KernelOp.__call__

    def spy_quantize(x, fmt, dtype):
        codes = quantize(x, fmt, dtype)
        if not depth[0]:
            log.append(codes.dtype)
        return codes

    def spy_call(op, values, masks):
        depth[0] += 1
        try:
            codes = call(op, values, masks)
        finally:
            depth[0] -= 1
        if op.arithmetic:
            log.append(codes.dtype)
        return codes

    with mock.patch.object(kernel_module, "_quantize", spy_quantize), \
            mock.patch.object(kernel_module.KernelOp, "__call__", spy_call):
        fn()
    return log


# ----------------------------------------------------------------------
# The GP fit oracle
# ----------------------------------------------------------------------
def gp_nlml_reference(self, theta: np.ndarray, x: np.ndarray,
                      y_centered: np.ndarray) -> float:
    """The negative log marginal likelihood alone, from LU solves on the
    Cholesky factor: the objective L-BFGS-B differenced before
    :meth:`~repro.hw.gp.GaussianProcessRegressor.fit` had its exact
    gradient."""
    variance, lengthscales, noise = self._unpack(theta)
    n = x.shape[0]
    k = self._kernel(x, x, variance, lengthscales)
    k[np.diag_indices_from(k)] += noise ** 2 + gp_module._JITTER
    try:
        chol = np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        return 1e25
    alpha = np.linalg.solve(
        chol.T, np.linalg.solve(chol, y_centered))
    nlml = (0.5 * y_centered @ alpha
            + np.sum(np.log(np.diag(chol)))
            + 0.5 * n * math.log(2.0 * math.pi))
    return float(nlml)


def gp_fit_reference(self, x: np.ndarray, y: np.ndarray):
    """:meth:`~repro.hw.gp.GaussianProcessRegressor.fit` on
    finite-difference gradients: the same starts, bounds and restart
    seeds, with L-BFGS-B differencing :func:`gp_nlml_reference`."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2:
        raise ValueError(f"x must be (n, d), got shape {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"x has {x.shape[0]} rows but y has {y.shape[0]} entries")
    if x.shape[0] < 2:
        raise ValueError("GP regression needs at least two points")

    self._x_mean = x.mean(axis=0)
    self._x_scale = np.where(x.std(axis=0) > 1e-12, x.std(axis=0), 1.0)
    xs = self._standardize(x)
    self.mean_const = float(y.mean())
    yc = y - self.mean_const
    d = x.shape[1]

    y_std = float(yc.std()) or 1.0
    theta0 = self._pack(y_std ** 2, np.ones(d), max(self.init_noise, 1e-3))
    candidates = [theta0]
    restart_rng = np.random.default_rng(derive_seed(
        self._restart_seed, zlib.crc32(x.tobytes()),
        zlib.crc32(y.tobytes())))
    for _ in range(self.n_restarts if self.optimize_hyperparams else 0):
        candidates.append(
            theta0 + restart_rng.normal(0.0, 1.0, theta0.shape))

    nlml = functools.partial(gp_nlml_reference, self)
    best_theta, best_val = theta0, nlml(theta0, xs, yc)
    if self.optimize_hyperparams:
        for start in candidates:
            res = optimize.minimize(
                nlml, start, args=(xs, yc), method="L-BFGS-B",
                bounds=[gp_module._LOG_BOUNDS] * len(start))
            if res.fun < best_val:
                best_theta, best_val = res.x, float(res.fun)

    self.variance, self.lengthscales, self.noise = self._unpack(best_theta)
    k = self._kernel(xs, xs, self.variance, self.lengthscales)
    k[np.diag_indices_from(k)] += self.noise ** 2 + gp_module._JITTER
    self._chol = np.linalg.cholesky(k)
    self._alpha = np.linalg.solve(
        self._chol.T, np.linalg.solve(self._chol, yc))
    self._x = xs
    self._y = y
    return self


@contextlib.contextmanager
def reference_gp_fit():
    """Fit every GP, the cost model's included, with
    :func:`gp_fit_reference`."""
    with mock.patch.object(gp_module.GaussianProcessRegressor, "fit",
                           gp_fit_reference):
        yield


# ----------------------------------------------------------------------
# The synthetic-data oracles
# ----------------------------------------------------------------------
def blur3_reference(img: np.ndarray) -> np.ndarray:
    """Cheap 3x3 box blur used to soften glyph edges."""
    out = img.copy()
    out[1:-1, 1:-1] = (
        img[:-2, :-2] + img[:-2, 1:-1] + img[:-2, 2:]
        + img[1:-1, :-2] + img[1:-1, 1:-1] + img[1:-1, 2:]
        + img[2:, :-2] + img[2:, 1:-1] + img[2:, 2:]
    ) / 9.0
    return out


def render_digit_reference(digit: int, size: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Render one jittered digit glyph into a ``size x size`` canvas.

    The glyph fills most of the canvas and is jittered by a bounded
    offset around the centre (roughly +/- size/8), mimicking the loose
    centring of MNIST digits while keeping the task learnable from a
    few hundred examples.
    """
    canvas = np.zeros((size, size), dtype=np.float32)
    factor = max(1, int(round(size * 0.8 / 7)))
    glyph = upsample_glyph(digit_glyph(digit), factor)
    gh, gw = glyph.shape
    gh_fit, gw_fit = min(gh, size), min(gw, size)
    cy = (size - gh_fit) // 2
    cx = (size - gw_fit) // 2
    jitter = max(1, size // 8)
    dy = int(np.clip(cy + rng.integers(-jitter, jitter + 1), 0, size - gh_fit))
    dx = int(np.clip(cx + rng.integers(-jitter, jitter + 1), 0, size - gw_fit))
    intensity = rng.uniform(0.7, 1.0)
    canvas[dy:dy + gh_fit, dx:dx + gw_fit] = glyph[:gh_fit, :gw_fit] * intensity
    if rng.random() < 0.5:
        canvas = blur3_reference(canvas)
    return canvas


def make_mnist_like_reference(num_samples: int = 512, *,
                              image_size: int = 28,
                              noise_std: float = 0.15,
                              rng: SeedLike = None) -> Dataset:
    """Grayscale digit dataset in the role of MNIST.

    Args:
        num_samples: total images (balanced across the 10 digits).
        image_size: square side length.
        noise_std: additive Gaussian pixel-noise level.
        rng: seed or generator.
    """
    check_positive_int(num_samples, "num_samples")
    check_positive_int(image_size, "image_size")
    rng = new_rng(rng)
    images = np.zeros((num_samples, 1, image_size, image_size), dtype=DTYPE)
    labels = rng.integers(0, 10, size=num_samples)
    for i, lab in enumerate(labels):
        img = render_digit_reference(int(lab), image_size, rng)
        img = img + rng.normal(0.0, noise_std, size=img.shape)
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return Dataset(images, labels, name="mnist_like", num_classes=10)


def texture_background_reference(size: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """Random smooth color background of shape ``(3, size, size)``."""
    base = rng.uniform(0.1, 0.6, size=3).astype(np.float32)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32) / max(size - 1, 1)
    grad_dir = rng.uniform(-1.0, 1.0, size=(3, 2)).astype(np.float32) * 0.3
    bg = (base[:, None, None]
          + grad_dir[:, 0, None, None] * yy[None]
          + grad_dir[:, 1, None, None] * xx[None])
    bg += rng.normal(0.0, 0.03, size=bg.shape)
    return np.clip(bg, 0.0, 1.0).astype(np.float32)


def make_svhn_like_reference(num_samples: int = 512, *,
                             image_size: int = 32,
                             noise_std: float = 0.08,
                             rng: SeedLike = None) -> Dataset:
    """Colored digits over textured backgrounds, in the role of SVHN."""
    check_positive_int(num_samples, "num_samples")
    check_positive_int(image_size, "image_size")
    rng = new_rng(rng)
    images = np.zeros((num_samples, 3, image_size, image_size), dtype=DTYPE)
    labels = rng.integers(0, 10, size=num_samples)
    for i, lab in enumerate(labels):
        bg = texture_background_reference(image_size, rng)
        digit = render_digit_reference(int(lab), image_size, rng)
        color = rng.uniform(0.5, 1.0, size=3).astype(np.float32)
        img = bg * (1.0 - digit[None]) + color[:, None, None] * digit[None]
        img += rng.normal(0.0, noise_std, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    return Dataset(images, labels, name="svhn_like", num_classes=10)


def texture_class_reference(label: int, size: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Render one sample of the CIFAR-like texture class ``label``.

    Each class is a distinct parametric pattern family (stripes at a
    class-specific orientation/frequency, rings, checkers, blobs), so a
    convolutional net can learn them while per-sample phase/color jitter
    keeps the task from being trivial.
    """
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32) / max(size - 1, 1)
    phase = rng.uniform(0, 2 * np.pi)
    freq = 3.0 + (label % 5) * 1.5
    if label < 5:
        # Oriented sinusoidal stripes; orientation encodes the class.
        theta = label * np.pi / 5.0 + rng.normal(0.0, 0.06)
        field = np.sin(
            2 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy)
            + phase)
    elif label < 7:
        # Concentric rings with class-dependent frequency.
        cy, cx = rng.uniform(0.3, 0.7, size=2)
        r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        field = np.sin(2 * np.pi * freq * r + phase)
    elif label < 9:
        # Checkerboards at class-dependent scale.
        cells = 3 + 2 * (label - 7) + int(rng.integers(0, 2))
        field = np.sign(np.sin(np.pi * cells * xx + phase)
                        * np.sin(np.pi * cells * yy + phase))
    else:
        # Smooth blobs: mixture of Gaussians.
        field = np.zeros_like(xx)
        for _ in range(3):
            cy, cx = rng.uniform(0.0, 1.0, size=2)
            s2 = rng.uniform(0.01, 0.05)
            field += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s2))
        field = field / field.max() * 2.0 - 1.0
    tint = rng.uniform(0.3, 1.0, size=3).astype(np.float32)
    base = rng.uniform(0.0, 0.3, size=3).astype(np.float32)
    img = base[:, None, None] + tint[:, None, None] * (field[None] * 0.5 + 0.5)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def make_cifar_like_reference(num_samples: int = 512, *,
                              image_size: int = 32,
                              noise_std: float = 0.08,
                              rng: SeedLike = None) -> Dataset:
    """Class-conditional structured textures, in the role of CIFAR-10."""
    check_positive_int(num_samples, "num_samples")
    check_positive_int(image_size, "image_size")
    rng = new_rng(rng)
    images = np.zeros((num_samples, 3, image_size, image_size), dtype=DTYPE)
    labels = rng.integers(0, 10, size=num_samples)
    for i, lab in enumerate(labels):
        img = texture_class_reference(int(lab), image_size, rng)
        img += rng.normal(0.0, noise_std, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    return Dataset(images, labels, name="cifar_like", num_classes=10)


# ----------------------------------------------------------------------
# The calibration oracle
# ----------------------------------------------------------------------
def ece_from_reliability_diagram(probs: np.ndarray, labels: np.ndarray,
                                 num_bins: int = 10) -> float:
    """:func:`repro.bayes.metrics.expected_calibration_error`, from a
    reliability diagram filled one row at a time.

    A row goes to the first of ``num_bins`` equal-width bins whose
    upper edge is at or above its confidence: right-closed bins
    ``(lower, upper]``, the first one closed at 0.  The error is the
    count-weighted mean of each bin's ``|mean confidence - accuracy|``.
    """
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    bins: List[List[Tuple[float, float]]] = [[] for _ in range(num_bins)]
    for row, label in zip(np.asarray(probs, dtype=np.float64), labels):
        confidence = float(row.max())
        index = next(b for b in range(num_bins)
                     if confidence <= edges[b + 1])
        bins[index].append((confidence, float(int(row.argmax()) == label)))
    total = sum(len(members) for members in bins)
    return sum(len(members) / total * abs(
        sum(c for c, _ in members) / len(members)
        - sum(a for _, a in members) / len(members))
        for members in bins if members)


def mc_engine(name: str):
    """The context that runs MC inference on path ``name``."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINES}")
    return looped_mc() if name == "looped" else contextlib.nullcontext()


def train_mode(name: str):
    """The context that runs training on path ``name``."""
    if name not in TRAIN_MODES:
        raise ValueError(
            f"unknown train mode {name!r}; choose from {TRAIN_MODES}")
    return (reference_training() if name == "reference"
            else contextlib.nullcontext())


__all__ = [
    "ENGINES",
    "TRAIN_MODES",
    "code_log",
    "ece_from_reliability_diagram",
    "fixed_predict_looped",
    "gemm_log",
    "gp_fit_reference",
    "gp_nlml_reference",
    "looped_mc",
    "make_cifar_like_reference",
    "make_mnist_like_reference",
    "make_svhn_like_reference",
    "mc_engine",
    "mc_predict_looped",
    "mc_predict_span_looped",
    "reference_float_ops",
    "reference_gp_fit",
    "reference_layers",
    "reference_optimizers",
    "reference_training",
    "train_mode",
]
