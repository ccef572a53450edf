"""The executable fixed-point kernel: quantized integer MC inference.

A :class:`CompiledKernel` is what :func:`repro.hw.compile.
compile_deployment` lowers a :class:`~repro.serve.Deployment` into —
the software twin of the synthesized FPGA datapath.  Every arithmetic
layer executes on **integer codes**:

* conv/linear MACs accumulate exact integer products of activation and
  weight codes (the widened-accumulator model; biases are pre-scaled
  to the accumulator's fraction), then requantize to the layer's
  output format with round-to-nearest-even and saturation — exactly
  the :class:`~repro.hw.fixed_point.FixedPointFormat` semantics;
* batch-norm folds to an integer scale/shift at inference statistics;
* max pooling is an order-free integer max, average pooling an integer
  sum with round-half-even division;
* MC-dropout replays the float engines' canonical mask-plan contract
  — per-slot ``reseed(derive_seed(serve_seed, slot))`` followed by a
  pass-major full-batch :meth:`~repro.dropout.base.DropoutLayer.
  sample_masks` draw — then quantizes each mask to the mask format and
  applies it as an integer multiply.  ``(deployment, seed, rows)``
  therefore remains a pure function, byte-identical across runs.

**One folded sweep.**  :meth:`CompiledKernel.predict` runs all ``T``
passes in a single forward.  Each slot's quantized mask plan is folded
pass-major into rows (row ``t * rows + i`` is pass ``t``, row ``i``;
row-broadcast plans are broadcast first), the deterministic prefix
before the first active slot runs once on the request rows, and that
slot tiles its input across the passes before multiplying by the mask.
Every op is row-local integer arithmetic, so the bytes equal ``T``
separate passes and any row window of a fused batch.

**GEMM path.**  A conv/dense GEMM runs in float64 on BLAS when the
layer's certified ``magnitude_bound``
(:func:`repro.analysis.certify.certify_plan`) is below ``2**53``, and
on ``int64`` ``matmul`` otherwise (:func:`gemm_dtype`).  Below the
bound every product and every partial sum is an integer float64 holds
exactly, whatever the BLAS blocking, thread count or FMA use, so the
float64 result cast back to ``int64`` (before the bias add and
``requantize``) equals the ``int64`` GEMM.  16-bit deployments
certify at about ``2**35``; wide ones (``<28,14>``: about ``2**59``)
keep ``int64``.

Between layers activations travel as *exact grid values* in float32
containers: every code of a format of at most 25 bits (``|code| <=
2**24``) times its scale is exactly representable in float32, so the
carrier is lossless there — re-quantizing a grid value is the
identity.  Wider formats are rounded on the carrier, deterministically
but not exactly: at ``<28,14>`` code ``hi - 1`` becomes ``hi``,
``lo + 1`` becomes ``lo`` and ``2**24 + 1`` becomes ``2**24``.  The
carrier lets arbitrary topologies (the ResNet residual adds) reuse the
model's own Python forward for wiring: a float add of two grids
followed by the consumer's requantization is mathematically identical
to the aligned integer add + saturate the hardware performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bayes.mc import MCPrediction
from repro.hw.compile.formats import ResolvedFormats
from repro.hw.fixed_point import FixedPointFormat
from repro.hw.netlist import (
    KIND_ACT,
    KIND_BN,
    KIND_CONV,
    KIND_DROPOUT,
    KIND_FLATTEN,
    KIND_GPOOL,
    KIND_IDENTITY,
    KIND_LINEAR,
    KIND_POOL,
    traced_leaves,
)
from repro.nn.functional import conv_output_size, im2col, softmax
from repro.nn.module import DTYPE
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive_int


class CompileError(ValueError):
    """The compiler cannot lower a deployment (or a kernel record)."""


# ----------------------------------------------------------------------
# Integer arithmetic primitives (fixed_point.py semantics)
# ----------------------------------------------------------------------
def round_shift(acc: np.ndarray, shift: int) -> np.ndarray:
    """Rescale integer codes by ``2**-shift``, round-half-to-even.

    The integer equivalent of ``np.rint(acc / 2**shift)`` — the exact
    rounding :meth:`FixedPointFormat.to_fixed` applies — implemented as
    an arithmetic shift plus a tie-aware carry.  Negative ``shift``
    scales up (exact).
    """
    acc = np.asarray(acc)
    if shift <= 0:
        return acc << (-shift)
    q = acc >> shift
    r = acc & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    return q + ((r > half) | ((r == half) & ((q & 1) == 1)))


def round_divide(acc: np.ndarray, divisor: int) -> np.ndarray:
    """Integer division with round-half-to-even (average pooling)."""
    q = acc // divisor
    r = acc - q * divisor
    twice = 2 * r
    return q + ((twice > divisor) | ((twice == divisor) & ((q & 1) == 1)))


def saturate(codes: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Clamp integer codes into the two's-complement range of ``fmt``."""
    lo = -(1 << (fmt.total_bits - 1))
    hi = (1 << (fmt.total_bits - 1)) - 1
    return np.clip(codes, lo, hi)


def requantize(acc: np.ndarray, from_fraction: int,
               fmt: FixedPointFormat) -> np.ndarray:
    """Accumulator codes at ``2**-from_fraction`` → saturated ``fmt``."""
    return saturate(round_shift(acc, from_fraction - fmt.fraction_bits),
                    fmt)


#: Integers of magnitude below this are exact in float64.
FLOAT64_EXACT = 1 << 53


def gemm_dtype(plan: "LayerPlan") -> type:
    """The dtype a conv/dense plan runs its GEMM in.

    ``float64`` (BLAS) when the plan's certified ``magnitude_bound``
    (:func:`repro.analysis.certify.certify_plan`) is below ``2**53``:
    every product and partial sum is then an integer float64 holds
    exactly, whatever the BLAS blocking, thread count or FMA use, so
    the result equals the ``int64`` one.  ``int64`` otherwise.
    """
    from repro.analysis.certify import certify_plan
    bound = certify_plan(plan).magnitude_bound
    return np.float64 if bound < FLOAT64_EXACT else np.int64


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as ``int64`` accumulator codes, on either GEMM path."""
    return np.matmul(a, b).astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# Layer plans
# ----------------------------------------------------------------------
@dataclass
class LayerPlan:
    """One lowered layer: formats, attributes and integer tensors.

    Attributes:
        name: traced module path inside the backbone.
        kind: netlist ``KIND_*`` constant.
        in_shape / out_shape: per-image tensor shapes.
        in_format / out_format: activation formats at the layer edges.
        weight_format: per-tensor parameter format, when parameters
            exist (conv/linear weights, BN scale, LeakyReLU slope).
        mask_format: dropout-mask format (dropout slots only).
        attrs: JSON-able layer attributes (stride, padding, slope, ...).
        tensors: pre-quantized integer arrays (int64 codes).
        weight_error: mean absolute quantization error of the weights.
        dropout_code / slot_name: dropout provenance, when applicable.
    """

    name: str
    kind: str
    in_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]
    in_format: FixedPointFormat
    out_format: FixedPointFormat
    weight_format: Optional[FixedPointFormat] = None
    mask_format: Optional[FixedPointFormat] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    tensors: Dict[str, np.ndarray] = field(default_factory=dict)
    weight_error: float = 0.0
    dropout_code: Optional[str] = None
    slot_name: Optional[str] = None

    @property
    def accum_fraction(self) -> int:
        """Fraction bits carried by this layer's accumulator."""
        if self.weight_format is not None:
            return (self.in_format.fraction_bits
                    + self.weight_format.fraction_bits)
        if self.mask_format is not None:
            return (self.in_format.fraction_bits
                    + self.mask_format.fraction_bits)
        return self.in_format.fraction_bits

    def to_dict(self) -> dict:
        """JSON part of the plan (tensors travel in the ``.npz``)."""
        def enc(fmt: Optional[FixedPointFormat]):
            return None if fmt is None else [fmt.total_bits,
                                             fmt.fraction_bits]
        return {
            "name": self.name,
            "kind": self.kind,
            "in_shape": list(self.in_shape),
            "out_shape": list(self.out_shape),
            "in_format": enc(self.in_format),
            "out_format": enc(self.out_format),
            "weight_format": enc(self.weight_format),
            "mask_format": enc(self.mask_format),
            "attrs": self.attrs,
            "tensor_keys": sorted(self.tensors),
            "weight_error": float(self.weight_error),
            "dropout_code": self.dropout_code,
            "slot_name": self.slot_name,
        }

    @classmethod
    def from_dict(cls, payload: dict,
                  tensors: Dict[str, np.ndarray]) -> "LayerPlan":
        """Rebuild a plan from its JSON record plus its tensors."""
        def dec(entry):
            if entry is None:
                return None
            return FixedPointFormat(total_bits=int(entry[0]),
                                    fraction_bits=int(entry[1]))
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            in_shape=tuple(payload["in_shape"]),
            out_shape=tuple(payload["out_shape"]),
            in_format=dec(payload["in_format"]),
            out_format=dec(payload["out_format"]),
            weight_format=dec(payload.get("weight_format")),
            mask_format=dec(payload.get("mask_format")),
            attrs=dict(payload.get("attrs") or {}),
            tensors=tensors,
            weight_error=float(payload.get("weight_error", 0.0)),
            dropout_code=payload.get("dropout_code"),
            slot_name=payload.get("slot_name"),
        )


# ----------------------------------------------------------------------
# The executable kernel
# ----------------------------------------------------------------------
class CompiledKernel:
    """Quantized integer MC-dropout inference over a deployment.

    Build through :func:`repro.hw.compile.compile_deployment` (or
    :meth:`load`); execute through :meth:`predict`, which returns the
    same :class:`~repro.bayes.mc.MCPrediction` record the float engines
    produce, so the serving stack can treat both backends uniformly.

    Determinism contract: :meth:`predict` replays the deployment's
    serving mask contract on the kernel's *private* model instance, and
    every arithmetic step is integer — the probabilities are a pure
    function of ``(deployment, serve_seed, images, T)``, byte-identical
    across processes, and the float engines' state is never touched.
    """

    def __init__(self, deployment, plans: List[LayerPlan]) -> None:
        self.deployment = deployment
        self.plans = list(plans)
        self._model = None
        self._slot_order: List[str] = []
        self._pass_masks: Dict[str, np.ndarray] = {}
        by_name = {}
        for plan in self.plans:
            if plan.name in by_name:
                raise CompileError(
                    f"duplicate traced layer name {plan.name!r}; the "
                    f"kernel requires single-use modules")
            by_name[plan.name] = plan
        self._plans_by_name = by_name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dropout_plans(self) -> List[LayerPlan]:
        """The dropout-slot plans, in execution order."""
        return [p for p in self.plans if p.kind == KIND_DROPOUT]

    @property
    def num_classes(self) -> int:
        """Classifier width of the lowered network."""
        return int(np.prod(self.plans[-1].out_shape))

    def resolved_formats(self) -> Dict[str, ResolvedFormats]:
        """Per-layer number formats, keyed by traced layer name.

        The record the code generator consumes
        (:meth:`repro.hw.codegen.HLSEmitter.emit` ``formats=``), so the
        emitted HLS typedefs and this executable kernel can never
        disagree about a layer's formats.
        """
        from repro.hw.compile.formats import accumulator_format
        resolved = {}
        for plan in self.plans:
            weight = plan.weight_format or plan.mask_format
            accum = None
            bias = None
            if weight is not None:
                accum = accumulator_format(plan.in_format, weight)
                if ("bias" in plan.tensors or "shift" in plan.tensors):
                    bias = accum
            resolved[plan.name] = ResolvedFormats(
                activation=plan.out_format, weight=weight,
                bias=bias, accum=accum)
        return resolved

    def layer_rows(self) -> List[dict]:
        """Flat per-layer summary rows (fidelity report / tables)."""
        rows = []
        for plan in self.plans:
            rows.append({
                "name": plan.name,
                "kind": plan.kind,
                "activation_format": str(plan.out_format),
                "weight_format": (str(plan.weight_format)
                                  if plan.weight_format else None),
                "weight_error": plan.weight_error,
                "dropout_code": plan.dropout_code,
            })
        return rows

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def predict(self, images: np.ndarray,
                num_samples: Optional[int] = None, *,
                total_rows: Optional[int] = None,
                row_start: int = 0) -> MCPrediction:
        """``T`` quantized Monte-Carlo passes under the serving contract.

        Mirrors :meth:`repro.serve.Deployment.predict`: every active
        dropout slot is reseeded from ``derive_seed(serve_seed, slot)``
        and draws its canonical pass-major full-batch mask plan; the
        plans are quantized to the mask format, folded pass-major into
        rows and applied as integer multiplies inside one fixed-point
        sweep over all ``T`` passes (see the module docstring).

        ``total_rows``/``row_start`` evaluate ``images`` as a row
        window of a larger fused batch: the mask plan is drawn at the
        canonical ``(T, total_rows, ...)`` shape and sliced to the
        window, and because every arithmetic step is exact integer
        arithmetic (row-local by construction; the float64 GEMMs run
        only where the certificate proves them exact) the result is
        byte-identical to rows ``[row_start, row_start + n)`` of a full
        ``predict`` on the fused batch.  This is the fixed backend's
        sharding primitive (:mod:`repro.serve.replicas`).

        Returns:
            An :class:`MCPrediction` whose per-pass probabilities are
            softmax over the dequantized integer logits.
        """
        deployment = self.deployment
        if num_samples is None:
            num_samples = deployment.spec.mc_samples
        check_positive_int(num_samples, "num_samples")
        images = np.asarray(images, dtype=DTYPE)
        expected = deployment.input_shape
        if images.ndim != 1 + len(expected) or images.shape[1:] != expected:
            raise ValueError(
                f"kernel input must be a batch of shape "
                f"(n,) + {expected}, got {images.shape}")
        model = self._ensure_model()
        rows = images.shape[0]
        if total_rows is None:
            total_rows, row_start = rows, 0
        total_rows, row_start = int(total_rows), int(row_start)
        if not 0 <= row_start <= row_start + rows <= total_rows:
            raise ValueError(
                f"row window [{row_start}, {row_start + rows}) out of "
                f"range for a fused batch of {total_rows} rows")

        # Canonical mask plans, quantized (the serving reseed contract),
        # drawn at the fused-batch shape, sliced to our window and folded
        # pass-major into rows: row ``t * rows + i`` is pass t, row i.
        plans = {p.slot_name: p for p in self.dropout_plans}
        folded: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(model.active_dropout_layers()):
            plan = plans[self._slot_order[index]]
            layer.reseed(derive_seed(deployment.serve_seed, index))
            masks = layer.sample_masks(num_samples,
                                       (total_rows,) + plan.in_shape)
            codes = plan.mask_format.to_fixed(masks)
            if codes.shape[1] != 1:
                # Row-broadcast plans (one mask per pass) need no slice.
                codes = codes[:, row_start:row_start + rows]
            tail = codes.shape[2:]
            folded[plan.slot_name] = np.broadcast_to(
                codes, (num_samples, rows) + tail).reshape(
                    (num_samples * rows,) + tail)

        # One sweep: the prefix runs on ``rows`` rows, the first active
        # slot tiles it across the passes, the suffix runs folded.
        self._pass_masks = folded
        try:
            logits = model(images)
        finally:
            self._pass_masks = {}
        shape = (num_samples, rows, self.num_classes)
        if logits.shape[0] == num_samples * rows:
            probs = softmax(logits.reshape(shape), axis=2)
        else:
            # No active slot: every pass is the same single pass.
            probs = np.broadcast_to(softmax(logits, axis=1), shape)
        return MCPrediction(probs=np.ascontiguousarray(probs))

    # ------------------------------------------------------------------
    # Tensor sharing (replica pools)
    # ------------------------------------------------------------------
    def tensor_arrays(self) -> Dict[str, np.ndarray]:
        """Every plan tensor, flat-keyed ``"<layer name>/<tensor key>"``.

        The zero-copy surface of the kernel: a replica pool copies
        these arrays into shared memory once and hands the views back
        through :meth:`rebind_tensors`, so N forked workers execute the
        same physical weight pages.
        """
        arrays: Dict[str, np.ndarray] = {}
        for plan in self.plans:
            for key, tensor in plan.tensors.items():
                arrays[f"{plan.name}/{key}"] = tensor
        return arrays

    def rebind_tensors(self, arrays: Dict[str, np.ndarray]) -> None:
        """Repoint plan tensors at ``arrays`` (shared-memory views).

        Keys follow :meth:`tensor_arrays`; shapes and dtypes must match
        the tensors being replaced (the values are expected to be
        byte-equal copies — rebinding relocates storage, it never
        changes arithmetic).  Invalidates the private patched model so
        the integer ops re-capture the new arrays, and rebuild their
        private float64 weight copies from them, on next use.
        """
        for plan in self.plans:
            for key in plan.tensors:
                flat = f"{plan.name}/{key}"
                if flat not in arrays:
                    continue
                old, new = plan.tensors[key], arrays[flat]
                if new.shape != old.shape or new.dtype != old.dtype:
                    raise CompileError(
                        f"rebind of {flat!r} changes "
                        f"{old.dtype}{old.shape} to {new.dtype}{new.shape}")
                plan.tensors[key] = new
        self._model = None
        self._slot_order = []

    def warm(self) -> "CompiledKernel":
        """Instantiate and patch the private model now.

        Replica pools call this before forking so every worker inherits
        the already-built model (its captured shared tensors and the
        float64 weight copies built from them) instead of paying
        instantiation per process.
        """
        self._ensure_model()
        return self

    # ------------------------------------------------------------------
    # Private model wiring
    # ------------------------------------------------------------------
    def _ensure_model(self):
        """Instantiate (once) the private supernet with integer leaves."""
        if self._model is None:
            model = self.deployment.instantiate()
            self._slot_order = [slot.name for slot in model.slots]
            self._patch(model.model)
            self._model = model
        return self._model

    def _patch(self, backbone) -> None:
        """Replace every planned leaf's forward with its integer op."""
        seen = set()
        for name, _, module in traced_leaves(backbone):
            plan = self._plans_by_name.get(name)
            if plan is None:
                continue
            seen.add(name)
            module.forward = self._fixed_op(plan, module)
        missing = set(self._plans_by_name) - seen
        if missing:
            raise CompileError(
                f"compiled plans {sorted(missing)} have no matching "
                f"module in a fresh instantiation; the deployment and "
                f"kernel records disagree")

    # ------------------------------------------------------------------
    # Integer layer ops
    # ------------------------------------------------------------------
    def _fixed_op(self, plan: LayerPlan, module):
        kind = plan.kind
        if kind == KIND_CONV:
            return self._conv_op(plan)
        if kind == KIND_LINEAR:
            return self._linear_op(plan)
        if kind == KIND_BN:
            return self._bn_op(plan)
        if kind == KIND_ACT:
            return self._act_op(plan)
        if kind == KIND_POOL:
            return self._pool_op(plan)
        if kind == KIND_GPOOL:
            return self._gpool_op(plan)
        if kind == KIND_DROPOUT:
            return self._dropout_op(plan)
        if kind == KIND_FLATTEN:
            return lambda x: x.reshape(x.shape[0], -1)
        if kind == KIND_IDENTITY:
            return lambda x: x
        raise CompileError(f"no integer lowering for layer kind {kind!r}")

    def _conv_op(self, plan: LayerPlan):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        gemm = gemm_dtype(plan)
        # (F, C*K*K) codes; a private copy when the GEMM runs on float64.
        weight = plan.tensors["weight"].astype(gemm, copy=False)
        bias = plan.tensors.get("bias")          # accumulator-scale codes
        kernel = int(plan.attrs["kernel_size"])
        stride = int(plan.attrs["stride"])
        padding = int(plan.attrs["padding"])
        filters = weight.shape[0]
        acc_fraction = plan.accum_fraction

        def forward(x: np.ndarray) -> np.ndarray:
            codes = fmt_in.to_fixed(x)
            n, c, h, w = codes.shape
            oh = conv_output_size(h, kernel, stride, padding)
            ow = conv_output_size(w, kernel, stride, padding)
            cols = im2col(codes, kernel, stride, padding,
                          out=np.empty((n, c * kernel * kernel, oh * ow),
                                       dtype=gemm))
            acc = _matmul(weight, cols)
            if bias is not None:
                acc += bias[None, :, None]
            out = requantize(acc, acc_fraction, fmt_out)
            return fmt_out.from_fixed(out).reshape(n, filters, oh, ow)
        return forward

    def _linear_op(self, plan: LayerPlan):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        gemm = gemm_dtype(plan)
        # (in, out) codes; a private copy when the GEMM runs on float64.
        weight_t = plan.tensors["weight"].T.astype(gemm, copy=False)
        bias = plan.tensors.get("bias")
        acc_fraction = plan.accum_fraction

        def forward(x: np.ndarray) -> np.ndarray:
            codes = fmt_in.to_fixed(x)
            acc = _matmul(codes.astype(gemm, copy=False), weight_t)
            if bias is not None:
                acc += bias[None, :]
            return fmt_out.from_fixed(requantize(acc, acc_fraction,
                                                 fmt_out))
        return forward

    def _bn_op(self, plan: LayerPlan):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        scale = plan.tensors["scale"]            # (C,) codes
        shift = plan.tensors["shift"]            # accumulator-scale codes
        acc_fraction = plan.accum_fraction

        def forward(x: np.ndarray) -> np.ndarray:
            codes = fmt_in.to_fixed(x)
            acc = codes * scale[None, :, None, None]
            acc += shift[None, :, None, None]
            return fmt_out.from_fixed(requantize(acc, acc_fraction,
                                                 fmt_out))
        return forward

    def _act_op(self, plan: LayerPlan):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        slope = plan.tensors.get("slope")        # LeakyReLU only

        def forward(x: np.ndarray) -> np.ndarray:
            codes = fmt_in.to_fixed(x)
            if slope is None:
                out = saturate(np.maximum(codes, 0), fmt_out)
            else:
                negative = requantize(codes * int(slope),
                                      plan.accum_fraction, fmt_out)
                out = np.where(codes > 0, saturate(codes, fmt_out),
                               negative)
            return fmt_out.from_fixed(out)
        return forward

    def _pool_op(self, plan: LayerPlan):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        kernel = int(plan.attrs["kernel_size"])
        stride = int(plan.attrs["stride"])
        padding = int(plan.attrs["padding"])
        average = bool(plan.attrs.get("average", False))
        pad_code = (0 if average
                    else -(1 << (fmt_in.total_bits - 1)))

        def forward(x: np.ndarray) -> np.ndarray:
            codes = fmt_in.to_fixed(x)
            if padding:
                codes = np.pad(
                    codes, ((0, 0), (0, 0), (padding,) * 2,
                            (padding,) * 2),
                    mode="constant", constant_values=pad_code)
            _, _, h, w = codes.shape
            oh = (h - kernel) // stride + 1
            ow = (w - kernel) // stride + 1
            out = None
            acc = None
            for di in range(kernel):
                for dj in range(kernel):
                    window = codes[:, :, di:di + stride * oh:stride,
                                   dj:dj + stride * ow:stride]
                    if average:
                        acc = (window.astype(np.int64) if acc is None
                               else acc + window)
                    else:
                        out = (window if out is None
                               else np.maximum(out, window))
            if average:
                out = round_divide(acc, kernel * kernel)
            return fmt_out.from_fixed(saturate(out, fmt_out))
        return forward

    def _gpool_op(self, plan: LayerPlan):
        fmt_in, fmt_out = plan.in_format, plan.out_format

        def forward(x: np.ndarray) -> np.ndarray:
            codes = fmt_in.to_fixed(x)
            n, c, h, w = codes.shape
            acc = codes.reshape(n, c, -1).sum(axis=2)
            out = round_divide(acc, h * w)
            return fmt_out.from_fixed(saturate(out, fmt_out))
        return forward

    def _dropout_op(self, plan: LayerPlan):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        mask_fraction = plan.mask_format.fraction_bits
        slot_name = plan.slot_name

        def forward(x: np.ndarray) -> np.ndarray:
            mask = self._pass_masks.get(slot_name)
            if mask is None:
                # Outside a predict() pass (e.g. a probe forward):
                # behave deterministically as identity.
                return fmt_out.from_fixed(
                    saturate(fmt_in.to_fixed(x), fmt_out))
            codes = fmt_in.to_fixed(x)
            if len(mask) > len(codes):
                # First active slot of a folded sweep: the shared prefix
                # ran once, so tile it across the passes.
                codes = np.tile(codes, (len(mask) // len(codes),)
                                + (1,) * (codes.ndim - 1))
            acc = codes * mask
            out = requantize(acc,
                             fmt_in.fraction_bits + mask_fraction,
                             fmt_out)
            return fmt_out.from_fixed(out)
        return forward


__all__ = [
    "CompileError",
    "CompiledKernel",
    "FLOAT64_EXACT",
    "LayerPlan",
    "gemm_dtype",
    "requantize",
    "round_divide",
    "round_shift",
    "saturate",
]
