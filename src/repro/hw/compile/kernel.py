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

**Mask codes once per key.**  The quantized canonical plan of a
``(T, fused rows)`` key (and the private model's active dropout
layers) is drawn and quantized once, on the key's first predict, and
kept read-only in the kernel's :class:`~repro.nn.inference.
MaskPlanCache` (at most :data:`~repro.nn.inference.MASK_PLAN_BUDGET`
bytes, least-recently-used out).  Every later predict of the key —
any row window of it included — slices the stored codes; the mask
plan's NaN refusal runs on the miss that draws it.

**One folded sweep.**  :meth:`CompiledKernel.predict` runs all ``T``
passes in a single forward.  Each slot's quantized mask plan is folded
pass-major into rows (row ``t * rows + i`` is pass ``t``, row ``i``;
row-broadcast plans are broadcast first), the deterministic prefix
before the first active slot runs once on the request rows, and that
slot's mask multiply broadcasts its input across the passes.
Every op is row-local integer arithmetic, so the bytes equal ``T``
separate passes and any row window of a fused batch.

**Arithmetic dtype.**  Every op has one body — quantize its input,
then the GEMM and bias add, batch-norm affine, activation, pooling or
mask multiply, then requantize — and runs it on integer codes held in
the plan's :func:`code_dtype`: float64 when the plan's certified
``magnitude_bound`` and ``post_shift_bound``
(:func:`repro.analysis.certify.certify_plan`) are both below
``2**53``, ``int64`` otherwise.  Below the bound every operand,
product, partial sum and rescaled accumulator is an integer float64
holds exactly, whatever the BLAS blocking, thread count or FMA use; a
power-of-two rescale is exact, ``np.rint`` rounds half to even and
``np.clip`` saturates, so the float64 codes equal the ``int64`` ones
bit for bit.  16-bit deployments certify every op at or below about
``2**35``; wide ones (``<28,14>``: conv/dense at about ``2**59``) keep
``int64`` wherever the bound reaches ``2**53``.

Between layers activations travel as *exact grid values* (``code *
2**-fraction``) in float64: every code below ``2**53`` in magnitude
is exactly representable, so for formats of up to 53 bits the carrier
is lossless and re-quantizing a grid value recovers its code.  The
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
from repro.nn.inference import MaskPlanCache
from repro.nn.module import DTYPE
from repro.utils.rng import derive_seed
from repro.utils.validation import (
    check_positive_int,
    is_finite_number,
    is_int,
)


class CompileError(ValueError):
    """The compiler cannot lower a deployment (or a kernel record)."""


# ----------------------------------------------------------------------
# Integer arithmetic primitives (fixed_point.py semantics)
# ----------------------------------------------------------------------
# Each primitive takes integer codes as ``int64`` or as integer-valued
# float64 (exact below ``2**53``, see :func:`code_dtype`) and returns
# the same dtype; ``out=`` writes the result in place.
def round_shift(acc: np.ndarray, shift: int,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rescale integer codes by ``2**-shift``, round-half-to-even.

    The integer equivalent of ``np.rint(acc / 2**shift)`` — the exact
    rounding :meth:`FixedPointFormat.to_fixed` applies.  On ``int64``
    it is an arithmetic shift plus a tie-aware carry; on float64 it is
    that very expression, exact there because a power-of-two scale is.
    Negative ``shift`` scales up (exact).
    """
    acc = np.asarray(acc)
    if acc.dtype.kind == "f":
        scaled = np.multiply(acc, 2.0 ** -shift, out=out)
        return np.rint(scaled, out=scaled) if shift > 0 else scaled
    if shift <= 0:
        return np.left_shift(acc, -shift, out=out)
    q = acc >> shift
    r = acc & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    return np.add(q, (r > half) | ((r == half) & ((q & 1) == 1)), out=out)


def round_divide(acc: np.ndarray, divisor: int) -> np.ndarray:
    """Integer division with round-half-to-even (average pooling)."""
    q = acc // divisor
    r = acc - q * divisor
    twice = 2 * r
    odd = np.fmod(q, 2) != 0 if q.dtype.kind == "f" else (q & 1) == 1
    return q + ((twice > divisor) | ((twice == divisor) & odd))


def saturate(codes: np.ndarray, fmt: FixedPointFormat,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Clamp integer codes into the two's-complement range of ``fmt``."""
    lo = -(1 << (fmt.total_bits - 1))
    hi = (1 << (fmt.total_bits - 1)) - 1
    return np.clip(codes, lo, hi, out=out)


def requantize(acc: np.ndarray, from_fraction: int, fmt: FixedPointFormat,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Accumulator codes at ``2**-from_fraction`` → saturated ``fmt``."""
    return saturate(round_shift(acc, from_fraction - fmt.fraction_bits,
                                out=out), fmt, out=out)


#: Integers of magnitude below this are exact in float64.
FLOAT64_EXACT = 1 << 53


def code_dtype(plan: "LayerPlan") -> type:
    """The dtype every integer op of ``plan`` runs in.

    ``float64`` when the plan's certified ``magnitude_bound`` and
    ``post_shift_bound`` (:func:`repro.analysis.certify.certify_plan`)
    are both below ``2**53``: every code, product, partial sum and
    rescaled accumulator is then an integer float64 holds exactly,
    whatever the BLAS blocking, thread count or FMA use, so the result
    equals the ``int64`` one.  ``int64`` otherwise.
    """
    from repro.analysis.certify import certify_plan
    cert = certify_plan(plan)
    bound = max(cert.magnitude_bound, cert.post_shift_bound)
    return np.float64 if bound < FLOAT64_EXACT else np.int64


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``: the accumulator codes, in the operands' dtype."""
    return np.matmul(a, b)


def _quantize(x: np.ndarray, fmt: FixedPointFormat, dtype) -> np.ndarray:
    """Values → a fresh array of saturated ``fmt`` codes in ``dtype``.

    :meth:`FixedPointFormat.to_fixed`'s arithmetic — an exact
    power-of-two scale, ``np.rint`` and saturation, so ``±inf``
    saturates — without its NaN check: :meth:`CompiledKernel.predict`
    refuses NaN at its inputs, and no op turns finite codes into NaN.
    """
    codes = np.multiply(x, 2.0 ** fmt.fraction_bits, dtype=np.float64)
    np.rint(codes, out=codes)
    saturate(codes, fmt, out=codes)
    return codes.astype(dtype, copy=False)


def _grid(codes: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Codes → float64 grid values ``codes * 2**-fraction`` (the carrier),
    in place when the codes are float64."""
    out = codes if codes.dtype == np.float64 else None
    return np.multiply(codes, 2.0 ** -fmt.fraction_bits, out=out)


def _refuse_nan(values: np.ndarray, fmt: FixedPointFormat) -> None:
    """:meth:`FixedPointFormat.to_fixed`'s refusal: NaN has no code."""
    if np.isnan(values).any():
        raise ValueError(f"cannot quantize NaN to {fmt}")


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
        """Rebuild a plan from its JSON record plus its tensors.

        Values are checked, never coerced, by the fault-plan parser's
        rule: an int field takes a JSON int, a float field a finite JSON
        number.  A malformed record — a non-object, an unknown kind, a
        format or shape of non-ints, an attribute or tensor its op reads
        missing — raises :class:`CompileError` here, at load time.
        """
        if not isinstance(payload, dict):
            raise CompileError(f"kernel layer record must be an object, "
                               f"got {payload!r}")

        def check(ok, key, value, want):
            if not ok:
                raise CompileError(
                    f"kernel layer {payload.get('name')!r}: {key} must be "
                    f"{want}, got {value!r}")
            return value

        def fmt(key, required):
            entry = payload.get(key)
            if entry is None and not required:
                return None
            check(isinstance(entry, list) and len(entry) == 2
                  and all(map(is_int, entry)), key, entry,
                  "[total_bits, fraction_bits] ints")
            try:
                return FixedPointFormat(*entry)
            except ValueError as exc:
                raise CompileError(f"kernel layer {payload.get('name')!r}: "
                                   f"{key}: {exc}") from None

        def shape(key):
            entry = payload.get(key)
            return tuple(check(isinstance(entry, list) and entry and all(
                is_int(d) and d > 0 for d in entry), key, entry,
                "a list of positive ints"))

        name, kind = payload.get("name"), payload.get("kind")
        check(isinstance(name, str), "name", name, "a string")
        check(isinstance(kind, str) and kind in _OP_NEEDS, "kind", kind,
              f"one of {sorted(_OP_NEEDS)}")
        attrs = payload.get("attrs", {})
        check(isinstance(attrs, dict), "attrs", attrs, "an object")
        int_attrs, tensor_keys = _OP_NEEDS[kind]
        for key in int_attrs:
            least = 0 if key == "padding" else 1
            value = attrs.get(key)
            check(is_int(value) and value >= least, f"attrs.{key}", value,
                  f"an int >= {least}")
        average = attrs.get("average", False)
        check(isinstance(average, bool), "attrs.average", average, "a bool")
        missing = sorted(set(tensor_keys) - set(tensors))
        check(not missing, "tensors", sorted(tensors),
              f"present for {missing}")
        weight_error = payload.get("weight_error", 0.0)
        check(is_finite_number(weight_error), "weight_error", weight_error,
              "a finite number")
        slot_name = payload.get("slot_name")
        check(isinstance(slot_name, str) or (slot_name is None
                                             and kind != KIND_DROPOUT),
              "slot_name", slot_name,
              "a string (or null outside dropout slots)")
        return cls(
            name=name,
            kind=kind,
            in_shape=shape("in_shape"),
            out_shape=shape("out_shape"),
            in_format=fmt("in_format", True),
            out_format=fmt("out_format", True),
            weight_format=fmt("weight_format",
                              bool(tensor_keys) or "slope" in tensors),
            mask_format=fmt("mask_format", kind == KIND_DROPOUT),
            attrs=dict(attrs),
            tensors=tensors,
            weight_error=float(weight_error),
            dropout_code=payload.get("dropout_code"),
            slot_name=slot_name,
        )


#: What each layer kind's integer op reads from its plan: the ``attrs``
#: that must be JSON ints and the tensors that must exist.  A LeakyReLU
#: plan's ``slope`` is optional (a ReLU has none); the rest are not.
_OP_NEEDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    KIND_CONV: (("kernel_size", "stride", "padding"), ("weight",)),
    KIND_LINEAR: ((), ("weight",)),
    KIND_BN: ((), ("scale", "shift")),
    KIND_ACT: ((), ()),
    KIND_POOL: (("kernel_size", "stride", "padding"), ()),
    KIND_GPOOL: ((), ()),
    KIND_DROPOUT: ((), ()),
    KIND_FLATTEN: ((), ()),
    KIND_IDENTITY: ((), ()),
}


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
        # The folded masks of the running predict, by slot name; filled
        # and cleared in place, as the dropout ops hold this dict.
        self._pass_masks: Dict[str, np.ndarray] = {}
        self._mask_codes = MaskPlanCache()
        self._dtypes: Dict[str, type] = {}
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
        sweep over all ``T`` passes (see the module docstring).  The
        quantized plan is drawn once per ``(T, total_rows)`` key and
        reused by every later call of the key, which neither reseeds
        nor draws.

        ``total_rows``/``row_start`` evaluate ``images`` as a row
        window of a larger fused batch: the mask plan is drawn at the
        canonical ``(T, total_rows, ...)`` shape (or taken from the
        stored codes of that key) and sliced to the window, and because
        every arithmetic step is exact integer
        arithmetic (row-local by construction; float64 codes only where
        the certificate proves them exact) the result is byte-identical
        to rows ``[row_start, row_start + n)`` of a full ``predict`` on
        the fused batch.  This is the fixed backend's sharding primitive
        (:mod:`repro.serve.replicas`).

        NaN has no code: a NaN pixel (or mask value) raises the
        ``ValueError`` of :meth:`FixedPointFormat.to_fixed`, and ``±inf``
        saturates.  The check runs once on the kernel's two inputs, the
        images and the mask plan at the miss that draws it (a refused
        plan is not stored), not in every op: no op turns finite codes
        into NaN.

        Returns:
            An :class:`MCPrediction` whose per-pass probabilities are
            softmax over the dequantized integer logits, cast to float32
            as :meth:`FixedPointFormat.from_fixed` casts.
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
        _refuse_nan(images, self.plans[0].in_format)

        # The quantized canonical mask plans of the fused batch, sliced
        # to our window and folded pass-major into rows: row
        # ``t * rows + i`` is pass t, row i.
        layers = model.active_dropout_layers()
        key = (num_samples, total_rows, tuple(map(id, layers)))
        mask_codes = self._mask_codes.get(key)
        if mask_codes is None:
            mask_codes = self._draw_mask_codes(layers, num_samples,
                                               total_rows)
            self._mask_codes.put(key, mask_codes)
        folded: Dict[str, np.ndarray] = {}
        for slot_name, codes in mask_codes.items():
            if codes.shape[1] != 1:
                # Row-broadcast plans (one mask per pass) need no slice.
                codes = codes[:, row_start:row_start + rows]
            tail = codes.shape[2:]
            folded[slot_name] = np.broadcast_to(
                codes, (num_samples, rows) + tail).reshape(
                    (num_samples * rows,) + tail)

        # One sweep: the prefix runs on ``rows`` rows, the first active
        # slot broadcasts it across the passes, the suffix runs folded.
        self._pass_masks.update(folded)
        try:
            grid = model(images)
        finally:
            self._pass_masks.clear()
        # Float32 logits as from_fixed gives them; ``+ 0.0`` folds the
        # signed zeros float64 codes can carry (rint(-0.4) is -0.0).
        logits = grid.astype(DTYPE) + 0.0
        shape = (num_samples, rows, self.num_classes)
        if logits.shape[0] == num_samples * rows:
            probs = softmax(logits.reshape(shape), axis=2)
        else:
            # No active slot: every pass is the same single pass.
            probs = np.broadcast_to(softmax(logits, axis=1), shape)
        return MCPrediction(probs=np.ascontiguousarray(probs))

    def _draw_mask_codes(self, layers, num_samples: int,
                         total_rows: int) -> Dict[str, np.ndarray]:
        """Each active slot's canonical ``(T, total_rows, ...)`` plan
        under the serving reseed contract, NaN-refused and quantized
        into the slot's code dtype, keyed by slot name."""
        plans = {p.slot_name: p for p in self.dropout_plans}
        mask_codes: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(layers):
            plan = plans[self._slot_order[index]]
            layer.reseed(derive_seed(self.deployment.serve_seed, index))
            masks = layer.sample_masks(num_samples,
                                       (total_rows,) + plan.in_shape)
            _refuse_nan(masks, plan.mask_format)
            mask_codes[plan.slot_name] = _quantize(
                masks, plan.mask_format, self._dtypes[plan.name])
        return mask_codes

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
        the integer ops re-capture the new arrays on next use, rebuilding
        their private copies in each plan's :func:`code_dtype` (float64
        where certified; ``int64`` ops use the rebound arrays as is),
        and drops the stored mask codes with the model they were keyed
        on.
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
        self._mask_codes.clear()

    def warm(self) -> "CompiledKernel":
        """Instantiate and patch the private model now.

        Builds every integer op: resolves each plan's :func:`code_dtype`
        once and copies the plan's tensors into it (float64 copies where
        certified).  Replica pools call this before forking so every
        worker inherits the already-built model (its captured shared
        tensors and the copies built from them) instead of paying
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
    # Each op quantizes its input into fresh codes of the plan's
    # code_dtype, runs its arithmetic in place on them (or on its own
    # accumulator), requantizes and emits the float64 grid.
    def _fixed_op(self, plan: LayerPlan, module):
        kind = plan.kind
        if kind == KIND_FLATTEN:
            return lambda x: x.reshape(x.shape[0], -1)
        if kind == KIND_IDENTITY:
            return lambda x: x
        build = {
            KIND_CONV: self._conv_op,
            KIND_LINEAR: self._linear_op,
            KIND_BN: self._bn_op,
            KIND_ACT: self._act_op,
            KIND_POOL: self._pool_op,
            KIND_GPOOL: self._gpool_op,
            KIND_DROPOUT: self._dropout_op,
        }.get(kind)
        if build is None:
            raise CompileError(
                f"no integer lowering for layer kind {kind!r}")
        dtype = self._dtypes[plan.name] = code_dtype(plan)
        return build(plan, dtype)

    @staticmethod
    def _tensor(plan: LayerPlan, key: str, dtype) -> Optional[np.ndarray]:
        """``plan.tensors[key]`` in ``dtype``: a private float64 copy, or
        the plan's own (possibly shared) ``int64`` array."""
        tensor = plan.tensors.get(key)
        return None if tensor is None else tensor.astype(dtype, copy=False)

    def _conv_op(self, plan: LayerPlan, dtype):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        weight = self._tensor(plan, "weight", dtype)       # (F, C*K*K)
        bias = self._tensor(plan, "bias", dtype)   # accumulator scale
        kernel = int(plan.attrs["kernel_size"])
        stride = int(plan.attrs["stride"])
        padding = int(plan.attrs["padding"])
        filters = weight.shape[0]
        acc_fraction = plan.accum_fraction

        def forward(x: np.ndarray) -> np.ndarray:
            codes = _quantize(x, fmt_in, dtype)
            n, c, h, w = codes.shape
            oh = conv_output_size(h, kernel, stride, padding)
            ow = conv_output_size(w, kernel, stride, padding)
            cols = im2col(codes, kernel, stride, padding,
                          out=np.empty((n, c * kernel * kernel, oh * ow),
                                       dtype=dtype))
            acc = _matmul(weight, cols)
            if bias is not None:
                acc += bias[None, :, None]
            requantize(acc, acc_fraction, fmt_out, out=acc)
            return _grid(acc, fmt_out).reshape(n, filters, oh, ow)
        return forward

    def _linear_op(self, plan: LayerPlan, dtype):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        weight_t = self._tensor(plan, "weight", dtype).T   # (in, out)
        bias = self._tensor(plan, "bias", dtype)
        acc_fraction = plan.accum_fraction

        def forward(x: np.ndarray) -> np.ndarray:
            acc = _matmul(_quantize(x, fmt_in, dtype), weight_t)
            if bias is not None:
                acc += bias[None, :]
            requantize(acc, acc_fraction, fmt_out, out=acc)
            return _grid(acc, fmt_out)
        return forward

    def _bn_op(self, plan: LayerPlan, dtype):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        scale = self._tensor(plan, "scale", dtype)[None, :, None, None]
        shift = self._tensor(plan, "shift", dtype)[None, :, None, None]
        acc_fraction = plan.accum_fraction

        def forward(x: np.ndarray) -> np.ndarray:
            acc = _quantize(x, fmt_in, dtype)
            acc *= scale
            acc += shift
            requantize(acc, acc_fraction, fmt_out, out=acc)
            return _grid(acc, fmt_out)
        return forward

    def _act_op(self, plan: LayerPlan, dtype):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        slope = plan.tensors.get("slope")        # LeakyReLU only
        hi = (1 << (fmt_out.total_bits - 1)) - 1

        def forward(x: np.ndarray) -> np.ndarray:
            codes = _quantize(x, fmt_in, dtype)
            if slope is None:
                return _grid(np.clip(codes, 0, hi, out=codes), fmt_out)
            negative = requantize(codes * int(slope),
                                  plan.accum_fraction, fmt_out)
            out = np.where(codes > 0, saturate(codes, fmt_out), negative)
            return _grid(out, fmt_out)
        return forward

    def _pool_op(self, plan: LayerPlan, dtype):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        kernel = int(plan.attrs["kernel_size"])
        stride = int(plan.attrs["stride"])
        padding = int(plan.attrs["padding"])
        average = bool(plan.attrs.get("average", False))
        pad_code = (0 if average
                    else -(1 << (fmt_in.total_bits - 1)))
        combine = np.add if average else np.maximum

        def forward(x: np.ndarray) -> np.ndarray:
            codes = _quantize(x, fmt_in, dtype)
            if padding:
                codes = np.pad(
                    codes, ((0, 0), (0, 0), (padding,) * 2,
                            (padding,) * 2),
                    mode="constant", constant_values=pad_code)
            _, _, h, w = codes.shape
            oh = (h - kernel) // stride + 1
            ow = (w - kernel) // stride + 1
            acc = None
            for di in range(kernel):
                for dj in range(kernel):
                    window = codes[:, :, di:di + stride * oh:stride,
                                   dj:dj + stride * ow:stride]
                    if acc is None:
                        acc = window.copy()
                    else:
                        combine(acc, window, out=acc)
            if average:
                acc = round_divide(acc, kernel * kernel)
            return _grid(saturate(acc, fmt_out, out=acc), fmt_out)
        return forward

    def _gpool_op(self, plan: LayerPlan, dtype):
        fmt_in, fmt_out = plan.in_format, plan.out_format

        def forward(x: np.ndarray) -> np.ndarray:
            codes = _quantize(x, fmt_in, dtype)
            n, c, h, w = codes.shape
            acc = round_divide(codes.reshape(n, c, -1).sum(axis=2), h * w)
            return _grid(saturate(acc, fmt_out, out=acc), fmt_out)
        return forward

    def _dropout_op(self, plan: LayerPlan, dtype):
        fmt_in, fmt_out = plan.in_format, plan.out_format
        acc_fraction = plan.accum_fraction
        slot_name = plan.slot_name
        # The dict itself, not the kernel: a forward closing over the
        # kernel would make kernel -> model -> forward -> kernel a cycle
        # only the cycle collector frees.
        pass_masks = self._pass_masks

        def forward(x: np.ndarray) -> np.ndarray:
            codes = _quantize(x, fmt_in, dtype)
            mask = pass_masks.get(slot_name)
            if mask is None:
                # Outside a predict() pass (e.g. a probe forward):
                # behave deterministically as identity.
                return _grid(saturate(codes, fmt_out, out=codes), fmt_out)
            rows = len(codes)
            if len(mask) > rows:
                # First active slot of a folded sweep: the shared prefix
                # ran once, so broadcast it across the passes.
                passes = len(mask) // rows
                acc = np.multiply(
                    mask.reshape((passes, rows) + mask.shape[1:]), codes
                ).reshape((passes * rows,) + codes.shape[1:])
            else:
                acc = np.multiply(codes, mask, out=codes)
            requantize(acc, acc_fraction, fmt_out, out=acc)
            return _grid(acc, fmt_out)
        return forward


__all__ = [
    "CompileError",
    "CompiledKernel",
    "FLOAT64_EXACT",
    "LayerPlan",
    "code_dtype",
    "requantize",
    "round_divide",
    "round_shift",
    "saturate",
]
