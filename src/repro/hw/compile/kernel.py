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
* a residual add aligns both operands into its input format (exact
  left shifts) and requantizes their integer sum;
* MC-dropout replays the float engines' canonical mask-plan contract
  — :meth:`repro.serve.Deployment.reseed` followed by a pass-major
  full-batch :meth:`~repro.dropout.base.DropoutLayer.sample_masks`
  draw — then quantizes each mask to the mask format and applies it as
  an integer multiply.  ``(deployment, seed, rows)`` therefore remains
  a pure function, byte-identical across runs.

**One graph, one loop.**  When the kernel is built it traces a fresh
model once (:func:`~repro.hw.netlist.trace_graph`), records each
plan's producers by array identity in :attr:`LayerPlan.inputs`, and
keeps only the slots' dropout layers to draw the masks.
:class:`Program` lowers the plans, in execution order, to steps
(:class:`KernelOp`), and :meth:`Program.run` is the one loop that
executes them.  Integer codes flow from step to step — no float
carrier: a step reads its producers' codes as they are when they are
already in its input format and code dtype, and otherwise recodes
them (:func:`recode`: a rounding shift or an exact left shift, then
saturation, which equals quantizing their exact value).  Only the
images are quantized, by the steps that read the network input, and
the last step's codes become the float32 logits.  Each value is
dropped after its last reader runs.

**Fusion.**  Adjacent plans share one step where that is exact, as
rounding shifts and clips are monotone:

* a ReLU (no slope) that is the only reader of a conv, dense or
  batch-norm plan, in that plan's format, folds into the producer's
  clip: the requantize clips to ``[0, hi]`` once, after the rounding
  shift;
* a max pool without padding that is the only reader of such a step,
  in the same format, pools the producer's accumulator — after the
  batch-norm affine, whose scale may be negative — and only the
  pooled values are shifted and clipped.

**Mask codes once per key.**  The quantized canonical plan of a
``(T, fused rows)`` key is drawn and quantized once, on the key's
first predict, and kept read-only in the kernel's
:class:`~repro.nn.inference.MaskPlanCache` (at most
:data:`~repro.nn.inference.MASK_PLAN_BUDGET` bytes,
least-recently-used out).  Every later predict of the key —
any row window of it included — slices the stored codes; the mask
plan's NaN refusal runs on the miss that draws it.

**One folded sweep.**  :meth:`CompiledKernel.predict` runs all ``T``
passes in a single run of the program.  Each slot's quantized mask
plan is folded pass-major into rows (row ``t * rows + i`` is pass
``t``, row ``i``; row-broadcast plans are broadcast first), the steps
before the first active slot run once on the request rows, and that
slot's mask multiply broadcasts its input across the passes.  Every
step is row-local integer arithmetic, so the bytes equal ``T``
separate passes and any row window of a fused batch.

**Arithmetic dtype.**  Every step runs its arithmetic — the GEMM and
bias add, batch-norm affine, add, activation, pooling or mask
multiply, then the requantize — on integer codes held in its first
plan's :func:`code_dtype`: float64 when that plan's
``magnitude_bound`` and ``post_shift_bound`` in the kernel's own
:attr:`CompiledKernel.certificate` are both below ``2**53``, ``int64``
otherwise.  Below the bound every operand, product, partial sum and
rescaled accumulator is an integer float64 holds exactly, whatever the
BLAS blocking, thread count or FMA use; a
power-of-two rescale is exact, ``np.rint`` rounds half to even and
``np.clip`` saturates, so the float64 codes equal the ``int64`` ones
bit for bit.  A fused ReLU or pool never leaves the producer's bounds,
so it is exact in the producer's dtype.  16-bit deployments certify
every op at or below about ``2**35``; wide ones (``<28,14>``:
conv/dense at about ``2**59``) keep ``int64`` wherever the bound
reaches ``2**53``, and codes cross between the two dtypes unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bayes.mc import MCPrediction
from repro.hw.fixed_point import FixedPointFormat
from repro.hw.netlist import (
    KIND_ACT,
    KIND_ADD,
    KIND_BN,
    KIND_CONV,
    KIND_DROPOUT,
    KIND_FLATTEN,
    KIND_GPOOL,
    KIND_IDENTITY,
    KIND_LINEAR,
    KIND_POOL,
    NETWORK_INPUT,
    trace_graph,
)
from repro.nn.functional import conv_output_size, im2col, softmax
from repro.nn.inference import MaskPlanCache, check_batch_rows
from repro.nn.module import DTYPE
from repro.utils.fields import (
    BOOL,
    NUMBER,
    OBJECT,
    STR,
    Choice,
    Field,
    Int,
    ListOf,
    declare,
    read_fields,
    table_of,
    write_fields,
)
from repro.utils.validation import check_positive_int


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


def _limits(fmt: FixedPointFormat) -> Tuple[int, int]:
    """The two's-complement code range ``(lo, hi)`` of ``fmt``."""
    return -(1 << (fmt.total_bits - 1)), (1 << (fmt.total_bits - 1)) - 1


def saturate(codes: np.ndarray, fmt: FixedPointFormat,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Clamp integer codes into the two's-complement range of ``fmt``."""
    lo, hi = _limits(fmt)
    return np.clip(codes, lo, hi, out=out)


def requantize(acc: np.ndarray, from_fraction: int, fmt: FixedPointFormat,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Accumulator codes at ``2**-from_fraction`` → saturated ``fmt``."""
    return saturate(round_shift(acc, from_fraction - fmt.fraction_bits,
                                out=out), fmt, out=out)


def recode(codes: np.ndarray, src: FixedPointFormat,
           dst: FixedPointFormat) -> np.ndarray:
    """Codes of ``src`` → saturated codes of ``dst``, in the codes' dtype.

    Equals quantizing the exact values ``codes * 2**-src.fraction_bits``
    into ``dst``: fewer fraction bits round half to even, more are an
    exact left shift, and both saturate.  The left shift saturates
    before it shifts, so no ``int64`` code overflows on the way.
    """
    shift = src.fraction_bits - dst.fraction_bits
    if shift >= 0:
        return saturate(round_shift(codes, shift), dst)
    lo, hi = _limits(dst)
    up = -shift
    shifted = round_shift(np.clip(codes, lo >> up, hi >> up), shift)
    return np.where(codes > hi >> up, hi, shifted)


#: Integers of magnitude below this are exact in float64.
FLOAT64_EXACT = 1 << 53


def code_dtype(bounds) -> type:
    """The dtype every integer op of a plan runs in, given the plan's
    :class:`~repro.analysis.certify.LayerCertificate` ``bounds``.

    ``float64`` when the certified ``magnitude_bound`` and
    ``post_shift_bound`` are both below ``2**53``: every code, product,
    partial sum and rescaled accumulator is then an integer float64
    holds exactly, whatever the BLAS blocking, thread count or FMA use,
    so the result equals the ``int64`` one.  ``int64`` otherwise.
    """
    bound = max(bounds.magnitude_bound, bounds.post_shift_bound)
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


def _refuse_nan(values: np.ndarray, fmt: FixedPointFormat) -> None:
    """:meth:`FixedPointFormat.to_fixed`'s refusal: NaN has no code."""
    if np.isnan(values).any():
        raise ValueError(f"cannot quantize NaN to {fmt}")


def rescale_free(kind: str, dropout_code: Optional[str]) -> bool:
    """Whether a layer's op saturates its input codes into the output
    format without shifting them, so both formats must carry the same
    fraction bits: activations, pools, data movement, and a dropout slot
    with no active design."""
    return kind in (KIND_ACT, KIND_POOL, KIND_GPOOL, KIND_FLATTEN,
                    KIND_IDENTITY) or (kind == KIND_DROPOUT
                                       and dropout_code is None)


#: A window op's ``attrs``.
_WINDOW = (Field("kernel_size", Int(least=1)), Field("stride", Int(least=1)),
           Field("padding", Int(least=0)))

#: What each layer kind's integer op reads from its plan: its ``attrs``
#: fields and the tensors that must exist.  A LeakyReLU plan's
#: ``slope`` is optional (a ReLU has none); the rest are not.
_OP_NEEDS: Dict[str, Tuple[Tuple[Field, ...], Tuple[str, ...]]] = {
    KIND_CONV: (_WINDOW, ("weight",)),
    KIND_LINEAR: ((), ("weight",)),
    KIND_BN: ((), ("scale", "shift")),
    KIND_ACT: ((Field("negative_slope", NUMBER, None),), ()),
    KIND_POOL: (_WINDOW + (Field("average", BOOL, False),), ()),
    KIND_GPOOL: ((), ()),
    KIND_DROPOUT: ((), ()),
    KIND_FLATTEN: ((), ()),
    KIND_IDENTITY: ((), ()),
    KIND_ADD: ((), ()),
}

#: ``[total_bits, fraction_bits]``, built into a format.
_FORMAT = ListOf(Int(), least=2, most=2,
                 build=lambda bits: FixedPointFormat(*bits),
                 unbuild=lambda fmt: (fmt.total_bits, fmt.fraction_bits))

#: A per-image tensor shape.
_SHAPE = ListOf(Int(least=1), least=1)


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
        inputs: names of the plans whose outputs this layer reads, in
            argument order (:data:`~repro.hw.netlist.NETWORK_INPUT` for
            the images).  Traced by :class:`CompiledKernel` from a
            fresh instantiation, never persisted.
    """

    name: str = declare(STR)
    kind: str = declare(Choice(*sorted(_OP_NEEDS)))
    in_shape: Tuple[int, ...] = declare(_SHAPE)
    out_shape: Tuple[int, ...] = declare(_SHAPE)
    in_format: FixedPointFormat = declare(_FORMAT)
    out_format: FixedPointFormat = declare(_FORMAT)
    weight_format: Optional[FixedPointFormat] = declare(_FORMAT, None)
    mask_format: Optional[FixedPointFormat] = declare(_FORMAT, None)
    attrs: Dict[str, object] = declare(OBJECT, factory=dict)
    tensors: Dict[str, np.ndarray] = field(default_factory=dict)
    weight_error: float = declare(NUMBER, 0.0)
    dropout_code: Optional[str] = declare(STR, None)
    slot_name: Optional[str] = declare(STR, None)
    inputs: Tuple[str, ...] = ()

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
        """The plan's JSON record (:data:`_LAYER_FIELDS`); the tensors
        travel in the ``.npz``, their keys in ``tensor_keys``."""
        return write_fields(dict(vars(self), tensor_keys=sorted(
            self.tensors)), _LAYER_FIELDS)

    @classmethod
    def from_dict(cls, payload: dict,
                  tensors: Dict[str, Dict[str, np.ndarray]],
                  where: str = "kernel layer") -> "LayerPlan":
        """Rebuild a plan from its JSON record (:data:`_LAYER_FIELDS`,
        its ``attrs`` by :data:`_OP_NEEDS`) and every layer's tensors by
        layer name; a malformed record raises :class:`CompileError`."""
        values = read_fields(payload, _LAYER_FIELDS, CompileError, where)
        kind, attrs = values["kind"], values["attrs"]
        attr_fields, needed = _OP_NEEDS[kind]
        # Checked, but kept as written: the certificate's fingerprint
        # covers the record.
        read_fields(attrs, attr_fields, CompileError, f"{where}.attrs")
        if (kind == KIND_POOL and not attrs.get("average", False)
                and attrs["padding"] > attrs["kernel_size"] // 2):
            raise CompileError(f"{where}.attrs.padding must be at most "
                               f"kernel_size // 2 for a max pool, got "
                               f"{attrs['padding']}")
        values["tensors"] = tensors.get(values["name"], {})
        missing = sorted((set(needed) | set(values.pop("tensor_keys")))
                         - set(values["tensors"]))
        if missing:
            raise CompileError(f"{where}: no tensors for {missing}")
        if values["tensors"] and values["weight_format"] is None:
            raise CompileError(f"{where}.weight_format is required")
        if kind == KIND_DROPOUT and None in (values["mask_format"],
                                             values["slot_name"]):
            raise CompileError(f"{where}: a dropout slot needs a "
                               f"mask_format and a slot_name")
        return cls(**values)


#: The fields of one layer's JSON record (:meth:`LayerPlan.to_dict`).
_LAYER_FIELDS = table_of(LayerPlan) + (
    Field("tensor_keys", ListOf(STR), ()),)


# ----------------------------------------------------------------------
# Integer layer ops
# ----------------------------------------------------------------------
# Each op takes its plan's input codes (``in_format``, the op's dtype;
# a dropout op also its folded mask codes, or None outside an active
# slot) and returns a fresh array of output codes, never writing into
# its inputs: another step may still read them.
def plan_op(plan: LayerPlan, dtype, *, relu: bool = False,
            pool: Optional[LayerPlan] = None) -> Callable[..., np.ndarray]:
    """The integer op of ``plan`` on codes in ``dtype``.

    ``relu`` and ``pool`` fuse a following ReLU and max pool into a
    conv, dense or batch-norm op (see the module docstring); unfused,
    the op is exactly the plan's own arithmetic.
    """
    kind = plan.kind
    if kind == KIND_FLATTEN:
        return lambda x: x.reshape(x.shape[0], -1)
    if kind == KIND_IDENTITY:
        return lambda x: x
    if kind in (KIND_CONV, KIND_LINEAR, KIND_BN):
        build = {KIND_CONV: _conv_op, KIND_LINEAR: _linear_op,
                 KIND_BN: _bn_op}[kind]
        return build(plan, dtype, _requantizer(plan, relu, pool))
    build = {
        KIND_ACT: _act_op,
        KIND_POOL: _pool_op,
        KIND_GPOOL: _gpool_op,
        KIND_DROPOUT: _dropout_op,
        KIND_ADD: _add_op,
    }.get(kind)
    if build is None:
        raise CompileError(f"no integer lowering for layer kind {kind!r}")
    return build(plan, dtype)


def _tensor(plan: LayerPlan, key: str, dtype) -> Optional[np.ndarray]:
    """``plan.tensors[key]`` in ``dtype``: a private float64 copy, or the
    plan's own (possibly shared) ``int64`` array."""
    tensor = plan.tensors.get(key)
    return None if tensor is None else tensor.astype(dtype, copy=False)


def _pool_windows(codes: np.ndarray, kernel: int, stride: int,
              combine=np.maximum) -> np.ndarray:
    """A fresh ``(N, C, OH, OW)`` window reduction of ``codes``."""
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
    return acc


def _requantizer(plan: LayerPlan, relu: bool,
                 pool: Optional[LayerPlan]) -> Callable:
    """Accumulator → output codes, in place: the optional fused max pool
    (on the accumulator), the rounding shift, then one clip — to
    ``[0, hi]`` with a fused ReLU."""
    shift = plan.accum_fraction - plan.out_format.fraction_bits
    lo, hi = _limits(plan.out_format)
    lo = 0 if relu else lo
    if pool is not None:
        kernel = int(pool.attrs["kernel_size"])
        stride = int(pool.attrs["stride"])

    def finish(acc: np.ndarray) -> np.ndarray:
        if pool is not None:
            acc = _pool_windows(acc, kernel, stride)
        round_shift(acc, shift, out=acc)
        return np.clip(acc, lo, hi, out=acc)
    return finish


def _conv_op(plan: LayerPlan, dtype, finish):
    weight = _tensor(plan, "weight", dtype)       # (F, C*K*K)
    bias = _tensor(plan, "bias", dtype)           # accumulator scale
    kernel = int(plan.attrs["kernel_size"])
    stride = int(plan.attrs["stride"])
    padding = int(plan.attrs["padding"])
    filters = weight.shape[0]

    def forward(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        oh = conv_output_size(h, kernel, stride, padding)
        ow = conv_output_size(w, kernel, stride, padding)
        cols = im2col(x, kernel, stride, padding,
                      out=np.empty((n, c * kernel * kernel, oh * ow),
                                   dtype=dtype))
        acc = _matmul(weight, cols)
        if bias is not None:
            acc += bias[None, :, None]
        return finish(acc.reshape(n, filters, oh, ow))
    return forward


def _linear_op(plan: LayerPlan, dtype, finish):
    weight_t = _tensor(plan, "weight", dtype).T   # (in, out)
    bias = _tensor(plan, "bias", dtype)

    def forward(x: np.ndarray) -> np.ndarray:
        acc = _matmul(x, weight_t)
        if bias is not None:
            acc += bias[None, :]
        return finish(acc)
    return forward


def _bn_op(plan: LayerPlan, dtype, finish):
    scale = _tensor(plan, "scale", dtype)[None, :, None, None]
    shift = _tensor(plan, "shift", dtype)[None, :, None, None]

    def forward(x: np.ndarray) -> np.ndarray:
        acc = x * scale
        acc += shift
        return finish(acc)
    return forward


def _act_op(plan: LayerPlan, dtype):
    fmt_out = plan.out_format
    slope = plan.tensors.get("slope")        # LeakyReLU only
    _, hi = _limits(fmt_out)
    if slope is None:
        return lambda x: np.clip(x, 0, hi)

    def forward(x: np.ndarray) -> np.ndarray:
        negative = requantize(x * int(slope), plan.accum_fraction, fmt_out)
        return np.where(x > 0, saturate(x, fmt_out), negative)
    return forward


def _pool_op(plan: LayerPlan, dtype):
    kernel = int(plan.attrs["kernel_size"])
    stride = int(plan.attrs["stride"])
    padding = int(plan.attrs["padding"])
    average = bool(plan.attrs.get("average", False))
    pad_code = 0 if average else _limits(plan.in_format)[0]
    combine = np.add if average else np.maximum

    def forward(x: np.ndarray) -> np.ndarray:
        if padding:
            x = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2),
                       mode="constant", constant_values=pad_code)
        acc = _pool_windows(x, kernel, stride, combine)
        if average:
            acc = round_divide(acc, kernel * kernel)
        return saturate(acc, plan.out_format, out=acc)
    return forward


def _gpool_op(plan: LayerPlan, dtype):
    def forward(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        acc = round_divide(x.reshape(n, c, -1).sum(axis=2), h * w)
        return saturate(acc, plan.out_format, out=acc)
    return forward


def _dropout_op(plan: LayerPlan, dtype):
    fmt_out = plan.out_format
    acc_fraction = plan.accum_fraction

    def forward(x: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
        if mask is None:
            # Outside an active slot: deterministic identity.
            return saturate(x, fmt_out)
        rows = len(x)
        if len(mask) > rows:
            # First active slot of a folded sweep: the shared prefix
            # ran once, so broadcast it across the passes.
            passes = len(mask) // rows
            acc = np.multiply(
                mask.reshape((passes, rows) + mask.shape[1:]), x
            ).reshape((passes * rows,) + x.shape[1:])
        else:
            acc = x * mask
        return requantize(acc, acc_fraction, fmt_out, out=acc)
    return forward


def _add_op(plan: LayerPlan, dtype):
    def forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        acc = a + b
        return requantize(acc, plan.accum_fraction, plan.out_format,
                          out=acc)
    return forward


# ----------------------------------------------------------------------
# The program: plans lowered to steps over a value graph
# ----------------------------------------------------------------------
def _reader(source: Optional[FixedPointFormat], source_dtype,
            fmt: FixedPointFormat, dtype) -> Optional[Callable]:
    """How a step reads an input value as ``fmt`` codes in ``dtype``.

    ``None`` when the value already is exactly that; the images
    (``source`` None) are quantized; codes of another format are
    recoded in float64 only where both formats are exact there.
    """
    if source is None:
        return lambda x: _quantize(x, fmt, dtype)
    if source == fmt:
        return None if source_dtype == dtype else (
            lambda x: x.astype(dtype))
    exact = (source_dtype == dtype == np.float64
             and max(source.total_bits, fmt.total_bits) <= 53)
    work = np.float64 if exact else np.int64
    return lambda x: recode(x.astype(work, copy=False), source,
                            fmt).astype(dtype, copy=False)


class KernelOp:
    """One step of a :class:`Program`.

    Attributes:
        plans: names of the plans the step covers, producer first (a
            conv, dense or batch-norm plan may carry a fused ReLU and
            max pool).
        args: value slots the step reads: 0 is the network input and
            step ``k``'s output is slot ``k + 1``.
        slot: dropout slot whose folded masks the step applies, if any.
        dtype: the code dtype the step computes in (its first plan's
            :func:`code_dtype`; flatten and identity keep their input's).
        arithmetic: False for flatten and identity, which move codes.
        release: value slots no later step reads, dropped after this one.
    """

    __slots__ = ("plans", "args", "reads", "body", "slot", "dtype",
                 "arithmetic", "release")

    def __init__(self, plans, args, reads, body, slot, dtype,
                 arithmetic) -> None:
        self.plans = plans
        self.args = args
        self.reads = reads
        self.body = body
        self.slot = slot
        self.dtype = dtype
        self.arithmetic = arithmetic
        self.release: Tuple[int, ...] = ()

    def __call__(self, values: list, masks: Dict[str, np.ndarray]
                 ) -> np.ndarray:
        args = [values[a] if read is None else read(values[a])
                for a, read in zip(self.args, self.reads)]
        if self.slot is not None:
            args.append(masks.get(self.slot))
        return self.body(*args)


def _fusable(producer: LayerPlan, consumer: LayerPlan,
             readers: Counter) -> bool:
    """Whether ``consumer`` reads only ``producer``, is its only reader,
    and keeps the producer's output format."""
    return (consumer.inputs == (producer.name,)
            and readers[producer.name] == 1
            and consumer.in_format == consumer.out_format
            == producer.out_format)


def _steps(plans: List[LayerPlan]) -> List[List[LayerPlan]]:
    """Group execution-ordered plans into steps, fusing ReLUs and max
    pools into the conv, dense or batch-norm step they follow."""
    readers = Counter(name for plan in plans for name in plan.inputs)
    steps: List[List[LayerPlan]] = []
    i = 0
    while i < len(plans):
        step = [plans[i]]
        i += 1
        if step[0].kind in (KIND_CONV, KIND_LINEAR, KIND_BN):
            if (i < len(plans) and plans[i].kind == KIND_ACT
                    and "slope" not in plans[i].tensors
                    and _fusable(step[-1], plans[i], readers)):
                step.append(plans[i])
                i += 1
            if (i < len(plans) and step[0].kind != KIND_LINEAR
                    and plans[i].kind == KIND_POOL
                    and not plans[i].attrs.get("average", False)
                    and not plans[i].attrs["padding"]
                    and _fusable(step[-1], plans[i], readers)):
                step.append(plans[i])
                i += 1
        steps.append(step)
    return steps


class Program:
    """A kernel's plans lowered to :class:`KernelOp` steps.

    Built from plans whose :attr:`LayerPlan.inputs` are set, in
    execution order, and their certificate, whose bounds pick each
    step's :func:`code_dtype`.  Each step's value has a format and a
    code dtype: a step's last plan's ``out_format`` in its dtype, or for
    flatten and identity their input's, which they pass through
    unchanged.

    Attributes:
        ops: the steps, in execution order.
        out_format: the format of the last step's codes (the logits).
        dtypes: each plan's code dtype, by plan name.
    """

    def __init__(self, plans: List[LayerPlan], certificate) -> None:
        bounds = {layer.name: layer for layer in certificate.layers}
        slots = {NETWORK_INPUT: 0}
        formats: List[Optional[FixedPointFormat]] = [None]
        value_dtypes: list = [None]
        self.ops: List[KernelOp] = []
        self.dtypes: Dict[str, type] = {}
        for step in _steps(plans):
            head, names = step[0], tuple(plan.name for plan in step)
            args = tuple(slots[name] for name in head.inputs)
            if head.kind in (KIND_FLATTEN, KIND_IDENTITY):
                dtype, fmt = value_dtypes[args[0]], formats[args[0]]
                reads = (None,)
            else:
                dtype = code_dtype(bounds[head.name])
                fmt = step[-1].out_format
                reads = tuple(_reader(formats[a], value_dtypes[a],
                                      head.in_format, dtype) for a in args)
            body = plan_op(head, dtype, relu=any(
                plan.kind == KIND_ACT for plan in step[1:]),
                pool=step[-1] if step[-1].kind == KIND_POOL else None)
            self.ops.append(KernelOp(
                names, args, reads, body,
                head.slot_name if head.kind == KIND_DROPOUT else None,
                dtype, head.kind not in (KIND_FLATTEN, KIND_IDENTITY)))
            for name in names:
                slots[name] = len(formats)
                self.dtypes[name] = dtype
            formats.append(fmt)
            value_dtypes.append(dtype)
        self.out_format = formats[-1]
        last_read = {a: k for k, op in enumerate(self.ops) for a in op.args}
        for k, op in enumerate(self.ops):
            op.release = tuple(dict.fromkeys(
                a for a in op.args if last_read[a] == k))

    def run(self, images: np.ndarray, masks: Dict[str, np.ndarray],
            timer: Optional[Callable[[Optional[KernelOp]], None]] = None
            ) -> np.ndarray:
        """Execute every step on ``images``; the last step's codes.

        ``masks`` maps a dropout slot to its folded mask codes.
        ``timer``, when given, is called with ``None`` as the loop
        starts and with each step once it has run; it sees the steps
        and nothing it returns reaches a value.
        """
        values = [images] + [None] * len(self.ops)
        if timer is not None:
            timer(None)
        for slot, op in enumerate(self.ops, 1):
            values[slot] = op(values, masks)
            for dead in op.release:
                values[dead] = None
            if timer is not None:
                timer(op)
        return values[-1]


# ----------------------------------------------------------------------
# The executable kernel
# ----------------------------------------------------------------------
class CompiledKernel:
    """Quantized integer MC-dropout inference over a deployment.

    Build through :func:`repro.hw.compile.compile_deployment` (or
    :meth:`load`); execute through :meth:`predict`, which returns the
    same :class:`~repro.bayes.mc.MCPrediction` record the float engines
    produce, so the serving stack can treat both backends uniformly.

    Building instantiates the deployment's model and traces it once:
    the traced layers must be the plans, in the same order and kinds,
    and their producers become :attr:`LayerPlan.inputs`.  The kernel
    keeps only ``slot_layers`` (slot name to active dropout layer, in
    slot order), which draw the masks; the model is dropped.

    Determinism contract: :meth:`predict` replays the deployment's
    serving mask contract on the kernel's *own* dropout layers, and
    every arithmetic step is integer — the probabilities are a pure
    function of ``(deployment, serve_seed, images, T)``, byte-identical
    across processes, and the float engines' state is never touched.

    Building or loading a kernel never refuses a wrap-possible one:
    :meth:`require_certified` is the one gate before it runs.

    Raises:
        CompileError: on duplicate plan names, on a plan that never
            rescales (:func:`rescale_free`) whose input and output
            formats differ in fraction bits, or when the plans are not
            the layers a fresh instantiation traces — a record saved
            before a layer kind became a plan (a residual add) names
            the layers it lacks.
    """

    def __init__(self, deployment, plans: List[LayerPlan]) -> None:
        self.deployment = deployment
        self.plans = list(plans)
        self._program: Optional[Program] = None
        self._mask_codes = MaskPlanCache()
        by_name = {}
        for plan in self.plans:
            if plan.name in by_name:
                raise CompileError(
                    f"duplicate traced layer name {plan.name!r}; the "
                    f"kernel requires single-use modules")
            if (rescale_free(plan.kind, plan.dropout_code)
                    and plan.in_format.fraction_bits
                    != plan.out_format.fraction_bits):
                raise CompileError(
                    f"layer {plan.name!r} ({plan.kind}) does not rescale, "
                    f"but reads {plan.in_format} and writes "
                    f"{plan.out_format}; recompile with `repro compile "
                    f"--force`")
            by_name[plan.name] = plan
        model = deployment.instantiate()
        self._trace(model, by_name)
        self.slot_layers = {slot.name: slot.active for slot in model.slots}

    def _trace(self, model, by_name: Dict[str, LayerPlan]) -> None:
        """Match the plans to ``model``'s traced forward; set inputs."""
        netlist, edges = trace_graph(model.model,
                                     self.deployment.input_shape)
        traced = [(layer.name, layer.kind) for layer in netlist.layers]
        if traced != [(plan.name, plan.kind) for plan in self.plans]:
            names = {name for name, _ in traced}
            extra = [plan.name for plan in self.plans
                     if plan.name not in names]
            missing = [name for name, _ in traced if name not in by_name]
            if missing and not extra:
                raise CompileError(
                    f"the kernel record has no plans for traced layers "
                    f"{missing}; it was compiled before they were "
                    f"lowered: recompile with `repro compile --force`")
            raise CompileError(
                f"compiled plans {[(p.name, p.kind) for p in self.plans]} "
                f"are not the layers a fresh instantiation traces "
                f"{traced}; the deployment and kernel records disagree")
        for plan in self.plans:
            inputs = edges[plan.name]
            if None in inputs:
                raise CompileError(
                    f"layer {plan.name!r} reads an input that no traced "
                    f"layer produced and that is not the network input")
            plan.inputs = inputs

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

    @property
    def ops(self) -> List[KernelOp]:
        """The program's steps, in execution order."""
        return self.warm()._program.ops

    @cached_property
    def certificate(self):
        """The kernel's :class:`~repro.analysis.certify.
        OverflowCertificate`, derived from its plans on first read and
        kept: the plans do not change once the kernel is built
        (:meth:`rebind_tensors` swaps in byte-equal copies, and ``repro
        lint`` refuses any other ``tensors[...]`` write in the serving
        modules)."""
        # Imported here: repro.analysis builds on repro.hw.
        from repro.analysis.certify import certify_kernel
        return certify_kernel(self)

    def require_certified(self):
        """:attr:`certificate`, or :class:`CompileError` when it is
        wrap-possible: the one gate before a kernel runs or is emitted
        (fixed-backend serving, ``repro profile``, the HLS emitter and
        :func:`~repro.hw.compile.compile_and_report`)."""
        certificate = self.certificate
        if certificate.wrap_possible:
            wrapping = [layer.name for layer in certificate.layers
                        if layer.wrap_possible]
            raise CompileError(
                f"overflow certificate is wrap-possible for layers "
                f"{wrapping}: an int64 accumulator can wrap on "
                f"representable inputs; widen the activation formats "
                f"(`repro compile --allow-unsafe` keeps such a kernel "
                f"on disk for inspection only)")
        return certificate

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def predict(self, images: np.ndarray,
                num_samples: Optional[int] = None, *,
                total_rows: Optional[int] = None,
                row_start: int = 0,
                timer: Optional[Callable] = None) -> MCPrediction:
        """``T`` quantized Monte-Carlo passes under the serving contract.

        Mirrors :meth:`repro.serve.Deployment.predict`: the slots'
        dropout layers are reseeded by :meth:`~repro.serve.Deployment.
        reseed` and draw their canonical pass-major full-batch mask
        plans; the plans are quantized to the mask format, folded
        pass-major into rows and applied as integer multiplies inside
        one run of the program over all ``T`` passes (see the module
        docstring).  The quantized plan is drawn once per ``(T,
        total_rows)`` key and reused by every later call of the key,
        which neither reseeds nor draws.

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

        An empty batch raises the ``ValueError`` the float engine
        raises (:func:`repro.nn.inference.check_batch_rows`).

        NaN has no code: a NaN pixel (or mask value) raises the
        ``ValueError`` of :meth:`FixedPointFormat.to_fixed`, and ``±inf``
        saturates.  The check runs once on the kernel's two inputs, the
        images and the mask plan at the miss that draws it (a refused
        plan is not stored), not in every op: no op turns finite codes
        into NaN.

        ``timer`` is :meth:`Program.run`'s per-step callback (``repro
        profile`` times the steps with it); results never depend on it.

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
        rows = check_batch_rows(images.shape[0])
        program = self.warm()._program
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
        key = (num_samples, total_rows)
        mask_codes = self._mask_codes.get(key)
        if mask_codes is None:
            mask_codes = self._draw_mask_codes(num_samples, total_rows,
                                               program.dtypes)
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
        codes = program.run(images, folded, timer)
        # Float32 logits as from_fixed gives them; ``+ 0.0`` folds the
        # signed zeros float64 codes can carry (rint(-0.4) is -0.0).
        logits = np.multiply(
            codes, 2.0 ** -program.out_format.fraction_bits).astype(
                DTYPE) + 0.0
        shape = (num_samples, rows, self.num_classes)
        if logits.shape[0] == num_samples * rows:
            probs = softmax(logits.reshape(shape), axis=2)
        else:
            # No active slot: every pass is the same single pass.
            probs = np.broadcast_to(softmax(logits, axis=1), shape)
        return MCPrediction(probs=np.ascontiguousarray(probs))

    def _draw_mask_codes(self, num_samples: int, total_rows: int,
                         dtypes: Dict[str, type]) -> Dict[str, np.ndarray]:
        """Each slot's canonical ``(T, total_rows, ...)`` plan under the
        serving reseed contract, NaN-refused and quantized into the
        slot's code dtype, keyed by slot name."""
        plans = {p.slot_name: p for p in self.dropout_plans}
        self.deployment.reseed(self.slot_layers.values())
        mask_codes: Dict[str, np.ndarray] = {}
        for name, layer in self.slot_layers.items():
            plan = plans[name]
            masks = layer.sample_masks(num_samples,
                                       (total_rows,) + plan.in_shape)
            _refuse_nan(masks, plan.mask_format)
            mask_codes[plan.slot_name] = _quantize(
                masks, plan.mask_format, dtypes[plan.name])
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
        changes arithmetic, so :attr:`certificate` is kept).  Drops the
        program so its ops are rebuilt on the new arrays on next use
        (private float64 copies where certified; ``int64`` ops use the
        rebound arrays as is), and drops the stored mask codes with it.
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
        self._program = None
        self._mask_codes.clear()

    def warm(self) -> "CompiledKernel":
        """Build the program now.

        Resolves each step's :func:`code_dtype` from :attr:`certificate`
        and copies its plan's tensors into it (float64 copies where
        certified).  Replica pools call this before forking so every
        worker inherits the built ops (their captured shared tensors and
        the copies built from them) instead of building them per
        process.
        """
        if self._program is None:
            self._program = Program(self.plans, self.certificate)
        return self


__all__ = [
    "CompileError",
    "CompiledKernel",
    "FLOAT64_EXACT",
    "KernelOp",
    "LayerPlan",
    "Program",
    "code_dtype",
    "plan_op",
    "recode",
    "rescale_free",
    "requantize",
    "round_divide",
    "round_shift",
    "saturate",
]
