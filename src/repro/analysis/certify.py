"""Static overflow certificates for compiled fixed-point kernels.

:func:`certify_kernel` abstract-interprets a
:class:`~repro.hw.compile.kernel.CompiledKernel`'s layer plans and
proves — for **any representable input**, not just the calibration
split — that every widened accumulator stays inside the ``int64``
machine word.  The same bounds pick each op's code dtype
(:func:`~repro.hw.compile.kernel.code_dtype`): an op bounded below
``2**53`` runs on float64 codes, exact there, and the rest on
``int64``.  Each integer op reads its input as codes of its own
activation format (recoded, saturating, where the producer's format
differs), so the per-layer analysis starts from the full code range of
that format and propagates exact worst-case intervals through the op's
arithmetic:

* conv / linear: the im2col GEMM's reduction uses the *actual* weight
  codes — per output row, sign-aware sums bound the final accumulator
  and ``sum |w| * max|x|`` bounds every partial sum in every reduction
  order (plus the bias add at the accumulator's fraction);
* batch-norm: the folded per-channel ``scale * x + shift`` affine;
* LeakyReLU: the ``x * slope`` negative branch at accumulator scale;
* pooling: ``k**2``-term sums (average) or an order-free max;
* dropout: the per-pass quantized mask product at the mask format's
  extremes (sound even for signed Gaussian-noise masks);
* residual add: both operands aligned into the add's input format, so
  ``|a| + |b|`` over that format's range;
* ``requantize``'s rescale, including the exact left-shift of a
  negative shift — the one place a layer-safe accumulator could still
  wrap.

The result is an :class:`OverflowCertificate`: per-layer bound versus
int64 headroom, a ``saturation-only`` / ``wrap-possible`` verdict, and
the tightest safe accumulator width for the HLS emitter's ``accum_t``
typedefs.  A kernel derives it once, as its ``certificate``, which its
code dtypes, ``repro compile``, the HLS emitter and ``repro
verify-kernel`` read; its ``require_certified`` is the one gate that
refuses a wrap-possible kernel.  ``repro compile`` writes it beside
every kernel it returns and never reads it back: ``repro
verify-kernel`` calls the stored copy stale unless it equals the
re-derived one field for field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.intervals import (
    INT64_MAX,
    Interval,
    affine_bounds,
    format_interval,
    required_bits,
    shifted_magnitude,
)
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
)

#: Version stamped into every persisted certificate.
CERTIFICATE_VERSION = 1

#: JSON artifact name of the persisted certificate.
CERTIFICATE_ARTIFACT = "overflow_certificate"

#: Verdict of a kernel whose accumulators provably fit int64: the only
#: information loss anywhere is the *intended* output-format saturation.
VERDICT_SATURATION_ONLY = "saturation-only"

#: Verdict of a kernel with at least one accumulator that can wrap.
VERDICT_WRAP_POSSIBLE = "wrap-possible"


class CertificationError(ValueError):
    """The certifier cannot analyze a kernel (a layer kind with no rule)."""


@dataclass
class LayerCertificate:
    """Worst-case accumulator bounds of one compiled layer.

    Attributes:
        name / kind: traced layer identity.
        accum_lo / accum_hi: exact interval of the completed
            accumulation (``None`` for layers with no integer
            arithmetic — flatten/identity pass codes through).
        magnitude_bound: bound on ``|acc|`` valid for every partial sum
            in every reduction order.
        post_shift_bound: bound after ``requantize``'s rescale (the
            left-shift hazard); equals ``magnitude_bound`` when the
            layer does not requantize.
        accum_fraction: fraction bits the accumulator carries.
        required_accum_bits: tightest two's-complement width that holds
            the bound — the safe ``accum_t`` width for the HLS emitter.
        headroom_bits: ``63 - magnitude_bound.bit_length()`` (negative
            means the accumulator can wrap int64).
        wrap_possible: whether any intermediate can exceed int64.
    """

    name: str
    kind: str
    accum_lo: Optional[int] = None
    accum_hi: Optional[int] = None
    magnitude_bound: Optional[int] = None
    post_shift_bound: Optional[int] = None
    accum_fraction: Optional[int] = None
    required_accum_bits: Optional[int] = None
    headroom_bits: Optional[int] = None
    wrap_possible: bool = False

    @property
    def arithmetic(self) -> bool:
        """Whether the layer performs integer arithmetic at all."""
        return self.magnitude_bound is not None

    def safe_accum_format(self) -> Optional[FixedPointFormat]:
        """Tightest safe accumulator format (``accum_t``) or ``None``."""
        if not self.arithmetic or self.wrap_possible:
            return None
        fraction = self.accum_fraction or 0
        bits = max(self.required_accum_bits or 1, fraction + 1)
        return FixedPointFormat(total_bits=bits, fraction_bits=fraction)

    def to_dict(self) -> dict:
        """JSON view.  Bounds serialize as decimal strings: they can
        exceed 2**53 and JSON numbers stop round-tripping there."""
        def enc(value):
            return None if value is None else str(value)
        return {
            "name": self.name,
            "kind": self.kind,
            "accum_lo": enc(self.accum_lo),
            "accum_hi": enc(self.accum_hi),
            "magnitude_bound": enc(self.magnitude_bound),
            "post_shift_bound": enc(self.post_shift_bound),
            "accum_fraction": self.accum_fraction,
            "required_accum_bits": self.required_accum_bits,
            "headroom_bits": self.headroom_bits,
            "wrap_possible": self.wrap_possible,
        }


@dataclass
class OverflowCertificate:
    """Static no-wrap proof (or refutation) for one compiled kernel.

    Attributes:
        kernel_fingerprint: content hash of the certified kernel record
            (plans + integer tensors) — a stored certificate only
            vouches for the kernel bytes it was derived from.
        layers: per-layer bounds, in execution order.
    """

    kernel_fingerprint: str
    layers: List[LayerCertificate] = field(default_factory=list)

    @property
    def wrap_possible(self) -> bool:
        """Whether any layer's accumulator can wrap int64."""
        return any(layer.wrap_possible for layer in self.layers)

    @property
    def verdict(self) -> str:
        """``saturation-only`` or ``wrap-possible``."""
        return (VERDICT_WRAP_POSSIBLE if self.wrap_possible
                else VERDICT_SATURATION_ONLY)

    @property
    def min_headroom_bits(self) -> Optional[int]:
        """Smallest per-layer int64 headroom (None: no arithmetic)."""
        rooms = [layer.headroom_bits for layer in self.layers
                 if layer.arithmetic]
        return min(rooms) if rooms else None

    def accum_formats(self) -> Dict[str, FixedPointFormat]:
        """Per-layer tightest-safe ``accum_t`` formats, by layer name.

        :func:`repro.hw.codegen.emit_hls_project` writes the lowered
        kernel's formats as the ``accum_t`` typedefs, so the emitted
        accumulators are exactly as wide as the proof requires.
        """
        formats = {}
        for layer in self.layers:
            fmt = layer.safe_accum_format()
            if fmt is not None:
                formats[layer.name] = fmt
        return formats

    def to_dict(self) -> dict:
        """JSON view, written beside the kernel and never read back."""
        return {
            "certificate_version": CERTIFICATE_VERSION,
            "kernel_fingerprint": self.kernel_fingerprint,
            "verdict": self.verdict,
            "min_headroom_bits": self.min_headroom_bits,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    def render(self) -> str:
        """Human-readable certificate table (CLI output)."""
        lines = [f"Overflow certificate: {self.verdict}"]
        if self.min_headroom_bits is not None:
            lines[0] += (f" (min int64 headroom "
                         f"{self.min_headroom_bits} bits)")
        for layer in self.layers:
            if not layer.arithmetic:
                lines.append(f"  {layer.name:<16} {layer.kind:<14} "
                             f"no integer arithmetic")
                continue
            fmt = layer.safe_accum_format()
            accum = f"  accum_t {fmt}" if fmt is not None else ""
            state = ("WRAP-POSSIBLE" if layer.wrap_possible
                     else f"headroom {layer.headroom_bits:>2} bits")
            lines.append(
                f"  {layer.name:<16} {layer.kind:<14} "
                f"|acc| <= 2^{(layer.magnitude_bound).bit_length()} "
                f"{state}{accum}")
        return "\n".join(lines)


def kernel_fingerprint(kernel) -> str:
    """Content hash of a kernel's plans and integer tensors.

    Covers everything the analysis reads — formats, attrs, shapes and
    every tensor byte — so a certificate can be matched to the exact
    kernel record it certifies (object identity is meaningless across
    save/load).
    """
    digest = hashlib.sha256()
    for plan in kernel.plans:
        digest.update(json.dumps(plan.to_dict(),
                                 sort_keys=True).encode("utf-8"))
        for key in sorted(plan.tensors):
            array = np.ascontiguousarray(plan.tensors[key])
            digest.update(key.encode("utf-8"))
            digest.update(str(array.dtype).encode("utf-8"))
            digest.update(str(array.shape).encode("utf-8"))
            digest.update(array.tobytes())
    return digest.hexdigest()


def certify_kernel(kernel) -> OverflowCertificate:
    """Derive the overflow certificate of ``kernel``.

    One :func:`certify_plan` per plan; a compiled kernel keeps the
    result as its ``certificate``, so read that instead.

    Args:
        kernel: a :class:`~repro.hw.compile.kernel.CompiledKernel` (any
            object with a ``plans`` list of
            :class:`~repro.hw.compile.kernel.LayerPlan` works).

    Returns:
        The :class:`OverflowCertificate`; check :attr:`~
        OverflowCertificate.verdict` before trusting the kernel on
        uncalibrated inputs.

    Raises:
        CertificationError: on a layer kind with no analysis rule.
    """
    layers = [certify_plan(plan) for plan in kernel.plans]
    return OverflowCertificate(
        kernel_fingerprint=kernel_fingerprint(kernel), layers=layers)


def certify_plan(plan) -> LayerCertificate:
    """Worst-case analysis of a single layer plan."""
    kind = plan.kind
    if kind in (KIND_FLATTEN, KIND_IDENTITY):
        # Pure data movement: the codes pass through, no integer op runs.
        return LayerCertificate(name=plan.name, kind=kind)

    x = format_interval(plan.in_format)
    out_fraction = plan.out_format.fraction_bits
    shift = 0
    if kind in (KIND_CONV, KIND_LINEAR):
        acc, mag = affine_bounds(plan.tensors["weight"], x,
                                 plan.tensors.get("bias"))
        shift = plan.accum_fraction - out_fraction
    elif kind == KIND_BN:
        acc, mag = affine_bounds(plan.tensors["scale"].reshape(-1, 1), x,
                                 plan.tensors["shift"])
        shift = plan.accum_fraction - out_fraction
    elif kind == KIND_ACT:
        slope = plan.tensors.get("slope")
        if slope is None:
            # ReLU: max(codes, 0), then output saturation only.
            acc, mag = Interval(0, x.hi), x.hi
        else:
            # LeakyReLU: the negative branch scales by the slope code
            # at accumulator fraction; the positive branch is bounded
            # by the input range itself.
            negative = x.scale(int(slope))
            acc = negative.union(x)
            mag = max(negative.magnitude, x.magnitude)
            shift = plan.accum_fraction - out_fraction
    elif kind == KIND_POOL:
        if bool(plan.attrs.get("average", False)):
            terms = int(plan.attrs["kernel_size"]) ** 2
            acc, mag = x.scale(terms), x.magnitude * terms
        else:
            # Order-free integer max; padding injects the format's most
            # negative code, which the input interval already contains.
            acc, mag = x, x.magnitude
    elif kind == KIND_GPOOL:
        terms = int(np.prod(plan.in_shape[1:]))
        acc, mag = x.scale(terms), x.magnitude * terms
    elif kind == KIND_DROPOUT:
        # Per-pass quantized masks at the mask format's extremes —
        # sound for every dropout family, including signed Gaussian
        # noise tails that quantization clips into the format range.
        mask = format_interval(plan.mask_format)
        acc = x.mul(mask)
        mag = x.magnitude * mask.magnitude
        shift = plan.accum_fraction - out_fraction
    elif kind == KIND_ADD:
        # Each operand is aligned into the input format by an exact
        # left shift, so both lie in its range.
        acc, mag = x.add(x), 2 * x.magnitude
        shift = plan.accum_fraction - out_fraction
    else:
        raise CertificationError(
            f"no range-analysis rule for layer kind {kind!r} "
            f"(layer {plan.name!r})")

    post = shifted_magnitude(mag, shift) if shift else mag
    wrap = mag > INT64_MAX or post > INT64_MAX
    return LayerCertificate(
        name=plan.name,
        kind=kind,
        accum_lo=acc.lo,
        accum_hi=acc.hi,
        magnitude_bound=mag,
        post_shift_bound=post,
        accum_fraction=plan.accum_fraction,
        required_accum_bits=required_bits(max(mag, post)),
        headroom_bits=63 - mag.bit_length(),
        wrap_possible=wrap,
    )


# ----------------------------------------------------------------------
# Standalone verification
# ----------------------------------------------------------------------
@dataclass
class VerificationResult:
    """Outcome of :func:`verify_kernel`.

    Attributes:
        certificate: the freshly re-derived certificate.
        stored: the persisted certificate's JSON payload as read, when
            one exists.
        stale: True when a stored certificate differs from the
            re-derived one in any field.
    """

    certificate: OverflowCertificate
    stored: Optional[dict] = None
    stale: bool = False

    @property
    def ok(self) -> bool:
        """Accumulators provably cannot wrap and no stored lie exists."""
        return not self.certificate.wrap_possible and not self.stale


def verify_kernel(store, deployment=None) -> VerificationResult:
    """Re-derive a saved kernel's certificate and cross-check the store.

    Loads the kernel back from ``store`` (the directory ``repro
    compile`` wrote; loading never refuses a wrap-possible kernel),
    derives its certificate from the persisted bytes, and — when the
    store also holds a certificate — checks that its payload equals
    the re-derived certificate's, field for field:
    a stored certificate whose fingerprint, verdict or any per-layer
    bound says something else is stale.  This is the standalone
    ``repro verify-kernel`` gate: it trusts nothing but the artifact
    bytes.
    """
    from repro.hw.compile.compiler import load_kernel

    certificate = load_kernel(store, deployment).certificate
    stored = None
    stale = False
    if store.has(CERTIFICATE_ARTIFACT):
        stored = store.load_json(CERTIFICATE_ARTIFACT)
        # Compared as JSON text: ``0`` is not ``false``, ``5.0`` not ``5``.
        stale = (json.dumps(stored, sort_keys=True)
                 != json.dumps(certificate.to_dict(), sort_keys=True))
    return VerificationResult(certificate=certificate, stored=stored,
                              stale=stale)


__all__ = [
    "CERTIFICATE_ARTIFACT",
    "CERTIFICATE_VERSION",
    "CertificationError",
    "LayerCertificate",
    "OverflowCertificate",
    "VERDICT_SATURATION_ONLY",
    "VERDICT_WRAP_POSSIBLE",
    "VerificationResult",
    "certify_kernel",
    "certify_plan",
    "kernel_fingerprint",
    "verify_kernel",
]
