"""Lower a :class:`~repro.serve.Deployment` to a :class:`CompiledKernel`.

The compile stage mirrors the paper's QKeras + hls4ml conversion flow in
software: walk the traced netlist of the winning configuration, calibrate
activation ranges on the experiment's own validation split, resolve a
:class:`~repro.hw.fixed_point.FixedPointFormat` per tensor (the paper's
``<16,8>`` by default, per-layer overridable), pre-quantize every
parameter to integer codes, and package the result as an executable
integer kernel plus artifacts the :class:`~repro.api.artifacts.
ArtifactStore` persists resume-safely.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro import nn
from repro.hw.compile.calibrate import (
    DEFAULT_CALIBRATION_ROWS,
    calibration_split,
    observe_ranges,
)
from repro.hw.compile.formats import (
    MASK_FORMAT,
    observed_max,
    tight_for_range,
    widen_for_range,
)
from repro.hw.compile.kernel import CompiledKernel, CompileError, LayerPlan
from repro.hw.fixed_point import FixedPointFormat
from repro.hw.netlist import (
    KIND_ACT,
    KIND_BN,
    KIND_CONV,
    KIND_DROPOUT,
    KIND_LINEAR,
    KIND_POOL,
    trace_network,
    traced_leaves,
)

#: Version stamped into every compiled-kernel artifact.
KERNEL_VERSION = 1

#: JSON artifact holding the kernel record (formats, attrs, plans).
KERNEL_ARTIFACT = "compiled_kernel"

#: ``.npz`` artifact holding the pre-quantized integer tensors.
KERNEL_TENSORS = "kernel_tensors"

#: JSON artifact holding the float-vs-fixed fidelity report.
FIDELITY_ARTIFACT = "fidelity"

#: Layer kinds whose output format is calibrated independently of the
#: input (everything else re-emits its input format: activations, pools
#: and data movement never widen the word on hardware).
_CALIBRATED_KINDS = (KIND_CONV, KIND_LINEAR, KIND_BN, KIND_DROPOUT)


def _quantize_param(array: np.ndarray, fmt: FixedPointFormat):
    """``(codes, mean_abs_error)`` of quantizing ``array`` into ``fmt``."""
    codes = fmt.to_fixed(array)
    error = float(np.mean(np.abs(np.asarray(array, dtype=np.float64)
                                 - codes * fmt.scale)))
    return codes, error


def compile_deployment(
    deployment,
    *,
    calibration_rows: int = DEFAULT_CALIBRATION_ROWS,
    num_samples: Optional[int] = None,
    overrides: Optional[Mapping[str, FixedPointFormat]] = None,
) -> CompiledKernel:
    """Compile ``deployment`` into an executable fixed-point kernel.

    The pipeline: instantiate the winning configuration, trace its
    netlist, replay one Monte-Carlo prediction over the first
    ``calibration_rows`` rows of the experiment's validation split to
    observe per-layer activation ranges (mask scaling included), then
    resolve formats and pre-quantize parameters:

    * activation edges default to the deployment's format (the paper's
      ``<16,8>``) and only trade fraction bits for integer bits when
      the calibrated range overflows;
    * weights, folded batch-norm scales and LeakyReLU slopes get
      *tight* per-tensor formats at the same word width;
    * biases and batch-norm shifts are pre-scaled to the widened
      accumulator's fraction so the integer datapath adds them without
      intermediate rounding;
    * dropout masks quantize to :data:`~repro.hw.compile.formats.
      MASK_FORMAT`.

    Args:
        deployment: a :class:`repro.serve.Deployment`.
        calibration_rows: validation rows used for range calibration.
        num_samples: Monte-Carlo passes during calibration (default:
            the spec's ``mc_samples``).
        overrides: optional per-layer *output* activation formats,
            keyed by traced layer name — the per-layer escape hatch the
            paper's uniform ``<16,8>`` choice does not need but wider
            models might.

    Returns:
        A ready-to-run :class:`CompiledKernel`.

    Raises:
        CompileError: if an override names an unknown layer or a traced
            layer has no integer lowering.
    """
    overrides = dict(overrides or {})
    default = deployment.fixed_point
    model = deployment.instantiate()
    netlist = trace_network(model.model, deployment.input_shape)

    traced_names = {info.name for info in netlist.layers}
    unknown = sorted(set(overrides) - traced_names)
    if unknown:
        raise CompileError(
            f"format overrides name unknown layers {unknown}; traced "
            f"layers are {sorted(traced_names)}")

    images, _ = calibration_split(deployment.spec, rows=calibration_rows)
    ranges = observe_ranges(deployment, model, images,
                            num_samples=num_samples)

    modules = {name: module
               for name, _, module in traced_leaves(model.model)}

    plans = []
    for info in netlist.layers:
        module = modules.get(info.name)
        if module is None:
            raise CompileError(
                f"traced layer {info.name!r} not found among named "
                f"modules")
        record = ranges.get(info.name)
        in_max = record.in_max if record else 0.0
        out_max = record.out_max if record else 0.0

        in_format = widen_for_range(in_max, default)
        if info.kind in _CALIBRATED_KINDS:
            out_format = widen_for_range(out_max, default)
        else:
            # Activations, pools and data movement re-emit their input
            # format: the hardware inserts no width converter there.
            out_format = in_format
        if info.name in overrides:
            out_format = overrides[info.name]

        plan = LayerPlan(
            name=info.name,
            kind=info.kind,
            in_shape=info.in_shape,
            out_shape=info.out_shape,
            in_format=in_format,
            out_format=out_format,
            dropout_code=info.dropout_code,
            slot_name=info.slot_name,
        )
        _lower_layer(plan, module, default)
        plans.append(plan)

    return CompiledKernel(deployment, plans)


def _lower_layer(plan: LayerPlan, module, default: FixedPointFormat) -> None:
    """Fill ``plan`` with attrs, formats and pre-quantized tensors."""
    width = default.total_bits
    if plan.kind == KIND_CONV:
        plan.attrs = {"kernel_size": module.kernel_size,
                      "stride": module.stride,
                      "padding": module.padding}
        weight = module.weight.data
        plan.weight_format = tight_for_range(observed_max(weight), width)
        codes, error = _quantize_param(
            weight.reshape(weight.shape[0], -1), plan.weight_format)
        plan.tensors["weight"] = codes
        plan.weight_error = error
        if module.bias is not None:
            plan.tensors["bias"] = _bias_codes(module.bias.data,
                                               plan.accum_fraction)
    elif plan.kind == KIND_LINEAR:
        plan.attrs = {}
        weight = module.weight.data
        plan.weight_format = tight_for_range(observed_max(weight), width)
        codes, error = _quantize_param(weight, plan.weight_format)
        plan.tensors["weight"] = codes
        plan.weight_error = error
        if module.bias is not None:
            plan.tensors["bias"] = _bias_codes(module.bias.data,
                                               plan.accum_fraction)
    elif plan.kind == KIND_BN:
        # Fold inference batch-norm to an affine scale/shift.
        scale = module.weight.data / np.sqrt(module.running_var
                                             + module.eps)
        shift = module.bias.data - module.running_mean * scale
        plan.attrs = {}
        plan.weight_format = tight_for_range(observed_max(scale), width)
        codes, error = _quantize_param(scale, plan.weight_format)
        plan.tensors["scale"] = codes
        plan.weight_error = error
        plan.tensors["shift"] = _bias_codes(shift, plan.accum_fraction)
    elif plan.kind == KIND_ACT:
        plan.attrs = {}
        if isinstance(module, nn.LeakyReLU):
            slope = float(module.negative_slope)
            plan.attrs["negative_slope"] = slope
            plan.weight_format = tight_for_range(abs(slope), width)
            codes, error = _quantize_param(np.float64(slope),
                                           plan.weight_format)
            plan.tensors["slope"] = np.asarray(codes, dtype=np.int64)
            plan.weight_error = error
    elif plan.kind == KIND_POOL:
        plan.attrs = {"kernel_size": module.kernel_size,
                      "stride": module.stride,
                      "padding": module.padding,
                      "average": isinstance(module, nn.AvgPool2d)}
    elif plan.kind == KIND_DROPOUT:
        plan.mask_format = MASK_FORMAT
        plan.attrs = {}


def _bias_codes(bias: np.ndarray, accum_fraction: int) -> np.ndarray:
    """Bias values as integer codes at the accumulator's scale.

    Round-to-nearest-even at ``2**-accum_fraction`` — one LSB of the
    *accumulator*, far below the output format's rounding step, so bias
    quantization never dominates a layer's error.
    """
    scaled = np.asarray(bias, dtype=np.float64) * float(2 ** accum_fraction)
    return np.rint(scaled).astype(np.int64)


# ----------------------------------------------------------------------
# Persistence (ArtifactStore; resume-safe)
# ----------------------------------------------------------------------
def save_kernel(kernel: CompiledKernel, store) -> str:
    """Persist ``kernel`` (record + integer tensors) into ``store``.

    Writes the :data:`KERNEL_ARTIFACT` JSON record and the
    :data:`KERNEL_TENSORS` ``.npz`` (tensor keys namespaced as
    ``<layer>::<tensor>``), and ensures the owning deployment's own
    artifacts exist alongside so the directory round-trips through
    :func:`load_kernel` self-contained.  All writes are atomic.
    """
    from repro.serve.deployment import DEPLOYMENT_ARTIFACT

    if not store.has(DEPLOYMENT_ARTIFACT):
        kernel.deployment.save(store.root)
    record = {
        "kernel_version": KERNEL_VERSION,
        "layers": [plan.to_dict() for plan in kernel.plans],
    }
    tensors: Dict[str, np.ndarray] = {}
    for plan in kernel.plans:
        for key, array in plan.tensors.items():
            tensors[f"{plan.name}::{key}"] = array
    store.save_json(KERNEL_ARTIFACT, record)
    store.save_state(KERNEL_TENSORS, tensors)
    return store.root


def load_kernel(store, deployment=None) -> CompiledKernel:
    """Rebuild a :class:`CompiledKernel` saved by :func:`save_kernel`.

    Args:
        store: the :class:`~repro.api.artifacts.ArtifactStore` (or any
            object with the same interface) the kernel was saved into.
        deployment: optionally the already-loaded owning deployment;
            loaded from the same directory when omitted.
    """
    from repro.serve.deployment import Deployment

    record = store.load_json(KERNEL_ARTIFACT)
    if (not isinstance(record, dict)
            or record.get("kernel_version") != KERNEL_VERSION):
        raise CompileError(
            f"unsupported compiled-kernel record in {store.root}")
    if deployment is None:
        deployment = Deployment.load(store.root)
    tensors = store.load_state(KERNEL_TENSORS)
    grouped: Dict[str, Dict[str, np.ndarray]] = {}
    for key, array in tensors.items():
        layer, _, tensor = key.partition("::")
        grouped.setdefault(layer, {})[tensor] = array
    plans = [LayerPlan.from_dict(entry, grouped.get(entry["name"], {}))
             for entry in record["layers"]]
    return CompiledKernel(deployment, plans)


def compile_and_report(
    deployment,
    store,
    *,
    calibration_rows: int = DEFAULT_CALIBRATION_ROWS,
    fidelity_rows: Optional[int] = None,
    num_samples: Optional[int] = None,
    overrides: Optional[Mapping[str, FixedPointFormat]] = None,
    force: bool = False,
    allow_unsafe: bool = False,
):
    """Compile, certify, measure fidelity, persist — resuming work.

    The one-call entry point the CLI and the pipeline stage share.
    When ``store`` already holds a kernel and a fidelity report (and
    ``force`` is False), both load back instead of recompiling — the
    same resume contract every pipeline stage follows.

    Every fresh compile is statically certified before fidelity is
    measured: the :class:`~repro.analysis.OverflowCertificate` proves
    the int64 accumulators cannot wrap for *any* representable input
    (not only the calibration rows), and persists as the
    :data:`~repro.analysis.CERTIFICATE_ARTIFACT` next to the kernel.
    A ``wrap-possible`` verdict aborts the compile unless
    ``allow_unsafe`` is set — an empirically faithful kernel that can
    silently wrap off-distribution is not a deployable artifact.
    Resumed stores that predate certification are backfilled.

    Returns:
        ``(kernel, report)`` — the executable kernel and its
        :class:`~repro.hw.compile.fidelity.FidelityReport`.

    Raises:
        CompileError: on a ``wrap-possible`` certificate (unless
            ``allow_unsafe``), besides the usual lowering failures.
    """
    from repro.analysis.certify import (
        CERTIFICATE_ARTIFACT,
        certify_kernel,
        save_certificate,
    )
    from repro.hw.compile.fidelity import (
        DEFAULT_FIDELITY_ROWS,
        FidelityReport,
        measure_fidelity,
    )

    if fidelity_rows is None:
        fidelity_rows = DEFAULT_FIDELITY_ROWS
    if (not force and store.has(KERNEL_ARTIFACT)
            and store.has_state(KERNEL_TENSORS)
            and store.has(FIDELITY_ARTIFACT)):
        kernel = load_kernel(store, deployment)
        report = FidelityReport.from_dict(store.load_json(FIDELITY_ARTIFACT))
        if not store.has(CERTIFICATE_ARTIFACT):
            save_certificate(certify_kernel(kernel), store)
        return kernel, report

    kernel = compile_deployment(deployment,
                                calibration_rows=calibration_rows,
                                num_samples=num_samples,
                                overrides=overrides)
    certificate = certify_kernel(kernel)
    if certificate.wrap_possible and not allow_unsafe:
        wrapping = [layer.name for layer in certificate.layers
                    if layer.wrap_possible]
        raise CompileError(
            f"overflow certificate is wrap-possible for layers "
            f"{wrapping}: an int64 accumulator can wrap on "
            f"representable inputs; widen the activation formats or "
            f"pass allow_unsafe=True to persist anyway")
    report = measure_fidelity(kernel, rows=fidelity_rows,
                              num_samples=num_samples)
    save_kernel(kernel, store)
    save_certificate(certificate, store)
    store.save_json(FIDELITY_ARTIFACT, report.to_dict())
    return kernel, report


__all__ = [
    "FIDELITY_ARTIFACT",
    "KERNEL_ARTIFACT",
    "KERNEL_TENSORS",
    "KERNEL_VERSION",
    "compile_and_report",
    "compile_deployment",
    "load_kernel",
    "save_kernel",
]
