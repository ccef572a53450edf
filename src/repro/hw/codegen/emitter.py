"""HLS project emission — the hls4ml-style backend of Phase 4.

:func:`emit_hls_project` lowers a compiled fixed-point kernel
(:class:`~repro.hw.compile.CompiledKernel`) and nothing else, so the
project computes on the codes and formats the kernel executes and its
overflow certificate proves safe:

* each layer's geometry comes from its
  :class:`~repro.hw.compile.LayerPlan` shapes and attrs;
* weights, folded batch-norm scales and shifts, and biases are the
  plans' own integer codes, written as exact decimal values in the
  templates' channels-last layout: conv weights ``(kh, kw, c, f)``,
  dense weights ``(in, out)`` with the rows of a dense layer that reads
  a flattened feature map permuted to channels-last order;
* every typedef rounds half to even and saturates (``AP_RND_CONV,
  AP_SAT``), as the kernel does; ``result_t`` is the plan's output
  format and ``accum_t`` the kernel's own certificate's safe width;
* the dropout units take their keep threshold, block size, seed rate,
  noise scale and Masksembles ROM from the kernel's slot layers after
  the serving reseed.

Written layout:

.. code-block:: text

    <outdir>/
      firmware/
        defines.h  parameters.h  <project>.h  <project>.cpp
        nnet_utils/nnet_*.h       (incl. the dropout units)
        weights/<array>.h         (w, b, s, sh and mask_rom arrays)
      tb/<project>_test.cpp
      build_prj.tcl
      reports/csynth.rpt          (the analytic synthesis report)

The top is a linear chain of layer buffers, so a kernel with residual
adds (a ResNet) is refused: its add plans have no template yet.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.hw.accelerator import AcceleratorDesign
from repro.hw.codegen import templates
from repro.hw.compile.kernel import CompiledKernel, CompileError, LayerPlan
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

_STATIC_HEADERS = {
    "nnet_common.h": templates.NNET_COMMON_H,
    "nnet_dense.h": templates.NNET_DENSE_H,
    "nnet_conv2d.h": templates.NNET_CONV2D_H,
    "nnet_pooling.h": templates.NNET_POOLING_H,
    "nnet_batchnorm.h": templates.NNET_BATCHNORM_H,
    "nnet_activation.h": templates.NNET_ACTIVATION_H,
    "nnet_dropout.h": templates.NNET_DROPOUT_H,
}

#: nnet function and trailing arguments of each layer kind (dropout
#: units by design code); ``{i}`` is the layer's index.
_CALLS = {
    KIND_CONV: ("conv_2d", ", w{i}, b{i}"),
    KIND_LINEAR: ("dense", ", w{i}, b{i}"),
    KIND_BN: ("normalize", ", s{i}, sh{i}"),
    KIND_ACT: ("relu", ""),
    KIND_POOL: ("max_pool_2d", ""),
    KIND_GPOOL: ("global_avg_pool_2d", ""),
    "B": ("bernoulli_dropout", ", lfsr_state"),
    "R": ("random_dropout", ", lfsr_state, mode_state"),
    "K": ("block_dropout", ", lfsr_state"),
    "M": ("masksembles_dropout", ", mask_rom_{i}, t"),
    "G": ("gaussian_dropout", ", lfsr_state"),
}

#: Standard deviation of the Gaussian unit's ``acc >> 2``: four signed
#: uniform 16-bit LFSR words summed, then divided by four.
_CLT_STD = 65536 / (2 * math.sqrt(12))


@dataclass
class EmittedProject:
    """Paths and metadata of an emitted HLS project."""

    root: str
    project_name: str
    files: List[str] = field(default_factory=list)

    def relative_files(self) -> List[str]:
        """Emitted files relative to the project root."""
        return [os.path.relpath(f, self.root) for f in self.files]


def c_type(fmt: FixedPointFormat) -> str:
    """The ``ap_fixed`` type of ``fmt``, rounding half to even and
    saturating as the kernel's requantize does."""
    return (f"ap_fixed<{fmt.total_bits},{fmt.integer_bits + 1},"
            f"AP_RND_CONV,AP_SAT>")


def _c_value(code: int, fraction_bits: int) -> str:
    """``code * 2**-fraction_bits`` as an exact decimal literal."""
    digits = str(abs(int(code)) * 5 ** fraction_bits).rjust(
        fraction_bits + 1, "0")
    point = len(digits) - fraction_bits
    fraction = digits[point:].rstrip("0") or "0"
    return f"{'-' if code < 0 else ''}{digits[:point]}.{fraction}"


def emit_hls_project(design: AcceleratorDesign, kernel: CompiledKernel,
                     outdir: str,
                     project_name: str = "myproject") -> EmittedProject:
    """Write the HLS project of ``kernel`` under ``outdir``.

    ``design`` supplies what the kernel does not know: the accelerator's
    Monte-Carlo sample count, part and clock, and the synthesis report.
    Its traced layers must be the kernel's, which passes its one gate
    (:meth:`~repro.hw.compile.CompiledKernel.require_certified`) here;
    every ``accum_t`` is its certificate's tightest safe width.

    Raises:
        ValueError: if ``project_name`` is not a C identifier.
        CompileError: if ``design``'s layer names or dropout designs
            differ from the kernel's, if a layer has no HLS template
            (LeakyReLU, average pooling, a residual add), or if the
            kernel's overflow certificate is wrap-possible.
    """
    if not project_name.isidentifier():
        raise ValueError(f"project_name must be a C identifier, got "
                         f"{project_name!r}")
    traced = [(layer.name, layer.dropout_code)
              for layer in design.netlist.layers]
    planned = [(plan.name, plan.dropout_code) for plan in kernel.plans]
    if traced != planned:
        raise CompileError(
            f"design {design.name!r} [{design.dropout_config}] was not "
            f"traced from the kernel's configuration: layers {traced} "
            f"against {planned}")
    accums = kernel.require_certified().accum_formats()
    # Every mask-code miss reseeds first, so no later predict can change.
    units = kernel.slot_layers
    kernel.deployment.reseed(units.values())

    configs: List[str] = []
    body: List[str] = []
    arrays: Dict[str, Tuple[str, np.ndarray, int]] = {}
    src, src_t, flat_from = "input", "input_t", None
    for i, plan in enumerate(kernel.plans):
        fields, types, tensors = _lower(plan, units, accums, flat_from)
        configs.append(_config_struct(i, plan, fields, types))
        for name, (type_key, codes) in tensors.items():
            arrays[f"{name}{i}"] = (f"config{i}::{type_key}", codes,
                                    types[type_key].fraction_bits)
        key = plan.dropout_code if plan.kind == KIND_DROPOUT else plan.kind
        if key in _CALLS:
            function, extra = _CALLS[key]
            body.append(f"        static config{i}::result_t "
                        f"buf{i}[config{i}::n_out];")
            body.append(f"        nnet::{function}<{src_t}, "
                        f"config{i}::result_t, config{i}>({src}, "
                        f"buf{i}{extra.format(i=i)});")
            src, src_t = f"buf{i}", f"config{i}::result_t"
        if plan.kind == KIND_FLATTEN and len(plan.in_shape) == 3:
            flat_from = plan.in_shape
        elif plan.kind not in (KIND_ACT, KIND_DROPOUT, KIND_IDENTITY):
            flat_from = None
    body.append(f"        for (unsigned j = 0; j < N_OUTPUT; j++) "
                f"output[t][j] = {src}[j];")

    project = EmittedProject(root=outdir, project_name=project_name)

    def write(relative: str, content: str) -> None:
        path = os.path.join(outdir, relative)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(content)
        project.files.append(path)

    first, last = kernel.plans[0], kernel.plans[-1]
    write("firmware/defines.h", templates.DEFINES_H.format(
        input_t=c_type(first.in_format), output_t=c_type(last.out_format),
        mc_samples=design.perf.config.mc_samples,
        n_input=int(np.prod(first.in_shape)),
        n_output=int(np.prod(last.out_shape))))
    write("firmware/parameters.h", "\n".join(
        ["#ifndef PARAMETERS_H_", "#define PARAMETERS_H_", "",
         '#include "defines.h"', ""] + configs + ["#endif", ""]))
    for name, content in _STATIC_HEADERS.items():
        write(f"firmware/nnet_utils/{name}", content)
    for name, (ctype, codes, fraction) in arrays.items():
        values = ", ".join(_c_value(code, fraction) for code in codes)
        write(f"firmware/weights/{name}.h",
              f"static const {ctype} {name}[{codes.size}] = "
              f"{{{values}}};\n")
    write(f"firmware/{project_name}.h", templates.TOP_H.format(
        guard=project_name.upper(), project=project_name))
    write(f"firmware/{project_name}.cpp", templates.TOP_CPP.format(
        project=project_name,
        weight_includes="".join(f'#include "weights/{name}.h"\n'
                                for name in arrays),
        design_name=design.name,
        dropout_config=design.dropout_config or "-",
        num_layers=len(kernel.plans), body="\n".join(body)))
    write(f"tb/{project_name}_test.cpp",
          templates.TESTBENCH_CPP.format(project=project_name))
    clock_mhz = design.perf.config.effective_clock_mhz
    write("build_prj.tcl", templates.BUILD_TCL.format(
        project=project_name, part=_part_string(design),
        period_ns=f"{1000.0 / clock_mhz:.2f}"))
    write("reports/csynth.rpt", design.report.render() + "\n")
    return project


def _part_string(design: AcceleratorDesign) -> str:
    name = design.perf.config.device.name.lower()
    if "xcku115" in name:
        return "xcku115-flvb2104-2-i"
    return name.replace(" ", "-")


def _lower(plan: LayerPlan, units, accums, flat_from):
    """``(fields, types, tensors)`` of one plan's config and arrays.

    ``fields`` are the config's constants (unsigned ints, and the
    dropout units' doubles as decimal strings), ``types`` its typedef
    formats, and ``tensors`` maps an array prefix to ``(typedef,
    codes)`` in the template's layout.  ``flat_from`` is the ``(C, H,
    W)`` feature map a 1-D input buffer holds in channels-last order,
    if any.
    """
    fields: Dict[str, object] = {
        "n_in": int(np.prod(plan.in_shape)),
        "n_out": int(np.prod(plan.out_shape))}
    types = {"result_t": plan.out_format}
    if plan.name in accums:
        types["accum_t"] = accums[plan.name]
    tensors: Dict[str, Tuple[str, np.ndarray]] = {}
    if len(plan.in_shape) == 3:
        c, h, w = plan.in_shape
        fields.update(n_chan=c, in_height=h, in_width=w)
    else:
        fields["n_chan"] = fields["n_in"]
    if plan.kind in (KIND_CONV, KIND_POOL):
        fields.update(out_height=plan.out_shape[1],
                      out_width=plan.out_shape[2],
                      stride=plan.attrs["stride"], pad=plan.attrs["padding"])
    # Channels-last position j of a flattened (C, H, W) map holds the
    # kernel's (c, h, w)-order feature perm[j].
    perm = (None if flat_from is None else
            np.arange(int(np.prod(flat_from))).reshape(flat_from)
            .transpose(1, 2, 0).ravel())
    kind = plan.kind
    if kind in (KIND_CONV, KIND_LINEAR, KIND_BN):
        types["bias_t"] = types["accum_t"]
    if kind == KIND_CONV:
        k, filters = plan.attrs["kernel_size"], plan.out_shape[0]
        fields.update(n_filt=filters, filt_height=k, filt_width=k)
        types["weight_t"] = plan.weight_format
        weight = plan.tensors["weight"].reshape(
            filters, plan.in_shape[0], k, k).transpose(2, 3, 1, 0)
        tensors["w"] = ("weight_t", weight.ravel())
        tensors["b"] = ("bias_t", plan.tensors.get(
            "bias", np.zeros(filters, dtype=np.int64)))
    elif kind == KIND_LINEAR:
        types["weight_t"] = plan.weight_format
        weight = plan.tensors["weight"].T
        if perm is not None:
            weight = weight[perm]
        tensors["w"] = ("weight_t", weight.ravel())
        tensors["b"] = ("bias_t", plan.tensors.get(
            "bias", np.zeros(fields["n_out"], dtype=np.int64)))
    elif kind == KIND_BN:
        types["scale_t"] = plan.weight_format
        tensors["s"] = ("scale_t", plan.tensors["scale"])
        tensors["sh"] = ("bias_t", plan.tensors["shift"])
    elif kind == KIND_ACT and "slope" in plan.tensors:
        raise CompileError(f"layer {plan.name!r}: no HLS template for "
                           f"LeakyReLU")
    elif kind == KIND_ADD:
        raise CompileError(f"layer {plan.name!r}: no HLS template for "
                           f"a residual add")
    elif kind == KIND_POOL:
        if plan.attrs.get("average"):
            raise CompileError(f"layer {plan.name!r}: no HLS template "
                               f"for average pooling")
        fields["pool_size"] = plan.attrs["kernel_size"]
    elif kind == KIND_DROPOUT and plan.dropout_code is not None:
        if plan.dropout_code not in _CALLS:
            raise CompileError(
                f"no HLS template registered for dropout design "
                f"{plan.dropout_code!r}; extend repro.hw.codegen.emitter."
                f"_CALLS and templates.NNET_DROPOUT_H")
        fields.update(_dropout_fields(plan, units[plan.slot_name], tensors,
                                      perm))
        types["mask_t"] = plan.mask_format
    return fields, types, tensors


def _dropout_fields(plan: LayerPlan, layer, tensors,
                    perm) -> Dict[str, object]:
    """The unit constants of a dropout plan, from its active layer.

    A Masksembles unit gets its ROM in ``tensors``: the family the
    kernel applies (pass ``t`` uses mask ``t % num_masks``), quantized
    to the mask format, one row of ``n_chan`` words per mask.
    """
    fmt = plan.mask_format
    code = plan.dropout_code
    if code == "M":
        masks = layer.sample_masks(layer.num_masks, (1,) + plan.in_shape)
        rom = fmt.to_fixed(masks.reshape(layer.num_masks, -1))
        if perm is not None:
            rom = rom[:, perm]
        tensors["mask_rom_"] = ("mask_t", rom.ravel())
        return {"num_masks": layer.num_masks}
    if code == "G":
        return {"sigma_lsb": repr(layer.sigma / _CLT_STD)}
    keep = 1.0 - layer.p
    inv_keep = int(fmt.to_fixed(np.float32(1.0 / keep)))
    fields: Dict[str, object] = {
        "inv_keep": _c_value(inv_keep, fmt.fraction_bits)}
    if code == "K":
        _, h, w = plan.in_shape
        block = min(layer.block_size, h, w)
        gamma = min(layer._gamma(h, w, block), 1.0)
        fields.update(block_size=block,
                      gamma_threshold=int(round(gamma * 65535)))
    else:
        fields["keep_threshold"] = int(round(keep * 65535))
    return fields


def _config_struct(i: int, plan: LayerPlan, fields, types) -> str:
    lines = [f"// {plan.name} ({plan.kind}"
             f"{', ' + plan.dropout_code if plan.dropout_code else ''})",
             f"struct config{i} : nnet::common_config {{"]
    for name, value in fields.items():
        if isinstance(value, str):
            lines.append(f"    static constexpr double {name} = "
                         f"{value};")
        else:
            lines.append(f"    static const unsigned {name} = {value};")
    for name, fmt in types.items():
        lines.append(f"    typedef {c_type(fmt)} {name};")
    lines += ["};", ""]
    return "\n".join(lines)


__all__ = ["EmittedProject", "c_type", "emit_hls_project"]
