"""Analytic latency and resource model of the HLS accelerator.

Stands in for Vivado-HLS C-synthesis (DESIGN.md substitution table).
The model follows the hls4ml dataflow style the paper builds on: each
arithmetic layer is folded onto ``pe`` multiply-accumulate lanes (a
reuse-factor design), element-wise layers stream through vector lanes,
and dropout slots add the design-specific stalls of
:mod:`repro.hw.dropout_hw`.  Monte-Carlo sampling executes the network
``mc_samples`` times with distinct masks.  Residual adds are not
modelled yet: :func:`estimate` skips them (no cycles, no layer).

Constants are calibrated so the paper's operating points are in range
(XCKU115 @ 181 MHz; ResNet18/CIFAR around 15-19 ms for T=3; resource
mix BRAM-heavy at ~82%, DSP ~5%, FF ~40%), and — more importantly —
so every *relative* ordering the paper reports is reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hw.device import FPGADevice, XCKU115
from repro.hw.dropout_hw import DropoutHWModel, model_dropout_layer
from repro.hw.fixed_point import PAPER_FORMAT, FixedPointFormat
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
    LayerInfo,
    Netlist,
)

#: Pipeline fill depth charged once per arithmetic layer.
PIPELINE_DEPTH_CYCLES = 60
#: Control overhead between consecutive Monte-Carlo passes.
INTER_PASS_CYCLES = 200
#: MACs one DSP slice computes per cycle at 16-bit precision.
MACS_PER_DSP = 2
#: Flip-flops charged per MAC lane (accumulators + pipeline registers).
FFS_PER_PE = 600
#: LUTs charged per MAC lane.
LUTS_PER_PE = 420
#: Flip-flops charged per traced layer (stream control).
FFS_PER_LAYER = 1_500
#: LUTs charged per traced layer.
LUTS_PER_LAYER = 1_100
#: Fraction of device FF/LUT consumed by infrastructure (AXI, control).
BASE_FABRIC_FRACTION = 0.03
#: BRAM tiles for the input/output stream buffers.
IO_BUFFER_BRAM = 4


@dataclass(frozen=True)
class AcceleratorConfig:
    """Design-space knobs of the generated accelerator.

    Attributes:
        device: target FPGA part.
        clock_mhz: operating frequency; None uses the device default.
        pe: multiply-accumulate lanes shared by conv/dense layers (the
            inverse of the hls4ml reuse factor).
        vector_lanes: element-wise lanes (activations, pooling, BN).
        dropout_lanes: mask application lanes in dropout units.
        weight_residency: fraction of weights held on-chip; the rest
            streams from off-chip memory in tiles (large models).
        mc_samples: Monte-Carlo forward passes per inference (paper: 3).
        fixed_point: numeric format (paper: ap_fixed<16,8>).
        weight_sparsity: fraction of (structured) zero weights skipped
            by the MAC array and elided from weight storage — the
            "sparsity support for hardware design" named as future work
            in the paper's conclusion.  0.0 reproduces the paper's
            dense designs.
    """

    device: FPGADevice = XCKU115
    clock_mhz: Optional[float] = None
    pe: int = 64
    vector_lanes: int = 8
    dropout_lanes: int = 1
    weight_residency: float = 0.35
    mc_samples: int = 3
    fixed_point: FixedPointFormat = PAPER_FORMAT
    weight_sparsity: float = 0.0

    def __post_init__(self) -> None:
        if self.pe < 1:
            raise ValueError(f"pe must be >= 1, got {self.pe}")
        if self.vector_lanes < 1:
            raise ValueError(
                f"vector_lanes must be >= 1, got {self.vector_lanes}")
        if self.dropout_lanes < 1:
            raise ValueError(
                f"dropout_lanes must be >= 1, got {self.dropout_lanes}")
        if not 0.0 < self.weight_residency <= 1.0:
            raise ValueError(
                f"weight_residency must be in (0, 1], got "
                f"{self.weight_residency}")
        if self.mc_samples < 1:
            raise ValueError(
                f"mc_samples must be >= 1, got {self.mc_samples}")
        if not 0.0 <= self.weight_sparsity < 1.0:
            raise ValueError(
                f"weight_sparsity must be in [0, 1), got "
                f"{self.weight_sparsity}")

    @property
    def effective_clock_mhz(self) -> float:
        """Operating frequency, defaulting to the device's."""
        return float(self.clock_mhz if self.clock_mhz is not None
                     else self.device.default_clock_mhz)


@dataclass
class LayerPerf:
    """Per-layer performance/resource estimate for one forward pass."""

    info: LayerInfo
    cycles: float
    dsp: int = 0
    bram36: int = 0
    ffs: int = 0
    luts: int = 0
    comparator_ops: float = 0.0


@dataclass
class ResourceUsage:
    """Aggregate resource usage of a design."""

    dsp: int
    bram36: int
    ffs: int
    luts: int

    def utilization(self, device: FPGADevice) -> Dict[str, float]:
        """Fractional utilization per resource class on ``device``."""
        return {
            "DSP": self.dsp / device.dsp,
            "BRAM": self.bram36 / device.bram36,
            "FF": self.ffs / device.ffs,
            "LUT": self.luts / device.luts,
        }


@dataclass
class PerfEstimate:
    """Latency/resource estimate of a full MC-dropout inference."""

    layers: List[LayerPerf]
    config: AcceleratorConfig
    cycles_per_pass: float
    total_cycles: float
    resources: ResourceUsage
    comparator_ops_per_inference: float

    @property
    def latency_ms(self) -> float:
        """End-to-end latency of one uncertainty-aware inference."""
        return self.total_cycles / (self.config.effective_clock_mhz * 1e3)

    @property
    def throughput_images_per_s(self) -> float:
        """Uncertainty-aware inferences per second."""
        return 1e3 / self.latency_ms


def _layer_cycles(layer: LayerInfo, cfg: AcceleratorConfig) -> float:
    """Cycles for one layer in one forward pass (dropout handled apart)."""
    if layer.kind in (KIND_CONV, KIND_LINEAR):
        effective_macs = layer.macs * (1.0 - cfg.weight_sparsity)
        return math.ceil(effective_macs / (cfg.pe * 1.0)) + PIPELINE_DEPTH_CYCLES
    if layer.kind in (KIND_BN, KIND_ACT, KIND_POOL, KIND_GPOOL):
        return math.ceil(layer.out_elements / cfg.vector_lanes)
    if layer.kind in (KIND_FLATTEN, KIND_IDENTITY):
        return 0.0
    raise ValueError(f"unhandled layer kind {layer.kind!r}")


def estimate(netlist: Netlist, config: AcceleratorConfig) -> PerfEstimate:
    """Estimate latency and resources for ``netlist`` under ``config``.

    Args:
        netlist: traced network (dropout slots must reflect the active
            configuration).
        config: accelerator design knobs.

    Returns:
        A :class:`PerfEstimate` covering all ``mc_samples`` passes.
    """
    device = config.device
    layer_perfs: List[LayerPerf] = []
    cycles = 0.0
    comparator_ops_pass = 0.0
    extra_ffs = 0
    extra_luts = 0
    mask_bram_bits = 0

    layers = [layer for layer in netlist.layers if layer.kind != KIND_ADD]
    for layer in layers:
        if layer.kind == KIND_DROPOUT:
            hw: DropoutHWModel = model_dropout_layer(
                layer, lanes=config.dropout_lanes)
            perf = LayerPerf(info=layer, cycles=hw.stall_cycles,
                             ffs=hw.ffs, luts=hw.luts,
                             comparator_ops=hw.comparator_ops)
            comparator_ops_pass += hw.comparator_ops
            extra_ffs += hw.ffs
            extra_luts += hw.luts
            mask_bram_bits += hw.bram_bits
        else:
            perf = LayerPerf(info=layer, cycles=_layer_cycles(layer, config))
        cycles += perf.cycles
        layer_perfs.append(perf)

    total_cycles = (config.mc_samples * cycles
                    + (config.mc_samples - 1) * INTER_PASS_CYCLES)

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------
    weight_bits = (netlist.total_params * config.fixed_point.total_bits
                   * (1.0 - config.weight_sparsity))
    resident_bits = weight_bits * config.weight_residency
    bram_bits_per_tile = 36 * 1024
    weight_bram = math.ceil(resident_bits / bram_bits_per_tile)
    act_bits = netlist.max_activation_elements * config.fixed_point.total_bits
    act_bram = 2 * math.ceil(act_bits / bram_bits_per_tile)
    mask_bram = (math.ceil(mask_bram_bits / bram_bits_per_tile)
                 if mask_bram_bits else 0)
    # Every Masksembles slot occupies at least one physical tile.
    mask_slots = sum(1 for l in netlist.dropout_layers
                     if l.dropout_code == "M")
    mask_bram = max(mask_bram, mask_slots)
    bram = min(weight_bram + act_bram + mask_bram + IO_BUFFER_BRAM,
               device.bram36)

    dsp = min(math.ceil(config.pe / MACS_PER_DSP)
              + 2 * sum(1 for l in netlist.layers if l.kind == KIND_BN),
              device.dsp)
    n_layers = len(layers)
    ffs = min(int(BASE_FABRIC_FRACTION * device.ffs)
              + config.pe * FFS_PER_PE + n_layers * FFS_PER_LAYER
              + extra_ffs, device.ffs)
    luts = min(int(BASE_FABRIC_FRACTION * device.luts)
               + config.pe * LUTS_PER_PE + n_layers * LUTS_PER_LAYER
               + extra_luts, device.luts)

    return PerfEstimate(
        layers=layer_perfs,
        config=config,
        cycles_per_pass=cycles,
        total_cycles=total_cycles,
        resources=ResourceUsage(dsp=dsp, bram36=bram, ffs=ffs, luts=luts),
        comparator_ops_per_inference=comparator_ops_pass * config.mc_samples,
    )
