"""FPGA substrate: fixed point, performance/power models, GP cost model,
HLS code generation and cross-platform baselines.

Stands in for the paper's Vivado-HLS 2020.1 + Vivado toolchain (see the
substitution table in DESIGN.md).  The analytic models are calibrated to
the paper's reported operating points on the Xilinx XCKU115.
"""

from repro.hw.accelerator import (
    MODEL_PE_PRESETS,
    AcceleratorBuilder,
    AcceleratorDesign,
    recommended_config,
)
from repro.hw.baselines import (
    BYNQNET,
    QUOTED_DESIGNS,
    TPDS22,
    VIBNN,
    QuotedDesign,
    get_quoted_design,
)
from repro.hw.codegen import EmittedProject, emit_hls_project
from repro.hw.compile import (
    CompiledKernel,
    CompileError,
    FidelityReport,
    LayerPlan,
    compile_and_report,
    compile_deployment,
    load_kernel,
    measure_fidelity,
    save_kernel,
)
from repro.hw.cost_model import (
    CostModelReport,
    GPLatencyModel,
    build_latency_dataset,
    encode_features,
)
from repro.hw.device import (
    ARRIA10_GX1150,
    CYCLONE_V,
    DEVICE_CATALOG,
    XCKU115,
    ZYNQ_XC7Z020,
    FPGADevice,
    get_device,
)
from repro.hw.dropout_hw import (
    COMPARATORS_PER_ELEMENT,
    STALL_CYCLES_PER_ELEMENT,
    DropoutHWModel,
    dropout_stall_cycles,
    model_dropout_layer,
)
from repro.hw.fixed_point import PAPER_FORMAT, FixedPointFormat
from repro.hw.gp import GaussianProcessRegressor, matern52, rbf
from repro.hw.netlist import LayerInfo, Netlist, trace_network
from repro.hw.perf import (
    AcceleratorConfig,
    LayerPerf,
    PerfEstimate,
    ResourceUsage,
    estimate,
)
from repro.hw.platforms import (
    CPU_I9_9900K,
    GPU_RTX_2080,
    PLATFORM_CATALOG,
    Platform,
    get_platform,
)
from repro.hw.power import PowerBreakdown, energy_per_image_j, estimate_power
from repro.hw.report import SynthesisReport

__all__ = [
    "ARRIA10_GX1150",
    "BYNQNET",
    "COMPARATORS_PER_ELEMENT",
    "CPU_I9_9900K",
    "CYCLONE_V",
    "DEVICE_CATALOG",
    "GPU_RTX_2080",
    "MODEL_PE_PRESETS",
    "PAPER_FORMAT",
    "PLATFORM_CATALOG",
    "QUOTED_DESIGNS",
    "STALL_CYCLES_PER_ELEMENT",
    "TPDS22",
    "VIBNN",
    "XCKU115",
    "ZYNQ_XC7Z020",
    "AcceleratorBuilder",
    "AcceleratorConfig",
    "AcceleratorDesign",
    "CompileError",
    "CompiledKernel",
    "CostModelReport",
    "FidelityReport",
    "DropoutHWModel",
    "EmittedProject",
    "FPGADevice",
    "FixedPointFormat",
    "GPLatencyModel",
    "GaussianProcessRegressor",
    "LayerInfo",
    "LayerPerf",
    "LayerPlan",
    "Netlist",
    "PerfEstimate",
    "Platform",
    "PowerBreakdown",
    "QuotedDesign",
    "ResourceUsage",
    "SynthesisReport",
    "build_latency_dataset",
    "compile_and_report",
    "compile_deployment",
    "dropout_stall_cycles",
    "emit_hls_project",
    "load_kernel",
    "measure_fidelity",
    "save_kernel",
    "encode_features",
    "energy_per_image_j",
    "estimate",
    "estimate_power",
    "get_device",
    "get_platform",
    "get_quoted_design",
    "matern52",
    "model_dropout_layer",
    "rbf",
    "recommended_config",
    "trace_network",
]
