"""Executable fixed-point compiler: Deployment → quantized integer kernel.

The software analogue of the paper's QKeras + hls4ml deployment flow:
:func:`compile_deployment` lowers a served configuration to a
:class:`CompiledKernel` that runs entirely in integer arithmetic under
the :mod:`repro.hw.fixed_point` semantics, and
:func:`~repro.hw.compile.fidelity.measure_fidelity` reports what that
quantization does to the accuracy and uncertainty quality the search
optimized for.
"""

from repro.hw.compile.calibrate import (
    DEFAULT_CALIBRATION_ROWS,
    DEFAULT_FIDELITY_ROWS,
    RangeRecord,
    calibration_split,
    observe_ranges,
)
from repro.hw.compile.compiler import (
    FIDELITY_ARTIFACT,
    KERNEL_ARTIFACT,
    KERNEL_TENSORS,
    KERNEL_VERSION,
    REQUEST_ARTIFACT,
    compile_and_report,
    compile_deployment,
    load_kernel,
    save_kernel,
)
from repro.hw.compile.fidelity import FidelityReport, measure_fidelity
from repro.hw.compile.formats import (
    MASK_FORMAT,
    tight_for_range,
    widen_for_range,
)
from repro.hw.compile.kernel import (
    CompileError,
    CompiledKernel,
    LayerPlan,
)

__all__ = [
    "DEFAULT_CALIBRATION_ROWS",
    "DEFAULT_FIDELITY_ROWS",
    "FIDELITY_ARTIFACT",
    "FidelityReport",
    "KERNEL_ARTIFACT",
    "KERNEL_TENSORS",
    "KERNEL_VERSION",
    "MASK_FORMAT",
    "REQUEST_ARTIFACT",
    "CompileError",
    "CompiledKernel",
    "LayerPlan",
    "RangeRecord",
    "calibration_split",
    "compile_and_report",
    "compile_deployment",
    "load_kernel",
    "measure_fidelity",
    "observe_ranges",
    "save_kernel",
    "tight_for_range",
    "widen_for_range",
]
