"""Per-tensor fixed-point format assignment for the compiler.

The paper deploys every tensor in ``<16,8>`` (Q7.8).  The compiler
keeps that as the *default activation format* and deviates only where
it must or where it is free to:

* **Activations** keep the deployment's default format unless the
  calibrated range overflows it, in which case integer bits grow (at
  the same word width) until the range is representable — the width
  converters hls4ml inserts for exactly this reason.
* **Weights/scales** are fitted *tightly*: the integer field shrinks
  to what the actual parameter range needs and every freed bit becomes
  a fraction bit — standard per-tensor quantization, at the same word
  width the paper uses.

Both policies are overridable per layer through the ``overrides``
mapping accepted by :func:`repro.hw.compile.compile_deployment`.
"""

from __future__ import annotations

import numpy as np

from repro.hw.fixed_point import FixedPointFormat

#: Format of quantized dropout-mask ROM/stream values.  Inverted-dropout
#: masks are ``0`` or ``1/keep``-scaled (a few units at most), so four
#: integer bits cover every design in the zoo while 11 fraction bits
#: keep the mask-scale quantization error an order of magnitude below
#: the activation LSB.
MASK_FORMAT = FixedPointFormat(total_bits=16, fraction_bits=11)


def widen_for_range(max_abs: float,
                    default: FixedPointFormat) -> FixedPointFormat:
    """The default format, with integer bits grown to cover ``max_abs``.

    Keeps ``default`` whenever the observed range fits; otherwise moves
    fraction bits to the integer field (same word width) until the
    range is representable, bottoming out at zero fraction bits (a
    range even that cannot cover simply saturates, like the hardware).
    """
    fmt = default
    while max_abs > fmt.max_value and fmt.fraction_bits > 0:
        fmt = FixedPointFormat(total_bits=fmt.total_bits,
                               fraction_bits=fmt.fraction_bits - 1)
    return fmt


def tight_for_range(max_abs: float, total_bits: int) -> FixedPointFormat:
    """The ``total_bits``-wide format that fits ``max_abs`` most finely.

    Shrinks the integer field to the minimum covering ``max_abs`` and
    gives every remaining bit to the fraction — the per-tensor weight
    format policy.
    """
    fmt = FixedPointFormat(total_bits=total_bits,
                           fraction_bits=total_bits - 1)
    return widen_for_range(max_abs, fmt)


def aligned_format(formats) -> FixedPointFormat:
    """The narrowest format that holds each of ``formats`` exactly.

    The most fraction bits and the most integer bits of any of them: a
    residual add aligns every operand into it with an exact left shift.
    """
    fraction = max(fmt.fraction_bits for fmt in formats)
    integer = max(fmt.integer_bits for fmt in formats)
    return FixedPointFormat(total_bits=integer + fraction + 1,
                            fraction_bits=fraction)


def observed_max(array: np.ndarray) -> float:
    """Largest finite magnitude in ``array`` (0.0 for empty input)."""
    array = np.asarray(array)
    if array.size == 0:
        return 0.0
    return float(np.max(np.abs(array)))


__all__ = [
    "MASK_FORMAT",
    "aligned_format",
    "observed_max",
    "tight_for_range",
    "widen_for_range",
]
