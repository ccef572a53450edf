"""Fixed-point quantization — the paper's ``<16,8>`` data format.

Paper Sec. 4: *"16-bit fixed data is used, with 1 sign bit, 7 integer
bits and 8 fraction bits. QKeras is used for quantization."*  This
module reproduces that numeric format (symmetric two's-complement with
saturation and round-to-nearest); :mod:`repro.hw.compile` lowers a
deployment onto it for quantized inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.module import DTYPE
from repro.utils.fields import INT, declare
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed fixed-point format ``Q<integer_bits>.<fraction_bits>``.

    Attributes:
        total_bits: full word width including the sign bit.
        fraction_bits: bits to the right of the binary point.

    The integer bits (excluding sign) are
    ``total_bits - 1 - fraction_bits``.
    """

    total_bits: int = declare(INT, 16)
    fraction_bits: int = declare(INT, 8)

    def __post_init__(self) -> None:
        check_positive_int(self.total_bits, "total_bits")
        if self.fraction_bits < 0:
            raise ValueError(
                f"fraction_bits must be >= 0, got {self.fraction_bits}")
        if self.fraction_bits > self.total_bits - 1:
            raise ValueError(
                f"fraction_bits={self.fraction_bits} leaves no sign bit "
                f"in a {self.total_bits}-bit word")

    @property
    def integer_bits(self) -> int:
        """Integer bits excluding the sign bit."""
        return self.total_bits - 1 - self.fraction_bits

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return (2 ** (self.total_bits - 1) - 1) * self.scale

    @property
    def min_value(self) -> float:
        """Smallest (most negative) representable value."""
        return -(2 ** (self.total_bits - 1)) * self.scale

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_fixed(self, x: np.ndarray) -> np.ndarray:
        """Quantize to integer codes (round-to-nearest, saturating).

        ``±inf`` saturates like any out-of-range value.  NaN has no code
        (an int cast would yield INT64_MIN, outside every certified
        range), so it raises :class:`ValueError`.
        """
        x = np.asarray(x, dtype=np.float64)
        codes = np.rint(x / self.scale)
        if np.isnan(codes).any():
            raise ValueError(f"cannot quantize NaN to {self}")
        lo = -(2 ** (self.total_bits - 1))
        hi = 2 ** (self.total_bits - 1) - 1
        return np.clip(codes, lo, hi).astype(np.int64)

    def from_fixed(self, codes: np.ndarray) -> np.ndarray:
        """Convert integer codes back to real values."""
        return (np.asarray(codes, dtype=np.float64) * self.scale).astype(DTYPE)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip ``x`` through the format (quantize + dequantize)."""
        return self.from_fixed(self.to_fixed(x))

    def quantization_error(self, x: np.ndarray) -> float:
        """Mean absolute quantization error over ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.size == 0:
            return 0.0
        return float(np.abs(x - self.quantize(x)).mean())

    def __str__(self) -> str:
        return f"ap_fixed<{self.total_bits},{self.integer_bits + 1}>"


#: The paper's numeric format: 1 sign + 7 integer + 8 fraction bits.
PAPER_FORMAT = FixedPointFormat(total_bits=16, fraction_bits=8)
