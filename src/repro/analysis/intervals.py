"""Exact integer interval arithmetic for the overflow certifier.

The range analysis runs entirely on Python integers (arbitrary
precision), so the analysis itself can never wrap while reasoning about
arithmetic that might.  An :class:`Interval` bounds every value a code
tensor can take; the helpers below propagate those bounds through the
integer operations :mod:`repro.hw.compile.kernel` executes.

Two bounds travel together through every affine layer:

* the **final interval** ``[lo, hi]`` of the completed accumulation,
  computed from the exact weight codes (each term contributes its
  sign-aware min/max); and
* the **magnitude bound** ``sum_k |w_k| * max(|x_lo|, x_hi)``, which
  additionally dominates *every partial sum in every summation order* —
  the property that makes the certificate sound for a GEMM whose
  reduction order (BLAS blocking, im2col tiling) is unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Largest value an ``int64`` accumulator can hold.
INT64_MAX = (1 << 63) - 1

#: Smallest value an ``int64`` accumulator can hold.
INT64_MIN = -(1 << 63)


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` (Python ints, exact)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def magnitude(self) -> int:
        """Largest absolute value the interval contains."""
        return max(abs(self.lo), abs(self.hi))

    def scale(self, k: int) -> "Interval":
        """Multiply by the exact integer ``k`` (sign-aware)."""
        a, b = k * self.lo, k * self.hi
        return Interval(min(a, b), max(a, b))

    def add(self, other: "Interval") -> "Interval":
        """Sum of one value from each interval."""
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def mul(self, other: "Interval") -> "Interval":
        """Product of one value from each interval (four corners)."""
        corners = (self.lo * other.lo, self.lo * other.hi,
                   self.hi * other.lo, self.hi * other.hi)
        return Interval(min(corners), max(corners))

    def union(self, other: "Interval") -> "Interval":
        """Smallest interval containing both."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


def format_interval(fmt) -> Interval:
    """Code range of a :class:`~repro.hw.fixed_point.FixedPointFormat`.

    ``to_fixed`` saturates into exactly this two's-complement range, so
    it bounds *any representable input* of the format — the starting
    point of every per-layer analysis.
    """
    half = 1 << (fmt.total_bits - 1)
    return Interval(-half, half - 1)


def _column_sums(weights: np.ndarray) -> Tuple[list, list]:
    """Per-row positive/negative code sums of a 2-D weight matrix.

    Returns ``(pos, neg)`` lists of exact Python ints: ``pos[r]`` sums
    the positive codes of row ``r``, ``neg[r]`` the negative ones.
    Rows are the reduction outputs (conv filters, linear units); the
    fast ``int64`` path is used only when it provably cannot overflow,
    otherwise the sums fall back to exact object arithmetic.
    """
    w = np.asarray(weights)
    if w.ndim == 1:
        w = w.reshape(-1, 1)
    if w.size == 0:
        return [0], [0]
    peak = max(int(w.max()), -int(w.min()))
    # int64 partial sums stay exact while |w| * columns < 2**62.
    if peak and peak * w.shape[-1] >= (1 << 62):
        rows = w.astype(object)
        pos = [int(np.where(r > 0, r, 0).sum()) for r in rows]
        neg = [int(np.where(r < 0, r, 0).sum()) for r in rows]
        return pos, neg
    pos64 = np.where(w > 0, w, 0).sum(axis=-1, dtype=np.int64)
    neg64 = np.where(w < 0, w, 0).sum(axis=-1, dtype=np.int64)
    return [int(v) for v in pos64], [int(v) for v in neg64]


def affine_bounds(weights: np.ndarray, x: Interval,
                  bias: Optional[np.ndarray] = None
                  ) -> Tuple[Interval, int]:
    """Bound ``codes @ weights.T (+ bias)`` for ``codes`` in ``x``.

    Every element of the input vector ranges independently over ``x``
    (the worst case over all representable inputs).  For each output
    row ``r`` the exact extremes are ``hi_r = x.hi * pos_r + x.lo *
    neg_r`` and symmetrically for ``lo_r``; the magnitude bound is
    ``max(|x.lo|, x.hi) * (pos_r - neg_r) + |bias_r|``, which dominates
    every partial sum regardless of accumulation order.

    Args:
        weights: 2-D integer code matrix, reduction along the last
            axis (1-D input is treated as a per-row scalar, i.e. the
            batch-norm per-channel case).
        x: interval of every input code.
        bias: optional per-row integer bias codes added after the
            reduction (at the accumulator's scale).

    Returns:
        ``(interval, magnitude_bound)`` over all output rows.
    """
    pos, neg = _column_sums(np.asarray(weights))
    amax = x.magnitude
    biases = ([0] * len(pos) if bias is None
              else [int(b) for b in np.asarray(bias).ravel()])
    if bias is not None and len(biases) != len(pos):
        raise ValueError(
            f"bias has {len(biases)} rows, weights have {len(pos)}")
    lo = hi = None
    mag = 0
    for p, n, b in zip(pos, neg, biases):
        row_hi = x.hi * p + x.lo * n + b
        row_lo = x.lo * p + x.hi * n + b
        row_mag = amax * (p - n) + abs(b)
        lo = row_lo if lo is None else min(lo, row_lo)
        hi = row_hi if hi is None else max(hi, row_hi)
        mag = max(mag, row_mag)
    return Interval(lo, hi), mag


def shifted_magnitude(magnitude: int, shift: int) -> int:
    """Worst-case magnitude after ``round_shift(acc, shift)``.

    Positive shifts divide (rounding can add one ulp); non-positive
    shifts are exact left shifts — the case where an otherwise-safe
    accumulator can still wrap int64 inside ``requantize``.
    """
    if shift <= 0:
        return magnitude << (-shift)
    return (magnitude >> shift) + 1


def required_bits(magnitude: int) -> int:
    """Two's-complement width that safely holds ``±magnitude``."""
    return magnitude.bit_length() + 1


__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "Interval",
    "affine_bounds",
    "format_interval",
    "required_bits",
    "shifted_magnitude",
]
