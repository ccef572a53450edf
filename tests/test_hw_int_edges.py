"""Edge-case audit of the integer kernel primitives at int64 extremes.

The compiled kernel's rescaling primitives — :func:`round_shift`,
:func:`round_divide`, :func:`saturate` — run on int64 accumulators
whose worst-case magnitudes the overflow certificate bounds.  These
tests pin their behavior at the extremes the certificate reasons
about: INT64_MIN/MAX operands, ``shift == 0`` and negative shifts,
and negative exact-half ties under round-half-to-even.

The reference implementations here use *exact* integer arithmetic
(``divmod`` + tie-to-even), not ``np.rint(acc / 2**shift)``: a float64
reference is off by whole units at 2**63 magnitudes, which is exactly
the regime being audited.

Audit notes pinned below (each has a test):

* ``round_divide(INT64_MIN, 3)``: the intermediate ``q * divisor``
  wraps int64, but ``r = acc - q*divisor`` is computed modulo 2**64 in
  two's complement, so the remainder — and therefore the result — is
  still exact.
* ``round_shift`` with ``shift <= 0`` is a bare left shift: it wraps
  silently once codes exceed ``2**63 / 2**-shift``.  That hazard is
  *statically excluded* by the overflow certificate (the
  ``post_shift_bound``), not by the primitive; the test documents the
  division of labor.

The same primitives also take integer-valued float64 — the codes the
kernel runs on wherever the certificate bounds an op below ``2**53``
(:func:`~repro.hw.compile.kernel.code_dtype`).  :class:`TestFloat64Codes`
pins that path to the int64 one: ties at ±½ LSB, negative values,
``shift <= 0``, magnitudes up to ``2**52`` and divisors 2–64.
"""

import numpy as np
import pytest

from repro.analysis.intervals import INT64_MAX, INT64_MIN
from repro.hw.compile.kernel import (
    requantize,
    round_divide,
    round_shift,
    saturate,
)
from repro.hw.fixed_point import FixedPointFormat


def _rhe(numerator: int, denominator: int) -> int:
    """Exact round-half-to-even of ``numerator / denominator``.

    Pure Python integers: correct at any magnitude, unlike a float
    reference which loses whole units beyond 2**53.
    """
    q, r = divmod(numerator, denominator)
    twice = 2 * r
    if twice > denominator or (twice == denominator and q % 2 == 1):
        q += 1
    return q


def _shift_ref(value: int, shift: int) -> int:
    """Reference for :func:`round_shift` (exact at any magnitude)."""
    if shift <= 0:
        return value << (-shift)
    return _rhe(value, 1 << shift)


# ----------------------------------------------------------------------
# round_shift
# ----------------------------------------------------------------------
class TestRoundShift:
    def test_zero_shift_is_identity(self):
        codes = np.array([INT64_MIN, -1, 0, 1, INT64_MAX], dtype=np.int64)
        np.testing.assert_array_equal(round_shift(codes, 0), codes)

    def test_negative_shift_scales_up_exactly(self):
        codes = np.array([-5, -1, 0, 3], dtype=np.int64)
        np.testing.assert_array_equal(round_shift(codes, -4), codes * 16)

    def test_int64_min_arithmetic_shift(self):
        # INT64_MIN >> k is well-defined (arithmetic shift) and the
        # remainder mask keeps the tie logic exact.
        codes = np.array([INT64_MIN], dtype=np.int64)
        for shift in (1, 8, 31, 62):
            expected = _shift_ref(INT64_MIN, shift)
            assert int(round_shift(codes, shift)[0]) == expected

    def test_int64_max_round_up_stays_in_word(self):
        # INT64_MAX >> 8 rounds up by one; the +1 carry must not wrap.
        codes = np.array([INT64_MAX], dtype=np.int64)
        for shift in (1, 8, 62):
            expected = _shift_ref(INT64_MAX, shift)
            assert int(round_shift(codes, shift)[0]) == expected

    def test_negative_exact_half_ties_to_even(self):
        # -2.5 -> -2, -1.5 -> -2, -0.5 -> 0 at shift=1 (codes -5,-3,-1).
        codes = np.array([-5, -3, -1, 1, 3, 5], dtype=np.int64)
        expected = np.array([_shift_ref(int(c), 1) for c in codes])
        np.testing.assert_array_equal(round_shift(codes, 1), expected)

    def test_matches_reference_on_dense_small_range(self):
        codes = np.arange(-4096, 4097, dtype=np.int64)
        for shift in (1, 2, 3, 7):
            expected = np.array([_shift_ref(int(c), shift) for c in codes])
            np.testing.assert_array_equal(round_shift(codes, shift),
                                          expected)

    def test_matches_rint_where_floats_are_exact(self):
        # The documented contract: np.rint(acc / 2**shift) — valid only
        # while the quotient fits float64's integer range.
        codes = np.arange(-3000, 3000, 7, dtype=np.int64) * 1001
        for shift in (3, 10):
            expected = np.rint(codes / (1 << shift)).astype(np.int64)
            np.testing.assert_array_equal(round_shift(codes, shift),
                                          expected)

    def test_left_shift_wraps_without_certificate(self):
        # Documented hazard: shift <= 0 is a bare left shift and wraps
        # silently at the word boundary.  The overflow certificate's
        # post_shift_bound is what excludes this case statically.
        codes = np.array([1 << 62], dtype=np.int64)
        with np.errstate(over="ignore"):
            wrapped = round_shift(codes, -1)
        assert int(wrapped[0]) == INT64_MIN  # 2**63 wrapped negative


# ----------------------------------------------------------------------
# round_divide
# ----------------------------------------------------------------------
class TestRoundDivide:
    def test_int64_min_by_three_is_exact(self):
        # Audit: q * divisor wraps int64 here, but two's-complement
        # wraparound cancels in r = acc - q*divisor (mod 2**64), so the
        # rounded quotient is still exact.
        acc = np.array([INT64_MIN], dtype=np.int64)
        with np.errstate(over="ignore"):
            result = int(round_divide(acc, 3)[0])
        assert result == _rhe(INT64_MIN, 3)

    def test_int64_extremes_various_divisors(self):
        for value in (INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX):
            for divisor in (2, 3, 4, 7, 9, 255):
                acc = np.array([value], dtype=np.int64)
                with np.errstate(over="ignore"):
                    result = int(round_divide(acc, divisor)[0])
                assert result == _rhe(value, divisor), (value, divisor)

    def test_negative_exact_half_ties_to_even(self):
        # -9/2 = -4.5 -> -4 (even); -11/2 = -5.5 -> -6 (even).
        acc = np.array([-9, -11, 9, 11], dtype=np.int64)
        np.testing.assert_array_equal(round_divide(acc, 2),
                                      np.array([-4, -6, 4, 6]))

    def test_matches_reference_on_dense_small_range(self):
        acc = np.arange(-2000, 2001, dtype=np.int64)
        for divisor in (2, 3, 4, 9, 16):
            expected = np.array([_rhe(int(v), divisor) for v in acc])
            np.testing.assert_array_equal(round_divide(acc, divisor),
                                          expected)

    def test_divisor_one_is_identity(self):
        acc = np.array([INT64_MIN, -1, 0, INT64_MAX], dtype=np.int64)
        np.testing.assert_array_equal(round_divide(acc, 1), acc)


# ----------------------------------------------------------------------
# saturate
# ----------------------------------------------------------------------
class TestSaturate:
    def test_full_width_format_is_identity_at_extremes(self):
        fmt = FixedPointFormat(total_bits=64, fraction_bits=0)
        codes = np.array([INT64_MIN, -1, 0, INT64_MAX], dtype=np.int64)
        np.testing.assert_array_equal(saturate(codes, fmt), codes)

    def test_narrow_format_clamps_extremes(self):
        fmt = FixedPointFormat(total_bits=16, fraction_bits=8)
        codes = np.array([INT64_MIN, -32769, -32768, 32767, 32768,
                          INT64_MAX], dtype=np.int64)
        np.testing.assert_array_equal(
            saturate(codes, fmt),
            np.array([-32768, -32768, -32768, 32767, 32767, 32767]))

    def test_interior_codes_pass_through(self):
        fmt = FixedPointFormat(total_bits=16, fraction_bits=8)
        codes = np.arange(-32768, 32768, 997, dtype=np.int64)
        np.testing.assert_array_equal(saturate(codes, fmt), codes)


# ----------------------------------------------------------------------
# float-reference breakdown (why the audit uses integer references)
# ----------------------------------------------------------------------
def test_float_reference_is_wrong_at_int64_extremes():
    # Float64 spacing at 2**62 is 1024, so the +12 below vanishes in a
    # float oracle — np.rint(value / 8) lands on 2**59 while the exact
    # quotient ties at .5 and rounds (half-to-even) up to 2**59 + 2.
    # Any float-based reference is invalid in exactly the regime the
    # certificate reasons about; round_shift stays exact.
    value = (1 << 62) + 12
    exact = _rhe(value, 8)
    via_float = int(np.rint(value / 8))
    assert via_float != exact
    codes = np.array([value], dtype=np.int64)
    assert int(round_shift(codes, 3)[0]) == exact


# ----------------------------------------------------------------------
# float64 codes: the same results as int64 below 2**53
# ----------------------------------------------------------------------
def _edge_codes(shift: int) -> np.ndarray:
    """int64 codes up to 2**52 in magnitude: dense small values, every
    ±½-LSB tie of ``shift``, and random large magnitudes."""
    rng = np.random.default_rng(abs(shift))
    dense = np.arange(-300, 301, dtype=np.int64)
    ties = np.array([], dtype=np.int64)
    if shift > 0:
        k = np.arange(-40, 41, dtype=np.int64)
        ties = np.concatenate([k * (1 << shift) + (1 << (shift - 1)),
                               k * (1 << shift) - (1 << (shift - 1))])
    large = rng.integers(-(1 << 52), (1 << 52) + 1, size=400,
                         dtype=np.int64)
    edges = np.array([(1 << 52), -(1 << 52), (1 << 52) - 1,
                      -(1 << 52) + 1], dtype=np.int64)
    return np.concatenate([dense, ties, large, edges])


def _assert_same_codes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.float64
    assert np.all(got == np.rint(got))        # still integer-valued
    np.testing.assert_array_equal(got.astype(np.int64), want)


class TestFloat64Codes:
    @pytest.mark.parametrize("shift", [1, 2, 3, 7, 8, 13, 24, 40])
    def test_round_shift_matches_int64(self, shift):
        codes = _edge_codes(shift)
        want = round_shift(codes, shift)
        _assert_same_codes(round_shift(codes.astype(np.float64), shift),
                           want)
        spot = [int(c) for c in codes[::37]]
        assert [int(v) for v in want[::37]] == [
            _shift_ref(c, shift) for c in spot]

    def test_round_shift_ties_to_even_both_signs(self):
        # ±0.5, ±1.5, ±2.5 LSB at shift 1 -> 0, ±2, ±2.
        codes = np.array([-5, -3, -1, 1, 3, 5], dtype=np.float64)
        np.testing.assert_array_equal(round_shift(codes, 1),
                                      [-2, -2, 0, 0, 2, 2])

    @pytest.mark.parametrize("shift", [0, -1, -4, -12])
    def test_nonpositive_shift_scales_up_exactly(self, shift):
        codes = _edge_codes(1) >> (12 + 1)       # room for the scale-up
        _assert_same_codes(round_shift(codes.astype(np.float64), shift),
                           round_shift(codes, shift))

    @pytest.mark.parametrize("divisor", list(range(2, 65)))
    def test_round_divide_matches_int64(self, divisor):
        codes = _edge_codes(0)
        k = np.arange(-30, 31, dtype=np.int64)
        # Exact-half ties exist for even divisors; odd ones have none.
        codes = np.concatenate([codes, k * divisor + divisor // 2,
                                k * divisor - divisor // 2])
        want = round_divide(codes, divisor)
        _assert_same_codes(round_divide(codes.astype(np.float64), divisor),
                           want)
        spot = [int(c) for c in codes[::29]]
        assert [int(v) for v in want[::29]] == [
            _rhe(c, divisor) for c in spot]

    @pytest.mark.parametrize("bits", [2, 8, 16, 28, 40, 53])
    def test_saturate_matches_int64(self, bits):
        fmt = FixedPointFormat(total_bits=bits, fraction_bits=0)
        codes = _edge_codes(3)
        _assert_same_codes(saturate(codes.astype(np.float64), fmt),
                           saturate(codes, fmt))

    @pytest.mark.parametrize("from_fraction,bits,fraction",
                             [(16, 16, 8), (22, 16, 8), (8, 16, 12),
                              (30, 28, 14), (40, 40, 0), (3, 53, 3)])
    def test_requantize_matches_int64(self, from_fraction, bits, fraction):
        fmt = FixedPointFormat(total_bits=bits, fraction_bits=fraction)
        codes = _edge_codes(from_fraction - fraction)
        if from_fraction < fraction:
            codes = codes >> (fraction - from_fraction)
        want = requantize(codes, from_fraction, fmt)
        _assert_same_codes(
            requantize(codes.astype(np.float64), from_fraction, fmt), want)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_out_writes_in_place(self, dtype):
        fmt = FixedPointFormat(total_bits=16, fraction_bits=8)
        codes = _edge_codes(10).astype(dtype)
        want = requantize(codes, 18, fmt)
        acc = codes.copy()
        assert requantize(acc, 18, fmt, out=acc) is acc
        np.testing.assert_array_equal(acc, want)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
