"""Tests for fixed-point quantization (Q1.7.8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import PAPER_FORMAT, FixedPointFormat


class TestFormat:
    def test_paper_format_fields(self):
        assert PAPER_FORMAT.total_bits == 16
        assert PAPER_FORMAT.fraction_bits == 8
        assert PAPER_FORMAT.integer_bits == 7

    def test_range(self):
        assert PAPER_FORMAT.max_value == pytest.approx(127.99609375)
        assert PAPER_FORMAT.min_value == -128.0

    def test_scale(self):
        assert PAPER_FORMAT.scale == pytest.approx(1 / 256)

    def test_str_is_hls_type(self):
        assert str(PAPER_FORMAT) == "ap_fixed<16,8>"

    def test_invalid_fraction_bits(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=8, fraction_bits=8)
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=8, fraction_bits=-1)


class TestQuantize:
    def test_representable_values_exact(self):
        values = np.array([0.0, 0.5, -1.25, 100.0, 1 / 256])
        assert np.array_equal(PAPER_FORMAT.quantize(values), values)

    def test_rounding_to_nearest(self):
        x = np.array([1 / 512])  # halfway between 0 and 1 lsb
        q = PAPER_FORMAT.quantize(x)
        assert q[0] in (0.0, 1 / 256)

    def test_saturation_high(self):
        q = PAPER_FORMAT.quantize(np.array([1e6]))
        assert q[0] == pytest.approx(PAPER_FORMAT.max_value)

    def test_saturation_low(self):
        q = PAPER_FORMAT.quantize(np.array([-1e6]))
        assert q[0] == pytest.approx(PAPER_FORMAT.min_value)

    def test_error_bounded_by_half_lsb(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-100, 100, 1000)
        err = np.abs(PAPER_FORMAT.quantize(x) - x)
        assert err.max() <= PAPER_FORMAT.scale / 2 + 1e-9

    def test_to_fixed_integer_codes(self):
        codes = PAPER_FORMAT.to_fixed(np.array([1.0, -1.0]))
        assert codes.tolist() == [256, -256]

    def test_infinities_saturate(self):
        codes = PAPER_FORMAT.to_fixed(np.array([np.inf, -np.inf, 1.5]))
        assert codes.tolist() == [32767, -32768, 384]

    def test_nan_has_no_code(self):
        # An int cast would turn NaN into INT64_MIN, outside the code
        # range every overflow certificate assumes.
        with pytest.raises(ValueError, match="NaN"):
            PAPER_FORMAT.to_fixed(np.array([np.nan, np.inf, -np.inf, 1.5]))

    def test_from_fixed_roundtrip(self):
        codes = np.array([256, -512, 1])
        values = PAPER_FORMAT.from_fixed(codes)
        assert np.allclose(values, [1.0, -2.0, 1 / 256])

    def test_quantization_error_metric(self):
        assert PAPER_FORMAT.quantization_error(np.array([1.0])) == 0.0
        assert PAPER_FORMAT.quantization_error(np.array([])) == 0.0

    @given(st.lists(st.floats(-120, 120), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_property(self, values):
        x = np.array(values)
        once = PAPER_FORMAT.quantize(x)
        twice = PAPER_FORMAT.quantize(once)
        assert np.array_equal(once, twice)
