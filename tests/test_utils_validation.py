"""Tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.fields import is_finite_number, is_int
from repro.utils.validation import (
    check_fraction,
    check_positive_int,
    check_same_length,
    check_shape_4d,
)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="positive"):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            check_positive_int(-2, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError, match="int"):
            check_positive_int(2.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="myarg"):
            check_positive_int(-1, "myarg")


class TestCheckFraction:
    def test_accepts_zero_by_default(self):
        assert check_fraction(0.0, "p") == 0.0

    def test_rejects_one_by_default(self):
        with pytest.raises(ValueError):
            check_fraction(1.0, "p")

    def test_inclusive_high(self):
        assert check_fraction(1.0, "p", inclusive_high=True) == 1.0

    def test_exclusive_low(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "p", inclusive_low=False)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_fraction(-0.1, "p")

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_fraction(1.5, "p", inclusive_high=True)


class TestCheckShape4d:
    def test_accepts_4d(self):
        x = np.zeros((2, 3, 4, 5))
        assert check_shape_4d(x, "x").shape == (2, 3, 4, 5)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="N, C, H, W"):
            check_shape_4d(np.zeros((3, 4, 5)), "x")

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            check_shape_4d(np.float64(1.0), "x")


class TestCheckSameLength:
    def test_equal_lengths_pass(self):
        check_same_length([1, 2], [3, 4], "a", "b")

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="same length"):
            check_same_length([1], [2, 3], "a", "b")


class TestJsonNumberRule:
    """The artifact parsers' rule: check, never coerce."""

    @pytest.mark.parametrize("value", [0, 7, -3, 2 ** 70])
    def test_int_accepts_json_ints(self, value):
        assert is_int(value)

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None,
                                       [1]])
    def test_int_refuses_everything_else(self, value):
        assert not is_int(value)

    @pytest.mark.parametrize("value", [0, -2, 0.5, 1e300])
    def test_finite_number_accepts_finite_numbers(self, value):
        assert is_finite_number(value)

    @pytest.mark.parametrize("value", [True, float("nan"), float("inf"),
                                       -float("inf"), "0.1", None,
                                       10 ** 400])
    def test_finite_number_refuses_everything_else(self, value):
        assert not is_finite_number(value)
