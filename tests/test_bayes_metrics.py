"""Tests for the uncertainty metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes import (
    accuracy,
    average_predictive_entropy,
    brier_score,
    expected_calibration_error,
    max_entropy,
    negative_log_likelihood,
)
from repro.nn.functional import softmax
from tests.oracles import ece_from_reliability_diagram


def probs_strategy(n=8, k=4):
    return st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k),
        min_size=1, max_size=n,
    ).map(lambda rows: np.array(rows) / np.array(rows).sum(
        axis=1, keepdims=True))


class TestAccuracy:
    def test_perfect(self):
        probs = np.eye(3)
        assert accuracy(probs, np.arange(3)) == 1.0

    def test_zero(self):
        probs = np.eye(2)
        assert accuracy(probs, np.array([1, 0])) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(np.zeros((0, 2)), np.array([], dtype=int))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.eye(2), np.array([0]))

    def test_invalid_probs_raise(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            accuracy(np.array([[2.0, -1.0]]), np.array([0]))


class TestECE:
    def test_perfectly_calibrated_bins(self):
        # Confidence 0.75 in every prediction, exactly 75% correct.
        probs = np.tile([0.75, 0.25], (8, 1))
        labels = np.array([0] * 6 + [1] * 2)
        assert expected_calibration_error(probs, labels) == pytest.approx(
            0.0, abs=1e-9)

    def test_overconfident_penalized(self):
        probs = np.tile([0.99, 0.01], (10, 1))
        labels = np.array([0] * 5 + [1] * 5)  # only 50% correct
        ece = expected_calibration_error(probs, labels)
        assert ece == pytest.approx(0.49, abs=0.01)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        raw = rng.random((50, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 5, 50)
        ece = expected_calibration_error(probs, labels)
        assert 0.0 <= ece <= 1.0

    def test_num_bins_validation(self):
        with pytest.raises(ValueError):
            expected_calibration_error(np.eye(2), np.arange(2), num_bins=0)

    @given(probs_strategy())
    @settings(max_examples=30, deadline=None)
    def test_ece_bounded_property(self, probs):
        labels = np.zeros(len(probs), dtype=int)
        ece = expected_calibration_error(probs, labels)
        assert 0.0 <= ece <= 1.0


def overconfident_probs(n=400, k=4, seed=0):
    """Right about 60% of the time, but 99% confident."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, n)
    predicted = np.where(rng.random(n) < 0.6, labels, (labels + 1) % k)
    logits = np.full((n, k), -3.0)
    logits[np.arange(n), predicted] = 6.0
    return softmax(logits, axis=1), labels


#: Rows on the bin edges.  Each shares its bin with a row whose gap has
#: the other sign, so a row filed in the wrong bin moves the error:
#: confidence 1.0 (the last bin), confidence 0.0 (an all-zero row, the
#: first bin, beside a 0.2 row in the second bin at 7 and 10 bins), one
#: bin holding everything, and 0.5 on an interior edge of ten
#: right-closed bins, which belongs to (0.4, 0.5].
EDGE_BIN_CASES = [
    pytest.param([[1.0, 0.0], [1.0, 0.0], [0.95, 0.05]], [0, 1, 0], bins,
                 id=f"confidence-one-{bins}") for bins in (1, 2, 7, 10)
] + [
    pytest.param([[0.0, 0.0], [0.0, 0.0], [0.05, 0.05], [0.2, 0.2]],
                 [1, 0, 1, 1], bins,
                 id=f"confidence-zero-{bins}") for bins in (1, 2, 7, 10)
] + [
    pytest.param([[1.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.9, 0.1]],
                 [0, 0, 1, 1], 1, id="single-bin"),
    pytest.param([[0.5, 0.5, 0.0], [0.45, 0.35, 0.2]], [0, 1], 10,
                 id="right-closed-interior-edge"),
]


class TestECEOracle:
    """ECE against a reliability diagram recomposed row by row."""

    def test_matches_reliability_diagram(self):
        probs, labels = overconfident_probs()
        assert expected_calibration_error(probs, labels) == pytest.approx(
            ece_from_reliability_diagram(probs, labels), abs=1e-9)

    @pytest.mark.parametrize("probs, labels, num_bins", EDGE_BIN_CASES)
    def test_edge_bins_match_reliability_diagram(self, probs, labels,
                                                 num_bins):
        probs, labels = np.array(probs), np.array(labels)
        assert expected_calibration_error(
            probs, labels, num_bins=num_bins) == pytest.approx(
            ece_from_reliability_diagram(probs, labels, num_bins),
            abs=1e-12)


class TestAPE:
    def test_uniform_gives_max_entropy(self):
        probs = np.full((5, 4), 0.25)
        assert average_predictive_entropy(probs) == pytest.approx(
            np.log(4), rel=1e-5)

    def test_confident_gives_zero(self):
        assert average_predictive_entropy(np.eye(3)) == pytest.approx(
            0.0, abs=1e-6)

    def test_max_entropy_helper(self):
        assert max_entropy(10) == pytest.approx(np.log(10))

    @given(probs_strategy())
    @settings(max_examples=30, deadline=None)
    def test_ape_bounds_property(self, probs):
        ape = average_predictive_entropy(probs)
        assert -1e-9 <= ape <= np.log(probs.shape[1]) + 1e-6

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_predictive_entropy(np.zeros((0, 3)))


class TestNLLBrier:
    def test_nll_known_value(self):
        probs = np.array([[0.5, 0.5]])
        assert negative_log_likelihood(probs, np.array([0])) == pytest.approx(
            np.log(2), rel=1e-5)

    def test_nll_perfect_is_zero(self):
        assert negative_log_likelihood(np.eye(3), np.arange(3)) == \
            pytest.approx(0.0, abs=1e-6)

    def test_brier_known_value(self):
        probs = np.array([[0.8, 0.2]])
        # (0.8-1)^2 + (0.2-0)^2 = 0.08
        assert brier_score(probs, np.array([0])) == pytest.approx(0.08)

    def test_brier_perfect_is_zero(self):
        assert brier_score(np.eye(4), np.arange(4)) == pytest.approx(0.0)

    def test_brier_bounds(self):
        probs = np.array([[0.0, 1.0]])
        assert brier_score(probs, np.array([0])) == pytest.approx(2.0)

    def test_errors_on_empty(self):
        with pytest.raises(ValueError):
            negative_log_likelihood(np.zeros((0, 2)), np.array([], dtype=int))
        with pytest.raises(ValueError):
            brier_score(np.zeros((0, 2)), np.array([], dtype=int))
