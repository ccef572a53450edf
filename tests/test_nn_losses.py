"""Tests for CrossEntropyLoss."""

import numpy as np
import pytest

from repro import nn
from repro.nn.functional import log_softmax, softmax


class TestForward:
    def test_uniform_logits_give_log_k(self):
        crit = nn.CrossEntropyLoss()
        logits = np.zeros((4, 10), dtype=np.float32)
        loss = crit(logits, np.arange(4))
        assert loss == pytest.approx(np.log(10), rel=1e-5)

    def test_confident_correct_gives_small_loss(self):
        crit = nn.CrossEntropyLoss()
        logits = np.array([[20.0, 0.0], [0.0, 20.0]], dtype=np.float32)
        assert crit(logits, np.array([0, 1])) < 1e-6

    def test_matches_manual_computation(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, 6)
        crit = nn.CrossEntropyLoss()
        loss = crit(logits, labels)
        manual = -log_softmax(logits)[np.arange(6), labels].mean()
        assert loss == pytest.approx(float(manual), rel=1e-5)

    def test_1d_logits_raise(self):
        with pytest.raises(ValueError, match=r"\(N, K\)"):
            nn.CrossEntropyLoss()(np.zeros(3), np.array([0]))


class TestBackward:
    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 1])
        crit = nn.CrossEntropyLoss()
        crit(logits, labels)
        grad = crit.backward()
        expected = softmax(logits)
        expected[np.arange(4), labels] -= 1.0
        expected /= 4
        assert np.allclose(grad, expected, atol=1e-6)

    def test_numeric_gradient(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(3, 4)).astype(np.float64)
        labels = np.array([1, 0, 3])
        crit = nn.CrossEntropyLoss()
        crit(logits, labels)
        grad = crit.backward()
        eps = 1e-5
        for idx in [(0, 0), (1, 2), (2, 3)]:
            lp = logits.copy()
            lp[idx] += eps
            lm = logits.copy()
            lm[idx] -= eps
            num = (crit(lp, labels) - crit(lm, labels)) / (2 * eps)
            assert grad[idx] == pytest.approx(num, abs=1e-5)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            nn.CrossEntropyLoss().backward()

    def test_backward_consumes_cache(self):
        crit = nn.CrossEntropyLoss()
        crit(np.zeros((1, 2)), np.array([0]))
        crit.backward()
        with pytest.raises(RuntimeError):
            crit.backward()


def _dense_reference(logits, labels, num_classes):
    """The historic dense one-hot formulation, kept as the oracle."""
    from repro.nn.functional import one_hot

    soft = one_hot(labels, num_classes)
    logp = log_softmax(logits, axis=1)
    probs = softmax(logits, axis=1)
    n = logits.shape[0]
    loss = float(-(soft * logp).sum() / n)
    grad = ((probs - soft) / n).astype(np.float32)
    return loss, grad


class TestIndexGatherRegression:
    """The one-hot-free unsmoothed path is bit-identical to the dense
    formulation it replaced, forward and backward."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_vs_dense_formulation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 130))
        k = int(rng.integers(2, 15))
        scale = float(rng.uniform(0.5, 40.0))
        logits = (rng.normal(size=(n, k)) * scale).astype(np.float32)
        labels = rng.integers(0, k, size=n)
        ref_loss, ref_grad = _dense_reference(logits, labels, k)
        crit = nn.CrossEntropyLoss()
        loss = crit(logits, labels)
        grad = crit.backward()
        assert loss == ref_loss
        assert grad.dtype == ref_grad.dtype
        assert grad.tobytes() == ref_grad.tobytes()

    def test_saturated_logits_bitwise(self):
        logits = np.array([[80.0, 0.0, -80.0], [0.0, 0.0, 0.0]],
                          dtype=np.float32)
        labels = np.array([0, 2])
        ref_loss, ref_grad = _dense_reference(logits, labels, 3)
        crit = nn.CrossEntropyLoss()
        assert crit(logits, labels) == ref_loss
        assert crit.backward().tobytes() == ref_grad.tobytes()

    def test_float64_logits_keep_float64_loss_precision(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(8, 5))  # float64
        labels = rng.integers(0, 5, size=8)
        ref_loss, ref_grad = _dense_reference(logits, labels, 5)
        crit = nn.CrossEntropyLoss()
        assert crit(logits, labels) == ref_loss
        grad = crit.backward()
        assert grad.dtype == np.float32
        assert grad.tobytes() == ref_grad.tobytes()

    def test_label_validation_preserved(self):
        crit = nn.CrossEntropyLoss()
        with pytest.raises(ValueError, match="labels"):
            crit(np.zeros((2, 3), dtype=np.float32), np.array([0, 3]))
        with pytest.raises(ValueError, match="1-D"):
            crit(np.zeros((2, 3), dtype=np.float32), np.array([[0], [1]]))
