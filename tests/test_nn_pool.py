"""Tests for pooling layers."""

import numpy as np
import pytest

from repro import nn
from tests.gradcheck import layer_input_gradcheck


class TestMaxPool:
    def test_known_values(self):
        pool = nn.MaxPool2d(2)
        x = np.array([[[[1, 2, 5, 3],
                        [4, 0, 1, 2],
                        [7, 8, 2, 1],
                        [3, 5, 0, 9]]]], dtype=np.float32)
        y = pool(x)
        assert np.array_equal(y[0, 0], [[4, 5], [8, 9]])

    def test_stride_defaults_to_kernel(self):
        pool = nn.MaxPool2d(3)
        assert pool.stride == 3

    def test_negative_inputs_with_padding(self):
        # Padded positions must never win over real (negative) values.
        pool = nn.MaxPool2d(3, stride=1, padding=1)
        x = -np.ones((1, 1, 3, 3), dtype=np.float32)
        y = pool(x)
        assert np.all(y == -1.0)

    def test_backward_routes_to_argmax(self):
        pool = nn.MaxPool2d(2)
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        pool(x)
        g = pool.backward(np.array([[[[10.0]]]], dtype=np.float32))
        assert np.array_equal(g[0, 0], [[0, 0], [0, 10]])

    def test_input_gradcheck_away_from_ties(self):
        rng = np.random.default_rng(0)
        # Use well-separated values so eps never flips an argmax.
        x = rng.permutation(64).reshape(1, 1, 8, 8).astype(np.float32)
        layer_input_gradcheck(nn.MaxPool2d(2), x, eps=1e-2)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            nn.MaxPool2d(2).backward(np.zeros((1, 1, 1, 1), dtype=np.float32))


class TestAvgPool:
    def test_known_values(self):
        pool = nn.AvgPool2d(2)
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        assert pool(x)[0, 0, 0, 0] == pytest.approx(2.5)

    def test_input_gradcheck(self):
        x = np.random.default_rng(1).normal(size=(2, 2, 6, 6))
        layer_input_gradcheck(nn.AvgPool2d(2), x)

    def test_gradcheck_with_padding_and_stride(self):
        x = np.random.default_rng(2).normal(size=(1, 1, 7, 7))
        layer_input_gradcheck(nn.AvgPool2d(3, stride=2, padding=1), x)

    def test_backward_distributes_evenly(self):
        pool = nn.AvgPool2d(2)
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        pool(x)
        g = pool.backward(np.array([[[[4.0]]]], dtype=np.float32))
        assert np.allclose(g, 1.0)


class TestGlobalAvgPool:
    def test_shape_and_value(self):
        gap = nn.GlobalAvgPool2d()
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        y = gap(x)
        assert y.shape == (1, 2)
        assert y[0, 0] == pytest.approx(1.5)
        assert y[0, 1] == pytest.approx(5.5)

    def test_input_gradcheck(self):
        x = np.random.default_rng(3).normal(size=(2, 3, 4, 4))
        layer_input_gradcheck(nn.GlobalAvgPool2d(), x)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            nn.GlobalAvgPool2d().backward(np.zeros((1, 1), dtype=np.float32))


class TestValidation:
    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            nn.MaxPool2d(0)

    def test_invalid_padding(self):
        with pytest.raises(ValueError):
            nn.AvgPool2d(2, padding=-1)

    def test_3d_input_raises(self):
        with pytest.raises(ValueError):
            nn.MaxPool2d(2)(np.zeros((1, 4, 4), dtype=np.float32))

    def test_max_pool_padding_above_half_kernel_refused(self):
        # A window entirely in the -inf padding would emit -inf, which
        # the next conv turns into NaN (PyTorch's rule).
        for kernel, padding in ((2, 2), (3, 2), (1, 1)):
            with pytest.raises(ValueError, match="kernel_size // 2"):
                nn.MaxPool2d(kernel, padding=padding)
        x = np.random.default_rng(0).normal(
            size=(1, 2, 4, 4)).astype(np.float32)
        for kernel, padding in ((2, 1), (3, 1), (5, 2)):
            pool = nn.MaxPool2d(kernel, stride=1, padding=padding)
            assert np.isfinite(pool(x)).all()
            with nn.inference_mode():
                assert np.isfinite(pool(x)).all()


class TestInferenceRetainsNoState:
    """Parity contract: no pooling layer keeps backward state under
    inference mode (MaxPool always had it; AvgPool/GlobalAvgPool were
    retrofitted)."""

    @pytest.mark.parametrize("layer_factory", [
        lambda: nn.MaxPool2d(2),
        lambda: nn.MaxPool2d(3, stride=2, padding=1),
        lambda: nn.AvgPool2d(2),
        lambda: nn.AvgPool2d(3, stride=2, padding=1),
        lambda: nn.GlobalAvgPool2d(),
    ])
    def test_no_backward_state_under_inference(self, layer_factory):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6)).astype(
            np.float32)
        layer = layer_factory()
        with nn.inference_mode():
            y_inf = layer(x)
        for attr, value in vars(layer).items():
            if attr.startswith("_"):
                assert value is None, (
                    f"{layer!r} retained {attr} under inference mode")
        with pytest.raises(RuntimeError, match="backward"):
            layer.backward(np.ones_like(y_inf))
        # And the inference output matches the training-mode forward.
        y_train = layer_factory()(x)
        assert np.array_equal(y_inf, y_train)
