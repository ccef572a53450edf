"""Edge cases of the float engine's fast paths, against the reference.

* ``im2col``'s index gather equals the strided window copy for kernels
  1/3/5, strides 1/2, padding 0/1/2 and maps from 1x1 to 32x32, on a
  non-contiguous input, and into ``out=`` buffers in float32 (the
  training workspace), float64 and int64 (the fixed-point kernel's
  ``_conv_op``), whichever path the size rule picks.
* ``BatchNorm2d`` equals the ``(N, C, H, W)`` broadcast on 1x1 maps,
  float64 and non-contiguous input, and in training mode, and leaves
  its input unmodified.
* The Bernoulli, Random, Block, Masksembles and Gaussian mask plans
  equal ``T`` sequential draws, and the reference samplers' bytes, on
  the four ResNet-slim slot shapes, maps smaller than the block, one
  row, ``p = 0`` and a Block seed rate clipped to 1.
"""

from unittest import mock

import numpy as np
import pytest

from repro import nn
from repro.dropout import (
    BernoulliDropout,
    BlockDropout,
    GaussianDropout,
    Masksembles,
    RandomDropout,
)
from repro.nn import functional
from tests.oracles import (
    batch_norm_forward_reference,
    im2col_reference,
    reference_float_ops,
)

SIZES = (1, 2, 3, 4, 5, 7, 8, 13, 16, 32)


def lowered(x, kernel, stride, padding, rule, out=None):
    """``im2col`` with the gather forced on (``"gather"``) or off."""
    limit = 1 << 30 if rule == "gather" else 0
    with mock.patch.object(functional, "GATHER_MAX_POSITIONS", limit):
        return functional.im2col(x, kernel, stride, padding, out=out)


def sweeps(kernel, stride, padding):
    """The map sizes the sweep has an output for."""
    return [s for s in SIZES if s + 2 * padding >= kernel]


def out_buffer(x, kernel, stride, padding, dtype):
    n, c, h, w = x.shape
    oh = functional.conv_output_size(h, kernel, stride, padding)
    ow = functional.conv_output_size(w, kernel, stride, padding)
    return np.full((n, c * kernel * kernel, oh * ow), 7, dtype=dtype)


class TestIm2colGather:
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_gather_equals_window_copy(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 10 + stride + padding)
        for size in sweeps(kernel, stride, padding):
            x = rng.normal(size=(2, 3, size, size)).astype(np.float32)
            want = im2col_reference(x, kernel, stride, padding)
            for rule in ("gather", "window"):
                got = lowered(x, kernel, stride, padding, rule)
                assert got.dtype == want.dtype == np.float32
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (size, rule)
            # The size rule picks one of the two.
            assert functional.im2col(x, kernel, stride, padding).tobytes() \
                == want.tobytes()

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("rule", ["gather", "window"])
    def test_non_contiguous_input(self, rule, padding):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(3, 9, 9, 8)).astype(np.float32)
        x = base.transpose(0, 3, 1, 2)[:, ::2, 1:, :8]
        assert not x.flags.c_contiguous
        want = im2col_reference(x, 3, 1, padding)
        assert lowered(x, 3, 1, padding, rule).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("rule", ["gather", "window"])
    def test_into_out_buffers(self, rule, dtype):
        rng = np.random.default_rng(6)
        for kernel, stride, padding in [(3, 1, 1), (3, 2, 1), (5, 1, 0),
                                        (1, 2, 0), (5, 1, 2)]:
            for size in sweeps(kernel, stride, padding):
                if dtype is np.int64:
                    x = rng.integers(-2 ** 40, 2 ** 40,
                                     size=(2, 2, size, size))
                else:
                    x = rng.normal(size=(2, 2, size, size)).astype(dtype)
                want = im2col_reference(
                    x, kernel, stride, padding,
                    out=out_buffer(x, kernel, stride, padding, dtype))
                out = out_buffer(x, kernel, stride, padding, dtype)
                got = lowered(x, kernel, stride, padding, rule, out=out)
                assert got is out
                assert got.tobytes() == want.tobytes(), (kernel, size)

    def test_float64_input_without_out_is_float32(self):
        x = np.random.default_rng(7).normal(size=(2, 3, 4, 4))
        want = im2col_reference(x, 3, 1, 1)
        for rule in ("gather", "window"):
            got = lowered(x, 3, 1, 1, rule)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_index_is_cached_and_read_only(self):
        first = functional._window_index(4, 6, 6, 3, 1, 1)
        assert functional._window_index(4, 6, 6, 3, 1, 1) is first
        assert not first.flags.writeable


def batch_norm(channels, seed):
    rng = np.random.default_rng(seed)
    layer = nn.BatchNorm2d(channels)
    layer.running_mean = rng.normal(0, 0.5, channels).astype(np.float32)
    layer.running_var = rng.uniform(0.2, 3.0, channels).astype(np.float32)
    layer.weight.data[...] = rng.normal(1.0, 0.3, channels)
    layer.bias.data[...] = rng.normal(0, 0.3, channels)
    return layer.eval()


class TestBatchNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 4, 1, 1), (3, 6, 2, 2),
                                       (2, 3, 5, 7), (1, 8, 16, 16)])
    def test_equals_broadcast_and_leaves_input(self, shape, dtype):
        layer = batch_norm(shape[1], seed=sum(shape))
        x = np.random.default_rng(1).normal(0, 2, size=shape).astype(dtype)
        before = x.copy()
        got = layer(x)
        want = batch_norm_forward_reference(layer, before.copy())
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()
        assert not np.shares_memory(got, x)

    def test_non_contiguous_input(self):
        layer = batch_norm(4, seed=2)
        base = np.random.default_rng(3).normal(
            size=(3, 6, 6, 4)).astype(np.float32)
        x = base.transpose(0, 3, 1, 2)[:, :, ::2, 1:]
        want = batch_norm_forward_reference(layer, x)
        assert layer(x).tobytes() == want.tobytes()

    def test_training_mode_unchanged(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
        grad = rng.normal(size=x.shape).astype(np.float32)
        got, want = batch_norm(3, seed=5).train(), batch_norm(3, seed=5)
        want.train()
        assert got(x).tobytes() \
            == batch_norm_forward_reference(want, x).tobytes()
        assert got.running_mean.tobytes() == want.running_mean.tobytes()
        assert got.running_var.tobytes() == want.running_var.tobytes()
        assert got.backward(grad).tobytes() == want.backward(grad).tobytes()
        assert got.weight.grad.tobytes() == want.weight.grad.tobytes()


#: Zero-argument factories: each call starts from the same stream.
FAMILIES = {
    "bernoulli": lambda: BernoulliDropout(0.35, rng=7),
    "random": lambda: RandomDropout(0.35, rng=7),
    "block": lambda: BlockDropout(0.3, block_size=3, rng=7),
    "masksembles": lambda: Masksembles(4, scale=2.0, rng=7),
    "gaussian": lambda: GaussianDropout(0.3, rng=7),
}

#: ResNet-slim's four slot shapes at 16x16 input, maps smaller than a
#: 3x3 block, and one row.
SHAPES = {
    "stage1": (6, 8, 16, 16),
    "stage2": (6, 16, 8, 8),
    "stage3": (6, 32, 4, 4),
    "stage4": (6, 64, 2, 2),
    "map1x1": (6, 5, 1, 1),
    "row1": (1, 8, 16, 16),
}


def sequential(layer, num_samples, shape):
    layer.reset_samples()
    seq = []
    for _ in range(num_samples):
        seq.append(np.asarray(layer._sample_mask(shape)))
        layer.new_sample()
    return np.stack(seq)


def assert_plan(make, shape, num_samples=3):
    """The plan equals sequential draws and the reference's bytes."""
    planned = make().sample_masks(num_samples, shape)
    full = np.ascontiguousarray(
        np.broadcast_to(planned, (num_samples,) + shape))
    assert np.array_equal(full, sequential(make(), num_samples, shape))
    with reference_float_ops():
        reference = make().sample_masks(num_samples, shape)
        reference_seq = sequential(make(), num_samples, shape)
    assert planned.dtype == reference.dtype
    assert planned.shape == reference.shape
    assert planned.tobytes() == np.ascontiguousarray(reference).tobytes()
    assert full.tobytes() == reference_seq.tobytes()
    return full


class TestMaskPlanEdges:
    @pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_sequential_draws(self, family, shape):
        assert_plan(FAMILIES[family], shape)

    @pytest.mark.parametrize("make", [
        lambda: BernoulliDropout(0.0, rng=7),
        lambda: RandomDropout(0.0, rng=7),
        lambda: BlockDropout(0.0, block_size=3, rng=7),
    ], ids=["bernoulli", "random", "block"])
    def test_zero_rate_keeps_everything(self, make):
        for shape in SHAPES.values():
            assert (assert_plan(make, shape) == 1).all()

    def test_block_gamma_clipped_to_one_drops_everything(self):
        with mock.patch.object(BlockDropout, "_gamma", return_value=2.5):
            for shape in SHAPES.values():
                assert not assert_plan(FAMILIES["block"], shape).any()

    def test_block_on_fc_input_is_refused(self):
        with pytest.raises(ValueError, match="feature maps"):
            FAMILIES["block"]().sample_masks(2, (4, 12))
