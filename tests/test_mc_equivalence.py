"""Equivalence suite: the fused MC engine against the looped oracle.

The correctness contract of :mod:`repro.bayes.mc` (see its docstring):

* **bit-identity** — for every dropout family, Monte-Carlo sample
  count and micro-batch size, ``mc_predict`` produces bit-identical
  ``MCPrediction.probs`` to the ``mc_predict_looped`` oracle
  (:mod:`tests.oracles`) under a shared seed, on both ``(N, D)`` and
  ``(N, C, H, W)`` inputs, and in particular when ``batch_size`` splits
  a Monte-Carlo sample's batch mid-way;
* **mask invariance** — the canonical mask plan makes the random
  stream independent of the code path *and* of ``batch_size``, so results
  across different micro-batch settings agree to GEMM rounding only
  (BLAS row-count effects), never by a mask's worth.

Every check runs each engine on a freshly seeded model: bit-identity
is a statement about equal RNG state at call time.
"""

import numpy as np
import pytest

from repro import nn
from repro.bayes.mc import mc_predict
from repro.dropout import (
    BernoulliDropout,
    BlockDropout,
    GaussianDropout,
    Masksembles,
    RandomDropout,
)
from tests.oracles import mc_predict_looped

#: All five dropout families: the paper's four plus the Gaussian
#: extension.  Values are zero-argument factories so every engine run
#: starts from an identical RNG state.
FAMILIES = {
    "bernoulli": lambda: BernoulliDropout(0.35, rng=7),
    "random": lambda: RandomDropout(0.35, rng=7),
    "block": lambda: BlockDropout(0.3, block_size=2, rng=7),
    "masksembles": lambda: Masksembles(4, scale=2.0, rng=7),
    "gaussian": lambda: GaussianDropout(0.3, rng=7),
}

#: Families legal after fully connected layers.
FC_FAMILIES = [n for n in FAMILIES if n != "block"]

#: Micro-batch sizes: full batch, a divisor chunking, and a size that
#: splits each Monte-Carlo sample's 20-row batch mid-way.
BATCH_SIZES = [None, 5, 7]

NUM_INPUTS = 20


def conv_model(dropout):
    """(N, C, H, W) network with the dropout placed after the conv."""
    return nn.Sequential(
        nn.Conv2d(1, 4, 3, rng=0), nn.ReLU(), nn.MaxPool2d(2),
        dropout, nn.Flatten(), nn.Linear(4 * 7 * 7, 5, rng=1))


def fc_model(dropout):
    """(N, D) network with the dropout between linear layers."""
    return nn.Sequential(
        nn.Linear(48, 24, rng=0), nn.ReLU(),
        dropout, nn.Linear(24, 5, rng=1))


def conv_images(n=NUM_INPUTS):
    return np.random.default_rng(3).normal(
        size=(n, 1, 16, 16)).astype(np.float32)


def fc_features(n=NUM_INPUTS):
    return np.random.default_rng(4).normal(size=(n, 48)).astype(np.float32)


def run_engine(engine, build, make_dropout, x, num_samples, batch_size):
    """One engine pass on a freshly seeded model."""
    model = build(make_dropout())
    return engine(model, x, num_samples, batch_size=batch_size)


class TestBitIdentityConv:
    """Batched == looped, bit for bit, on image inputs."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("num_samples", [1, 3, 7])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_probs_bit_identical(self, family, num_samples, batch_size):
        x = conv_images()
        looped = run_engine(mc_predict_looped, conv_model,
                            FAMILIES[family], x, num_samples, batch_size)
        batched = run_engine(mc_predict, conv_model,
                             FAMILIES[family], x, num_samples, batch_size)
        assert looped.probs.shape == (num_samples, NUM_INPUTS, 5)
        assert np.array_equal(looped.probs, batched.probs)


class TestBitIdentityFC:
    """Batched == looped, bit for bit, on flat feature inputs."""

    @pytest.mark.parametrize("family", sorted(FC_FAMILIES))
    @pytest.mark.parametrize("num_samples", [1, 3, 7])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_probs_bit_identical(self, family, num_samples, batch_size):
        x = fc_features()
        looped = run_engine(mc_predict_looped, fc_model,
                            FAMILIES[family], x, num_samples, batch_size)
        batched = run_engine(mc_predict, fc_model,
                             FAMILIES[family], x, num_samples, batch_size)
        assert np.array_equal(looped.probs, batched.probs)


class TestMicroBatchInvariance:
    """Micro-batching changes GEMM rounding at most — never a mask."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_mid_sample_split_matches_full_batch(self, family):
        x = conv_images()
        full = run_engine(mc_predict, conv_model,
                          FAMILIES[family], x, 3, None)
        split = run_engine(mc_predict, conv_model,
                           FAMILIES[family], x, 3, 7)
        # Identical masks; only BLAS row-count rounding may differ.
        np.testing.assert_allclose(full.probs, split.probs,
                                   rtol=0, atol=1e-5)

    @pytest.mark.parametrize("family", sorted(FC_FAMILIES))
    def test_masks_independent_of_batch_size(self, family):
        """A conv tower without linear layers is fully batch-invariant,
        so even across *different* micro-batch sizes the probabilities
        stay bit-identical — demonstrating the masks cannot depend on
        the chunking."""

        def tower(dropout):
            return nn.Sequential(
                nn.Conv2d(1, 4, 3, rng=0), nn.ReLU(),
                dropout, nn.GlobalAvgPool2d())

        x = conv_images()
        full = run_engine(mc_predict, tower,
                          FAMILIES[family], x, 3, None)
        split = run_engine(mc_predict, tower,
                           FAMILIES[family], x, 3, 7)
        assert np.array_equal(full.probs, split.probs)


class TestEngineDispatch:
    def test_default_engine_is_batched(self):
        """mc_predict fuses the T passes: one forward per chunk."""
        model = conv_model(FAMILIES["bernoulli"]())
        head = model[0]
        calls = []
        original = head.forward

        def counting(x):
            calls.append(x.shape[0])
            return original(x)

        head.forward = counting
        mc_predict(model, conv_images(), 3)
        mc_predict(model, conv_images(), 3, batch_size=7)
        del head.forward
        # The deterministic prefix runs once per chunk of input rows,
        # never once per Monte-Carlo pass (the looped oracle's shape).
        assert calls == [NUM_INPUTS, 7, 7, 6]

    def test_unknown_engine_rejected(self):
        """The engine switch is gone: the oracle is not selectable."""
        with pytest.raises(TypeError, match="engine"):
            mc_predict(conv_model(FAMILIES["bernoulli"]()), conv_images(),
                       3, engine="looped")

    def test_no_dropout_model_identical_passes(self):
        model_l = nn.Sequential(nn.Flatten(), nn.Linear(256, 4, rng=0))
        model_b = nn.Sequential(nn.Flatten(), nn.Linear(256, 4, rng=0))
        x = conv_images()
        looped = mc_predict_looped(model_l, x, 3)
        batched = mc_predict(model_b, x, 3)
        assert np.array_equal(looped.probs, batched.probs)
        assert np.array_equal(batched.probs[0], batched.probs[1])

    def test_training_flag_restored(self):
        model = conv_model(FAMILIES["bernoulli"]())
        model.train()
        mc_predict(model, conv_images(), 2)
        assert model.training
        model.eval()
        mc_predict(model, conv_images(), 2)
        assert not model.training


class TestSampleMasksAPI:
    """sample_masks is the sequential draw, vectorized."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_sequential_draws(self, family):
        shape = (6, 4, 8, 8) if family == "block" else (6, 12)
        planned = FAMILIES[family]().sample_masks(5, shape)
        reference = FAMILIES[family]()
        reference.reset_samples()
        seq = []
        for _ in range(5):
            seq.append(np.asarray(reference._sample_mask(shape)))
            reference.new_sample()
        assert np.array_equal(
            np.broadcast_to(planned, (5,) + shape), np.stack(seq))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_advances_sample_counter(self, family):
        layer = FAMILIES[family]()
        shape = (3, 4, 8, 8) if family == "block" else (3, 12)
        layer.sample_masks(4, shape)
        assert layer.sample_index == 4

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            FAMILIES["bernoulli"]().sample_masks(0, (3, 12))
