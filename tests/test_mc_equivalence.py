"""Equivalence suite: the fused MC engine against the looped oracle.

The correctness contract of :mod:`repro.bayes.mc` (see its docstring):

* **bit-identity** — for every dropout family, Monte-Carlo sample
  count and input row count, ``mc_predict`` produces bit-identical
  ``MCPrediction.probs`` to the ``mc_predict_looped`` oracle
  (:mod:`tests.oracles`) under a shared seed, on both ``(N, D)`` and
  ``(N, C, H, W)`` inputs; every pass span of ``mc_predict_span`` (the
  replica pool's float shard) equals the same slice of the oracle's
  passes, whether each call draws its own plan or reads one shared
  ``plans=`` dict;
* **split invariance** — splitting one prediction along the pass axis
  changes no byte: the spans of a split concatenate to the whole.

Every check runs each engine on a freshly seeded model: bit-identity
is a statement about equal RNG state at call time.
"""

import numpy as np
import pytest

from repro import nn
from repro.bayes.evaluate import evaluate_bayesnn
from repro.bayes.mc import mc_predict, mc_predict_span
from repro.dropout import (
    BernoulliDropout,
    BlockDropout,
    GaussianDropout,
    Masksembles,
    RandomDropout,
)
from repro.search import BatchedEvaluator, CandidateEvaluator
from repro.serve import Deployment
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

#: Input row counts: None is the default 20-row batch; 5 and 7 rows
#: give the GEMMs other row counts.
ROW_COUNTS = [None, 5, 7]

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


def run_engine(engine, build, make_dropout, x, num_samples):
    """One engine pass on a freshly seeded model."""
    model = build(make_dropout())
    return engine(model, x, num_samples)


class TestBitIdentityConv:
    """Batched == looped, bit for bit, on image inputs."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("num_samples", [1, 3, 7])
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_probs_bit_identical(self, family, num_samples, rows):
        rows = rows or NUM_INPUTS
        x = conv_images(rows)
        looped = run_engine(mc_predict_looped, conv_model,
                            FAMILIES[family], x, num_samples)
        batched = run_engine(mc_predict, conv_model,
                             FAMILIES[family], x, num_samples)
        assert looped.probs.shape == (num_samples, rows, 5)
        assert np.array_equal(looped.probs, batched.probs)


class TestBitIdentityFC:
    """Batched == looped, bit for bit, on flat feature inputs."""

    @pytest.mark.parametrize("family", sorted(FC_FAMILIES))
    @pytest.mark.parametrize("num_samples", [1, 3, 7])
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_probs_bit_identical(self, family, num_samples, rows):
        x = fc_features(rows or NUM_INPUTS)
        looped = run_engine(mc_predict_looped, fc_model,
                            FAMILIES[family], x, num_samples)
        batched = run_engine(mc_predict, fc_model,
                             FAMILIES[family], x, num_samples)
        assert np.array_equal(looped.probs, batched.probs)


#: The paper's four designs by config letter: Bernoulli, Random, blocK
#: and Masksembles.
DESIGNS = {"B": "bernoulli", "R": "random", "K": "block",
           "M": "masksembles"}


def all_spans(num_samples):
    return [(a, b) for a in range(num_samples)
            for b in range(a + 1, num_samples + 1)]


class TestSpanEquivalence:
    """Every pass span of the fused engine == the oracle's slice."""

    @pytest.mark.parametrize("build,design", [
        (conv_model, "B"), (conv_model, "R"), (conv_model, "K"),
        (conv_model, "M"), (fc_model, "B"), (fc_model, "M")])
    @pytest.mark.parametrize("num_samples", [1, 2, 3, 5])
    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("repeats", [None, 2])
    def test_span_matches_looped_slice(self, build, design, num_samples,
                                       rows, repeats):
        """``repeats=None``: every span on a fresh model, drawing its own
        plan.  ``repeats=2``: every span twice on one model through one
        ``plans=`` dict, so all calls but the first read the plan the
        first one drew."""
        make_dropout = FAMILIES[DESIGNS[design]]
        x = (conv_images if build is conv_model else fc_features)(rows)
        looped = run_engine(mc_predict_looped, build, make_dropout, x,
                            num_samples).probs
        shared, plans = build(make_dropout()), {}
        for start, stop in all_spans(num_samples):
            if repeats is None:
                spans = [mc_predict_span(
                    build(make_dropout()), x, num_samples,
                    pass_start=start, pass_stop=stop)]
            else:
                spans = [mc_predict_span(
                    shared, x, num_samples, pass_start=start,
                    pass_stop=stop, plans=plans) for _ in range(repeats)]
            for span in spans:
                assert span.shape == (stop - start, rows, 5)
                assert span.tobytes() == looped[start:stop].tobytes()

    def test_span_out_of_range_rejected(self):
        model = conv_model(FAMILIES["bernoulli"]())
        for start, stop in [(2, 2), (0, 4), (-1, 2)]:
            with pytest.raises(ValueError, match="pass span"):
                mc_predict_span(model, conv_images(), 3,
                                pass_start=start, pass_stop=stop)


class TestMicroBatchInvariance:
    """A fused batch split along its passes, as the replica pool shards
    it, changes no byte."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_mid_sample_split_matches_full_batch(self, family):
        """The spans ``[0, 1)`` and ``[1, 3)``, each on a fresh model,
        concatenate to the whole ``T = 3`` prediction."""
        x = conv_images()
        full = run_engine(mc_predict, conv_model, FAMILIES[family], x, 3)
        split = np.concatenate([
            mc_predict_span(conv_model(FAMILIES[family]()), x, 3,
                            pass_start=start, pass_stop=stop)
            for start, stop in [(0, 1), (1, 3)]])
        assert split.tobytes() == full.probs.tobytes()


class TestEngineDispatch:
    def test_default_engine_is_batched(self):
        """mc_predict fuses the T passes: one prefix forward per call."""
        model = conv_model(FAMILIES["bernoulli"]())
        head = model[0]
        calls = []
        original = head.forward

        def counting(x):
            calls.append(x.shape[0])
            return original(x)

        head.forward = counting
        mc_predict(model, conv_images(), 3)
        mc_predict(model, conv_images(7), 3)
        # A pass span (a pooled float shard) fuses its passes too.
        mc_predict_span(model, conv_images(), 3, pass_start=1,
                        pass_stop=3)
        mc_predict_span(model, conv_images(7), 3, pass_start=0,
                        pass_stop=2)
        del head.forward
        # The deterministic prefix runs once per call over all its
        # rows, never once per Monte-Carlo pass (the looped oracle's
        # shape).
        assert calls == [NUM_INPUTS, 7] * 2

    def test_unknown_engine_rejected(self):
        """The engine switch is gone: the oracle is not selectable.  So
        is micro-batching: no MC entry point takes ``batch_size``."""
        with pytest.raises(TypeError, match="engine"):
            mc_predict(conv_model(FAMILIES["bernoulli"]()), conv_images(),
                       3, engine="looped")
        for entry in (mc_predict, mc_predict_span, evaluate_bayesnn,
                      Deployment.predict, CandidateEvaluator,
                      BatchedEvaluator):
            with pytest.raises(TypeError, match="batch_size"):
                entry(None, None, None, batch_size=7)

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
