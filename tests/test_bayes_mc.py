"""Tests for Monte-Carlo dropout prediction."""

import numpy as np
import pytest

from repro import nn
from repro.bayes import MCPrediction, mc_predict
from repro.dropout import BernoulliDropout, Masksembles
from repro.models import build_model
from tests.oracles import mc_predict_looped


def net_with(dropout):
    model = nn.Sequential(nn.Flatten(), nn.Linear(16, 8, rng=0),
                          dropout, nn.Linear(8, 4, rng=1))
    return model


def images(n=6, seed=0):
    return np.random.default_rng(seed).normal(
        size=(n, 1, 4, 4)).astype(np.float32)


class TestMcPredict:
    def test_probs_shape(self):
        pred = mc_predict(net_with(BernoulliDropout(0.3, rng=2)),
                          images(), num_samples=5)
        assert pred.probs.shape == (5, 6, 4)
        assert pred.num_samples == 5

    def test_probs_are_distributions(self):
        pred = mc_predict(net_with(BernoulliDropout(0.3, rng=2)),
                          images(), 4)
        assert np.allclose(pred.probs.sum(axis=2), 1.0, atol=1e-5)

    def test_passes_differ_with_dynamic_dropout(self):
        pred = mc_predict(net_with(BernoulliDropout(0.4, rng=2)),
                          images(), 3)
        assert not np.allclose(pred.probs[0], pred.probs[1])

    def test_passes_identical_without_dropout(self):
        model = nn.Sequential(nn.Flatten(), nn.Linear(16, 4, rng=0))
        pred = mc_predict(model, images(), 3)
        assert np.allclose(pred.probs[0], pred.probs[1])

    def test_masksembles_rotate_across_passes(self):
        layer = Masksembles(4, scale=2.0, rng=3)
        pred = mc_predict(net_with(layer), images(), 4)
        # Distinct masks produce distinct sample outputs...
        assert not np.allclose(pred.probs[0], pred.probs[1])

    def test_masksembles_deterministic_per_family(self):
        # Re-running the same MC estimate gives identical samples
        # because masks are static and reset_samples rewinds.
        layer = Masksembles(4, scale=2.0, rng=4)
        model = net_with(layer)
        a = mc_predict(model, images(), 4)
        b = mc_predict(model, images(), 4)
        assert np.allclose(a.probs, b.probs)

    def test_training_flag_restored(self):
        model = net_with(BernoulliDropout(0.3, rng=2))
        model.train()
        mc_predict(model, images(), 2)
        assert model.training
        model.eval()
        mc_predict(model, images(), 2)
        assert not model.training

    def test_batched_equals_unbatched_without_dropout(self):
        """The fused engine equals ``T`` separate passes (the looped
        oracle) on a model without dropout."""
        model = nn.Sequential(nn.Flatten(), nn.Linear(16, 4, rng=0))
        a = mc_predict(model, images(10), 2)
        b = mc_predict_looped(model, images(10), 2)
        assert a.probs.tobytes() == b.probs.tobytes()

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            mc_predict(net_with(BernoulliDropout(0.3)), images(), 0)

    def test_works_on_model_zoo(self):
        model = build_model("lenet_slim", image_size=16, rng=0)
        x = np.random.default_rng(1).normal(
            size=(3, 1, 16, 16)).astype(np.float32)
        pred = mc_predict(model, x, 2)
        assert pred.probs.shape == (2, 3, 10)


class TestUncertaintyDecomposition:
    def test_predictive_entropy_bounds(self):
        pred = mc_predict(net_with(BernoulliDropout(0.4, rng=2)),
                          images(), 5)
        h = pred.predictive_entropy()
        assert np.all(h >= 0)
        assert np.all(h <= np.log(4) + 1e-6)

    def test_mutual_information_nonnegative(self):
        pred = mc_predict(net_with(BernoulliDropout(0.4, rng=2)),
                          images(), 8)
        assert np.all(pred.mutual_information() >= 0)

    def test_total_entropy_at_least_expected(self):
        # Jensen: H[E[p]] >= E[H[p]].
        pred = mc_predict(net_with(BernoulliDropout(0.4, rng=2)),
                          images(), 8)
        assert np.all(pred.predictive_entropy()
                      >= pred.expected_entropy() - 1e-6)

    def test_no_dropout_means_no_epistemic(self):
        model = nn.Sequential(nn.Flatten(), nn.Linear(16, 4, rng=0))
        pred = mc_predict(model, images(), 4)
        assert np.allclose(pred.mutual_information(), 0.0, atol=1e-6)

    def test_mean_probs(self):
        probs = np.stack([np.full((2, 2), 0.5),
                          np.array([[1.0, 0.0], [0.0, 1.0]])])
        pred = MCPrediction(probs=probs)
        assert np.allclose(pred.mean_probs,
                           [[0.75, 0.25], [0.25, 0.75]])

    def test_predictions(self):
        probs = np.array([[[0.9, 0.1]], [[0.8, 0.2]]])
        assert MCPrediction(probs=probs).predictions().tolist() == [0]


class TestEntropyNumericalStability:
    """Log-clipping regressions for saturated (near-one-hot) probs.

    Pre-fix, ``-(p * log(p + eps))`` drifted slightly *negative* for
    ``p = 1`` (``log(1 + eps) > 0``); both entropy terms now clip the
    probability into ``[eps, 1]`` inside the log, consistently.
    """

    @staticmethod
    def saturated_prediction():
        # Exact one-hot per-pass probabilities, as produced by a
        # saturated float32 softmax on extreme logits.
        probs = np.zeros((3, 4, 5), dtype=np.float32)
        probs[:, np.arange(4), [0, 1, 2, 3]] = 1.0
        return MCPrediction(probs=probs)

    def test_saturated_softmax_yields_exact_one_hot(self):
        from repro.nn.functional import softmax
        logits = np.array([[0.0, 1e4, -1e4]], dtype=np.float32)
        p = softmax(logits, axis=1)
        assert p[0].tolist() == [0.0, 1.0, 0.0]

    def test_one_hot_predictive_entropy_is_exactly_zero(self):
        pred = self.saturated_prediction()
        assert np.array_equal(pred.predictive_entropy(), np.zeros(4))

    def test_one_hot_expected_entropy_is_exactly_zero(self):
        pred = self.saturated_prediction()
        assert np.array_equal(pred.expected_entropy(), np.zeros(4))

    def test_one_hot_mutual_information_is_zero(self):
        pred = self.saturated_prediction()
        assert np.array_equal(pred.mutual_information(), np.zeros(4))

    def test_near_one_hot_entropies_nonnegative(self):
        eps = np.float32(1e-7)
        row = np.array([1.0 - 3 * eps, eps, eps, eps], dtype=np.float32)
        pred = MCPrediction(probs=np.tile(row, (5, 2, 1)))
        assert np.all(pred.predictive_entropy() >= 0)
        assert np.all(pred.expected_entropy() >= 0)
        assert np.all(pred.mutual_information() >= 0)

    def test_zero_probability_contributes_zero(self):
        # 0 * log(clip(0)) must be exactly 0, not 0 * -inf = nan.
        pred = MCPrediction(probs=np.array([[[0.5, 0.5, 0.0]]]))
        assert np.isfinite(pred.predictive_entropy()).all()
        assert pred.predictive_entropy() == pytest.approx(np.log(2))
