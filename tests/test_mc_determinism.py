"""Seeded-determinism regressions for the MC engine and its oracle.

Beyond the per-call bit-identity covered by ``test_mc_equivalence``,
these tests pin the *end-to-end* consequences of the contract:

* the same experiment spec and seed yield identical search results
  whether the fused engine or the looped oracle (selected through
  :mod:`tests.oracles`) evaluates the candidates — identical winning
  configurations, identical scores, identical generation history;
* re-running a spec is deterministic (no hidden global RNG);
* the batched path preserves Masksembles' mask rotation order
  ``t % num_masks``, including when ``T`` exceeds the family size.
"""

import numpy as np
import pytest

from repro import nn
from repro.api import (
    EvolutionSpec,
    ExperimentSpec,
    GenerateSpec,
    Runner,
    SearchSpec,
    TrainSpec,
)
from repro.bayes.mc import mc_predict
from repro.dropout import Masksembles
from repro.models import build_model
from repro.search import Supernet
from tests.oracles import ENGINES, mc_engine, mc_predict_looped


def determinism_spec():
    """The CI-scale spec every engine run shares."""
    return ExperimentSpec(
        name="determinism",
        model="lenet_slim", dataset="mnist_like", image_size=16,
        dataset_size=160, ood_size=30, seed=11,
        train=TrainSpec(epochs=1),
        search=SearchSpec(
            aims=("accuracy",),
            evolution=EvolutionSpec(population_size=4, generations=2)),
        generate=GenerateSpec(aim="accuracy"))


def run_with(engine):
    """The experiment executed in memory on MC path ``engine``."""
    with mc_engine(engine):
        return Runner(determinism_spec()).run()


@pytest.fixture(scope="module")
def engine_runs():
    """The same experiment executed once per MC path."""
    return {engine: run_with(engine) for engine in ENGINES}


class TestSearchEngineIndependence:
    def test_same_winner_and_score(self, engine_runs):
        batched = engine_runs["batched"].best("accuracy")
        looped = engine_runs["looped"].best("accuracy")
        assert batched.best_config == looped.best_config
        assert batched.best_score == looped.best_score

    def test_identical_generation_history(self, engine_runs):
        batched = engine_runs["batched"].best("accuracy")
        looped = engine_runs["looped"].best("accuracy")
        assert [h.to_dict() for h in batched.history] \
            == [h.to_dict() for h in looped.history]

    def test_identical_reports(self, engine_runs):
        batched = engine_runs["batched"].best("accuracy").best.report
        looped = engine_runs["looped"].best("accuracy").best.report
        assert batched.to_dict() == looped.to_dict()

    def test_rerun_is_deterministic(self, engine_runs):
        again = Runner(determinism_spec()).run()
        first = engine_runs["batched"].best("accuracy")
        assert again.best("accuracy").best_config == first.best_config
        assert again.best("accuracy").best_score == first.best_score


class TestMasksemblesRotation:
    """The fused plan must walk the mask family in rotation order."""

    @staticmethod
    def masksembles_net(num_masks=3):
        return nn.Sequential(
            nn.Flatten(),
            Masksembles(num_masks, scale=2.0, rng=5),
            nn.Linear(64, 4, rng=1))

    def test_rotation_wraps_beyond_family_size(self):
        x = np.random.default_rng(2).normal(
            size=(9, 1, 8, 8)).astype(np.float32)
        pred = mc_predict(self.masksembles_net(num_masks=3), x, 7)
        # Static masks: sample t and sample t + num_masks reuse the
        # same family member, so their outputs are identical.
        for t in range(7 - 3):
            assert np.array_equal(pred.probs[t], pred.probs[t + 3])
        # ... while distinct family members differ.
        assert not np.allclose(pred.probs[0], pred.probs[1])
        assert not np.allclose(pred.probs[1], pred.probs[2])

    def test_rotation_matches_looped_order(self):
        x = np.random.default_rng(2).normal(
            size=(9, 1, 8, 8)).astype(np.float32)
        looped = mc_predict_looped(self.masksembles_net(), x, 5)
        batched = mc_predict(self.masksembles_net(), x, 5)
        assert np.array_equal(looped.probs, batched.probs)

    def test_plan_slices_follow_family(self):
        layer = Masksembles(3, scale=2.0, rng=5)
        plan = layer.sample_masks(7, (4, 12))
        family = layer.masks_for(12)
        for t in range(7):
            row = plan[t].reshape(-1)
            expected = family[t % 3]
            assert np.array_equal(row > 0, expected.astype(bool))

    def test_supernet_exposes_active_layers(self):
        model = build_model("lenet_slim", image_size=16, rng=0)
        supernet = Supernet(model, p=0.2, rng=1)
        with pytest.raises(RuntimeError):
            supernet.active_dropout_layers()
        supernet.set_config(("M", "M", "M"))
        layers = supernet.active_dropout_layers()
        assert len(layers) == 3
        assert all(isinstance(layer, Masksembles) for layer in layers)
        x = np.random.default_rng(0).normal(
            size=(6, 1, 16, 16)).astype(np.float32)
        supernet.eval()
        mc_predict(supernet, x, 4)
        # After T passes every active layer's counter sits at T, so a
        # later prediction restarts the rotation at mask 0.
        assert [layer.sample_index for layer in layers] == [4, 4, 4]
