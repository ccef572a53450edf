"""The test oracles select the paths they claim to (``tests/oracles.py``).

Every oracle comparison in the suite is only as strong as the switch
behind it: an oracle context that silently left production code in
place would make those comparisons compare a path with itself.
"""

import pytest

import repro.bayes.evaluate as evaluate_module
import repro.serve.deployment as deployment_module
from repro import nn
from repro.bayes import evaluate_bayesnn, mc_predict
from repro.dropout import BernoulliDropout
from repro.nn.fastpath import is_fast_training
from repro.search import TrainConfig, train_standalone, trainer
from tests.oracles import (
    looped_mc,
    mc_engine,
    mc_predict_looped,
    reference_training,
    train_mode,
)


class CountingFlatten(nn.Flatten):
    """A flatten that counts its forward calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def forward(self, x):
        self.calls += 1
        return super().forward(x)


class RecordingLinear(nn.Linear):
    """A linear layer that records whether the fast path was active."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fast = []

    def forward(self, x):
        self.fast.append(is_fast_training())
        return super().forward(x)


class TestLoopedMC:
    def test_patches_evaluator_and_deployment(self):
        with looped_mc():
            assert evaluate_module.mc_predict is mc_predict_looped
            assert deployment_module.mc_predict is mc_predict_looped
        assert evaluate_module.mc_predict is mc_predict
        assert deployment_module.mc_predict is mc_predict

    @pytest.mark.parametrize("engine,passes_per_call",
                             [("batched", 1), ("looped", 3)])
    def test_evaluator_runs_the_selected_path(self, mnist_splits,
                                              ood_small, engine,
                                              passes_per_call):
        # The prefix before the first dropout runs once per call on the
        # fused engine and once per Monte-Carlo pass on the oracle.
        head = CountingFlatten()
        model = nn.Sequential(head, BernoulliDropout(0.3, rng=0),
                              nn.Linear(256, 10, rng=1))
        with mc_engine(engine):
            evaluate_bayesnn(model, mnist_splits.val, ood_small,
                             num_samples=3)
        assert head.calls == 2 * passes_per_call  # in-dist + OOD

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            mc_engine("warp")


class TestReferenceTraining:
    def test_optimizers_unfused(self):
        model = nn.Linear(4, 2, rng=0)
        for optimizer in ("adam", "sgd"):
            cfg = TrainConfig(optimizer=optimizer)
            assert trainer._build_optimizer(model, cfg).fused
            with reference_training():
                assert not trainer._build_optimizer(model, cfg).fused

    @pytest.mark.parametrize("mode,fast", [("fast", True),
                                           ("reference", False)])
    def test_workspace_follows_mode(self, mnist_splits, mode, fast):
        layer = RecordingLinear(256, 10, rng=0)
        model = nn.Sequential(nn.Flatten(), layer)
        with train_mode(mode):
            train_standalone(model, mnist_splits.train,
                             TrainConfig(epochs=1), rng=0)
        assert layer.fast and set(layer.fast) == {fast}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="train mode"):
            train_mode("turbo")
