"""The test oracles select the paths they claim to (``tests/oracles.py``).

Every oracle comparison in the suite is only as strong as the switch
behind it: an oracle context that silently left production code in
place would make those comparisons compare a path with itself.
"""

import numpy as np
import pytest

import repro.bayes.evaluate as evaluate_module
import repro.serve.deployment as deployment_module
from repro import nn
from repro.api import ExperimentSpec
from repro.bayes import evaluate_bayesnn, mc_predict
from repro.bayes.mc import mc_predict_span
from repro.dropout import BernoulliDropout
from repro.hw.compile import CompiledKernel, compile_deployment
from repro.hw.netlist import (
    KIND_CONV,
    KIND_FLATTEN,
    KIND_IDENTITY,
    KIND_LINEAR,
)
from repro.nn.fastpath import current_workspace
from repro.search import TrainConfig, train_standalone, trainer
from repro.serve import Deployment
from tests.oracles import (
    LAYER_REFERENCES,
    OPTIMIZER_REFERENCES,
    code_log,
    fixed_predict_looped,
    gemm_log,
    looped_mc,
    mc_engine,
    mc_predict_looped,
    mc_predict_span_looped,
    reference_training,
    train_mode,
)


class CountingFlatten(nn.Flatten):
    """A flatten that counts its forward calls and records the layer
    kernels bound during each."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.kernels = []

    def forward(self, x):
        self.calls += 1
        self.kernels.append(bound(LAYER_REFERENCES))
        return super().forward(x)


class RecordingLinear(nn.Linear):
    """A linear layer that records whether the workspace it sees keeps
    its buffers (the fast path) or hands out fresh ones."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fast = []

    def forward(self, x):
        ws = current_workspace()
        self.fast.append(ws.buffer(self, "probe", (1,))
                         is ws.buffer(self, "probe", (1,)))
        return super().forward(x)


def bound(references):
    """The current bindings of ``(owner, name, reference)`` entries."""
    return [getattr(owner, name) for owner, name, _ in references]


class TestLoopedMC:
    def test_patches_evaluator_and_deployment(self):
        with looped_mc():
            assert evaluate_module.mc_predict is mc_predict_looped
            assert deployment_module.mc_predict is mc_predict_looped
            assert deployment_module.mc_predict_span \
                is mc_predict_span_looped
        assert evaluate_module.mc_predict is mc_predict
        assert deployment_module.mc_predict is mc_predict
        assert deployment_module.mc_predict_span is mc_predict_span

    @pytest.mark.parametrize("engine,passes_per_call",
                             [("batched", 1), ("looped", 3)])
    def test_deployment_span_runs_the_selected_path(self, engine,
                                                    passes_per_call):
        # A pooled float shard (Deployment.predict_span) runs the prefix
        # once on the fused engine and once per pass on the oracle —
        # three passes on the oracle even for a two-pass span.
        spec = ExperimentSpec(name="oracle-span", model="lenet_slim",
                              dataset="mnist_like", image_size=16, seed=3)
        deployment = Deployment.from_spec(spec, (1, 16, 16),
                                          config=("B", "K", "M"))
        model = deployment.instantiate()
        images = np.random.default_rng(0).normal(
            size=(4, 1, 16, 16)).astype(np.float32)
        full = deployment.predict(model, images, num_samples=3)
        calls = []
        first = next(m for m in model.modules()
                     if isinstance(m, nn.Conv2d))
        original = first.forward

        def counting(x):
            calls.append(x.shape[0])
            return original(x)

        first.forward = counting
        with mc_engine(engine):
            span = deployment.predict_span(model, images, num_samples=3,
                                           pass_start=1, pass_stop=3)
        del first.forward
        assert calls == [4] * passes_per_call
        assert span.tobytes() == full.probs[1:3].tobytes()

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

    @pytest.mark.parametrize("num_samples", [1, 3])
    def test_oracle_runs_the_prefix_once_per_pass(self, num_samples):
        # The engine runs the prefix before the first dropout once per
        # call; the oracle once per Monte-Carlo pass, on the textbook
        # layer kernels, with the same bytes.
        def build():
            head = CountingFlatten()
            return head, nn.Sequential(
                nn.MaxPool2d(2), nn.ReLU(), head,
                BernoulliDropout(0.3, rng=0), nn.Linear(16, 10, rng=1))

        images = np.random.default_rng(2).normal(
            size=(5, 1, 8, 8)).astype(np.float32)
        head, model = build()
        fused = mc_predict(model, images, num_samples)
        assert head.calls == 1
        assert head.kernels == [bound(LAYER_REFERENCES)]
        head, model = build()
        looped = mc_predict_looped(model, images, num_samples)
        assert head.calls == num_samples
        assert head.kernels == [[reference for _, _, reference
                                 in LAYER_REFERENCES]] * num_samples
        assert looped.probs.tobytes() == fused.probs.tobytes()


class TestReferenceTraining:
    def test_optimizers_unfused(self):
        # Inside the context SGD and Adam step through the textbook
        # bodies of tests/oracles.py, outside through the library's.
        library = bound(OPTIMIZER_REFERENCES)
        assert library == [nn.SGD.step, nn.Adam.step]
        with reference_training():
            assert bound(OPTIMIZER_REFERENCES) == [
                reference for _, _, reference in OPTIMIZER_REFERENCES]
        assert bound(OPTIMIZER_REFERENCES) == library

    def test_layers_are_the_references(self):
        # MaxPool2d and ReLU forward and backward, likewise.
        library = bound(LAYER_REFERENCES)
        assert library == [nn.MaxPool2d.forward, nn.MaxPool2d.backward,
                           nn.ReLU.forward, nn.ReLU.backward]
        with reference_training():
            assert bound(LAYER_REFERENCES) == [
                reference for _, _, reference in LAYER_REFERENCES]
        assert bound(LAYER_REFERENCES) == library

    def test_no_persistent_workspace(self):
        # Inside the context the trainer's workspace hands out a fresh
        # array for every request.
        def persistent():
            ws = current_workspace()
            return (ws.buffer(self, "probe", (2,))
                    is ws.buffer(self, "probe", (2,)))

        with reference_training():
            with trainer.fast_training():
                assert not persistent()
        with trainer.fast_training():
            assert persistent()

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


class TestFixedPredictLooped:
    @pytest.fixture(scope="class")
    def kernel(self):
        spec = ExperimentSpec(name="oracle-fixed", model="lenet_slim",
                              dataset="mnist_like", image_size=16,
                              seed=21)
        deployment = Deployment.from_spec(spec, (1, 16, 16),
                                          config=("B", "K", "M"))
        return compile_deployment(deployment, calibration_rows=16)

    def test_runs_one_int64_forward_per_pass(self, kernel):
        images = np.zeros((4, 1, 16, 16), dtype=np.float32)
        layers = sum(p.kind in (KIND_CONV, KIND_LINEAR)
                     for p in kernel.plans)
        looped = gemm_log(lambda: fixed_predict_looped(kernel, images, 3))
        assert len(looped) == 3 * layers
        assert set(looped) == {(np.dtype(np.int64), 4)}
        # The kernel itself folds the passes into one float64 sweep.
        folded = gemm_log(lambda: kernel.predict(images, 3))
        assert len(folded) == layers
        assert {dtype for dtype, _ in folded} == {np.dtype(np.float64)}

    def test_runs_no_float64_arithmetic(self, kernel):
        # Every op of every pass quantizes its input to int64 codes and
        # computes on them (the oracle quantizes its masks with
        # to_fixed, also int64); the 16-bit kernel runs all on float64,
        # its masks too on a miss (pinned by a fresh kernel), and its
        # arithmetic steps only on the hit.
        images = np.zeros((4, 1, 16, 16), dtype=np.float32)
        ops = sum(p.kind not in (KIND_FLATTEN, KIND_IDENTITY)
                  for p in kernel.plans)
        looped = code_log(lambda: fixed_predict_looped(kernel, images, 3))
        assert looped == [np.dtype(np.int64)] * (3 * ops)
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        masks = len(kernel.dropout_plans)
        steps = sum(op.arithmetic for op in fresh.ops)
        miss = code_log(lambda: fresh.predict(images, 3))
        assert miss == [np.dtype(np.float64)] * (masks + steps)
        hit = code_log(lambda: fresh.predict(images, 3))
        assert hit == [np.dtype(np.float64)] * steps
