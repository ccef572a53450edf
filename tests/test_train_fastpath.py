"""Training fast path: bit-identity, workspace kernels, checkpoint/resume.

The contract under test (see ``repro.nn.fastpath`` and
``repro.search.trainer``): the fast path every trainer runs must
reproduce the reference trajectory (the ``reference`` oracle of
:mod:`tests.oracles`: unfused optimizers, no workspace) bit for bit —
same epoch losses, same step count, same final weight bytes — while
reusing buffers and
running the rewritten pooling/activation kernels; and epoch-granular
checkpointing must make a killed-and-resumed run byte-identical to an
uninterrupted one.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.nn.fastpath import TrainWorkspace, fast_training
from repro.search import (
    MemoryCheckpointer,
    Supernet,
    TrainConfig,
    train_standalone,
    train_supernet,
)
from tests.gradcheck import layer_input_gradcheck, layer_param_gradcheck
from tests.oracles import train_mode


def _state_bytes(module):
    return {name: value.tobytes()
            for name, value in module.state_dict().items()}


def _fresh_supernet():
    model = build_model("lenet_slim", image_size=16, rng=21)
    return Supernet(model, p=0.15, scale=1.7, rng=22)


def _train(mode, optimizer, mnist_splits, *, epochs=3, checkpoint=None,
           supernet=None):
    net = supernet if supernet is not None else _fresh_supernet()
    with train_mode(mode):
        log = train_supernet(
            net, mnist_splits.train,
            TrainConfig(epochs=epochs, optimizer=optimizer),
            rng=23, checkpoint=checkpoint)
    return log, net


class TestTrajectoryBitIdentity:
    """fast == reference on seeded supernet runs, for both optimizers."""

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_supernet_trajectory(self, mnist_splits, optimizer):
        fast_log, fast_net = _train("fast", optimizer, mnist_splits)
        ref_log, ref_net = _train("reference", optimizer, mnist_splits)
        assert fast_log.epoch_losses == ref_log.epoch_losses
        assert fast_log.steps == ref_log.steps
        assert _state_bytes(fast_net) == _state_bytes(ref_net)

    def test_standalone_trajectory(self, mnist_splits):
        def run(mode):
            model = build_model("lenet_slim", image_size=16, rng=31)
            with train_mode(mode):
                log = train_standalone(
                    model, mnist_splits.train, TrainConfig(epochs=2),
                    rng=32)
            return log, model

        fast_log, fast_model = run("fast")
        ref_log, ref_model = run("reference")
        assert fast_log.epoch_losses == ref_log.epoch_losses
        assert _state_bytes(fast_model) == _state_bytes(ref_model)

    def test_invalid_mode_rejected(self):
        # The mode switch is gone: the reference path is an oracle only.
        with pytest.raises(TypeError, match="train_mode"):
            TrainConfig(train_mode="reference")


def _run_layer(layer, x, grad_out, *, fast):
    """One forward/backward pass; returns (y, grad_in, param grads)."""
    layer.zero_grad()
    if fast:
        with fast_training():
            y = layer(x)
            grad_in = layer.backward(grad_out)
    else:
        y = layer(x)
        grad_in = layer.backward(grad_out)
    grads = {name: p.grad.copy() for name, p in layer.named_parameters()}
    return np.array(y, copy=True), np.array(grad_in, copy=True), grads


CONV_GEOMETRIES = [
    dict(in_channels=1, out_channels=4, kernel_size=3, stride=1, padding=0),
    dict(in_channels=3, out_channels=5, kernel_size=3, stride=2, padding=1),
    dict(in_channels=2, out_channels=3, kernel_size=5, stride=1, padding=2),
    dict(in_channels=2, out_channels=2, kernel_size=2, stride=3, padding=0),
]


class TestConvFastKernels:
    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
    def test_fast_matches_reference_bitwise(self, geometry):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, geometry["in_channels"], 11, 9)).astype(
            np.float32)
        ref_layer = nn.Conv2d(rng=77, **geometry)
        fast_layer = nn.Conv2d(rng=77, **geometry)
        oh, ow = ref_layer.output_shape(11, 9)
        grad_out = rng.normal(
            size=(4, geometry["out_channels"], oh, ow)).astype(np.float32)
        ref = _run_layer(ref_layer, x, grad_out, fast=False)
        fast = _run_layer(fast_layer, x, grad_out, fast=True)
        assert ref[0].tobytes() == fast[0].tobytes()
        assert ref[1].tobytes() == fast[1].tobytes()
        for name in ref[2]:
            assert ref[2][name].tobytes() == fast[2][name].tobytes(), name

    def test_fast_buffers_are_reused_across_steps(self):
        rng = np.random.default_rng(6)
        layer = nn.Conv2d(2, 3, 3, padding=1, rng=7)
        x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        with fast_training() as ws:
            layer(x)
            layer.backward(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
            buffers_after_one = ws.num_buffers
            bytes_after_one = ws.nbytes
            for _ in range(3):
                layer(x)
                layer.backward(
                    rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
            assert ws.num_buffers == buffers_after_one
            assert ws.nbytes == bytes_after_one

    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
    def test_gradcheck_under_fast_path(self, geometry):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, geometry["in_channels"], 8, 8))
        with fast_training():
            layer_input_gradcheck(nn.Conv2d(rng=9, **geometry), x)
            layer_param_gradcheck(nn.Conv2d(rng=10, **geometry), x)


POOL_NON_OVERLAPPING = [
    dict(kernel_size=2),
    dict(kernel_size=2, stride=2, padding=1),
    dict(kernel_size=3, stride=3),
    dict(kernel_size=2, stride=3),
    dict(kernel_size=1, stride=2),
]

POOL_OVERLAPPING = [
    dict(kernel_size=3, stride=1),
    dict(kernel_size=3, stride=2, padding=1),
    dict(kernel_size=2, stride=1),
]


def _pool_input(rng, shape=(3, 2, 9, 11)):
    x = rng.normal(size=shape).astype(np.float32)
    # Exercise exact ties and signed zeros, the nasty argmax cases.
    x[rng.random(shape) < 0.2] *= 0.0
    x[rng.random(shape) < 0.1] *= -1.0
    return x


class TestMaxPoolFastKernels:
    @pytest.mark.parametrize("geometry", POOL_NON_OVERLAPPING)
    def test_non_overlapping_bitwise(self, geometry):
        rng = np.random.default_rng(11)
        x = _pool_input(rng)
        ref_layer = nn.MaxPool2d(**geometry)
        fast_layer = nn.MaxPool2d(**geometry)
        oh, ow = ref_layer.output_shape(9, 11)
        grad_out = rng.normal(size=(3, 2, oh, ow)).astype(np.float32)
        ref = _run_layer(ref_layer, x, grad_out, fast=False)
        fast = _run_layer(fast_layer, x, grad_out, fast=True)
        assert ref[0].tobytes() == fast[0].tobytes()
        assert ref[1].tobytes() == fast[1].tobytes()

    @pytest.mark.parametrize("geometry", POOL_OVERLAPPING)
    def test_overlapping_forward_bitwise_backward_close(self, geometry):
        # Overlapping windows: the forward is still bitwise-pinned; the
        # backward sums colliding contributions in a different (equally
        # deterministic) order, so it is equal up to reassociation.
        rng = np.random.default_rng(12)
        x = _pool_input(rng)
        ref_layer = nn.MaxPool2d(**geometry)
        fast_layer = nn.MaxPool2d(**geometry)
        oh, ow = ref_layer.output_shape(9, 11)
        grad_out = rng.normal(size=(3, 2, oh, ow)).astype(np.float32)
        ref = _run_layer(ref_layer, x, grad_out, fast=False)
        fast = _run_layer(fast_layer, x, grad_out, fast=True)
        assert ref[0].tobytes() == fast[0].tobytes()
        np.testing.assert_allclose(ref[1], fast[1], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("geometry",
                             POOL_OVERLAPPING + POOL_NON_OVERLAPPING)
    def test_gradcheck_under_fast_path(self, geometry):
        x = np.random.default_rng(13).normal(size=(2, 2, 8, 8))
        with fast_training():
            layer_input_gradcheck(nn.MaxPool2d(**geometry), x)

    def test_fast_forward_reference_backward_consistent(self):
        # A fast forward's cached state must serve a backward that runs
        # after the context closed (e.g. a test driving layers by hand).
        rng = np.random.default_rng(14)
        x = _pool_input(rng)
        layer = nn.MaxPool2d(2)
        ref_layer = nn.MaxPool2d(2)
        with fast_training():
            y = np.array(layer(x), copy=True)
        grad_out = rng.normal(size=y.shape).astype(np.float32)
        grad = layer.backward(grad_out)
        ref_layer(x)
        ref_grad = ref_layer.backward(grad_out)
        assert grad.tobytes() == ref_grad.tobytes()


class TestReLUFastKernels:
    def test_forward_bitwise_backward_value_equal(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(4, 3, 7, 5)).astype(np.float32)
        x[rng.random(x.shape) < 0.2] *= 0.0
        grad_out = rng.normal(size=x.shape).astype(np.float32)
        ref = _run_layer(nn.ReLU(), x, grad_out, fast=False)
        fast = _run_layer(nn.ReLU(), x, grad_out, fast=True)
        # Forward: byte-identical (incl. the sign of zero).
        assert ref[0].tobytes() == fast[0].tobytes()
        # Backward: value-identical; masked-out entries may carry -0.0
        # (washed out at the next +=-onto-zeros accumulation — the
        # trajectory tests above pin the weight bytes).
        assert np.array_equal(ref[1], fast[1])
        assert np.array_equal(np.abs(ref[1]), np.abs(fast[1]))


class TestWorkspace:
    def test_nested_context_rejected(self):
        with fast_training():
            with pytest.raises(RuntimeError, match="nested"):
                with fast_training():
                    pass

    def test_buffer_identity_and_shape_keying(self):
        ws = TrainWorkspace()
        owner = object()
        a = ws.buffer(owner, "x", (3, 4))
        assert ws.buffer(owner, "x", (3, 4)) is a
        assert ws.buffer(owner, "x", (2, 4)) is not a
        assert ws.buffer(owner, "y", (3, 4)) is not a
        assert ws.zeros(owner, "x", (3, 4)) is a
        assert not a.any()

    def test_epoch_tail_batch_does_not_thrash(self, mnist_splits):
        # An epoch whose last batch is smaller alternates two batch
        # geometries; the shape-keyed pool must stabilize after both
        # have been seen once, then reuse (no growth) forever after.
        net = _fresh_supernet()
        criterion = nn.CrossEntropyLoss()
        optimizer = nn.Adam(net.parameters(), lr=1e-3, fused=True)
        rng = np.random.default_rng(40)
        images = mnist_splits.train.images
        labels = mnist_splits.train.labels

        def step(batch_slice):
            net.sample_config(rng)
            loss = criterion(net(images[batch_slice]), labels[batch_slice])
            optimizer.zero_grad()
            net.backward(criterion.backward())
            optimizer.step()
            return loss

        ws = TrainWorkspace()
        with fast_training(ws) as active:
            assert active is ws
            step(slice(0, 100))   # full batch
            step(slice(100, 180))  # tail batch
            stabilized = ws.num_buffers
            stabilized_bytes = ws.nbytes
            assert stabilized > 0
            for _ in range(2):
                step(slice(0, 100))
                step(slice(100, 180))
            assert ws.num_buffers == stabilized
            assert ws.nbytes == stabilized_bytes


class TestCheckpointResume:
    class _Interrupt(RuntimeError):
        pass

    def _interrupting_supernet(self, fail_at_step):
        outer = self

        class InterruptingSupernet(Supernet):
            calls = 0

            def sample_config(self, rng=None):
                type(self).calls += 1
                if type(self).calls > fail_at_step:
                    raise outer._Interrupt()
                return super().sample_config(rng)

        model = build_model("lenet_slim", image_size=16, rng=21)
        return InterruptingSupernet(model, p=0.15, scale=1.7, rng=22)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_kill_and_resume_matches_uninterrupted(self, mnist_splits,
                                                   optimizer):
        uninterrupted_log, uninterrupted_net = _train(
            "fast", optimizer, mnist_splits, epochs=3)

        steps_per_epoch = -(-len(mnist_splits.train) // 32)
        checkpointer = MemoryCheckpointer()
        # Kill mid-epoch-2: epoch 1 is checkpointed, epoch 2 is lost.
        victim = self._interrupting_supernet(steps_per_epoch + 2)
        with pytest.raises(self._Interrupt):
            train_supernet(
                victim, mnist_splits.train,
                TrainConfig(epochs=3, optimizer=optimizer),
                rng=23, checkpoint=checkpointer)
        assert checkpointer.checkpoint is not None
        assert checkpointer.checkpoint.epochs_done == 1

        resumed_log, resumed_net = _train(
            "fast", optimizer, mnist_splits, epochs=3,
            checkpoint=checkpointer)
        assert resumed_log.epoch_losses == uninterrupted_log.epoch_losses
        assert resumed_log.steps == uninterrupted_log.steps
        assert _state_bytes(resumed_net) == _state_bytes(uninterrupted_net)
        # Only the un-checkpointed epochs were re-paid.
        assert checkpointer.checkpoint.epochs_done == 3

    def test_mode_switch_resume(self, mnist_splits):
        # A checkpoint written by the fast path resumes bit-exactly on
        # the reference path (the modes share one trajectory).
        uninterrupted_log, uninterrupted_net = _train(
            "reference", "adam", mnist_splits, epochs=3)
        checkpointer = MemoryCheckpointer()
        _train("fast", "adam", mnist_splits, epochs=2,
               checkpoint=checkpointer)
        resumed_log, resumed_net = _train(
            "reference", "adam", mnist_splits, epochs=3,
            checkpoint=checkpointer)
        assert resumed_log.epoch_losses == uninterrupted_log.epoch_losses
        assert _state_bytes(resumed_net) == _state_bytes(uninterrupted_net)

    def test_completed_checkpoint_short_circuits(self, mnist_splits):
        checkpointer = MemoryCheckpointer()
        log, net = _train("fast", "adam", mnist_splits, epochs=2,
                          checkpoint=checkpointer)
        saves = checkpointer.saves
        relog, renet = _train("fast", "adam", mnist_splits, epochs=2,
                              checkpoint=checkpointer)
        assert relog.epoch_losses == log.epoch_losses
        assert relog.steps == log.steps
        assert _state_bytes(renet) == _state_bytes(net)
        # No epochs re-ran, so nothing new was saved.
        assert checkpointer.saves == saves


class TestStoreCheckpointResume:
    """Epoch-granular checkpointing through the ArtifactStore/TrainStage."""

    class _Boom(Exception):
        pass

    def _spec(self):
        from repro.api import ExperimentSpec, TrainSpec

        return ExperimentSpec(
            name="ckpt-test", model="lenet_slim", dataset="mnist_like",
            image_size=16, dataset_size=200, ood_size=50, seed=5,
            train=TrainSpec(epochs=3))

    def _baseline(self, spec):
        from repro.api import PipelineContext, SpecifyStage, TrainStage

        ctx = PipelineContext(spec=spec)
        SpecifyStage().execute(ctx)
        TrainStage().execute(ctx)
        return ctx

    def test_trainstage_kill_and_resume_bitwise(self, tmp_path, monkeypatch):
        from repro.api import (
            ArtifactStore,
            PipelineContext,
            SpecifyStage,
            StoreTrainCheckpointer,
            TrainStage,
        )
        from repro.api import stages as stages_module

        spec = self._spec()
        baseline = self._baseline(spec)
        store = ArtifactStore(str(tmp_path)).subdir(spec.run_id)

        boom = self._Boom
        real_train = stages_module.train_supernet

        class InterruptingCheckpointer:
            def __init__(self, inner):
                self.inner = inner

            def load(self):
                return self.inner.load()

            def save(self, checkpoint):
                self.inner.save(checkpoint)
                if checkpoint.epochs_done >= 1:
                    raise boom()

        def interrupting_train(supernet, data, config, *, rng=None,
                               checkpoint=None):
            return real_train(supernet, data, config, rng=rng,
                              checkpoint=InterruptingCheckpointer(checkpoint))

        monkeypatch.setattr(stages_module, "train_supernet",
                            interrupting_train)
        ctx = PipelineContext(spec=spec, store=store)
        SpecifyStage().execute(ctx)
        with pytest.raises(boom):
            TrainStage().execute(ctx)
        monkeypatch.undo()

        # The kill left the epoch-1 checkpoint but no final artifacts.
        assert store.has_state(StoreTrainCheckpointer.ARTIFACT)
        assert not store.has(TrainStage.ARTIFACT)
        assert not store.has_state(TrainStage.WEIGHTS)

        # A fresh context resumes from the checkpoint, finishes, and
        # matches the uninterrupted run byte for byte.
        ctx2 = PipelineContext(spec=spec, store=store)
        SpecifyStage().execute(ctx2)
        log = TrainStage().execute(ctx2)
        assert log.epoch_losses == baseline.train_log.epoch_losses
        assert log.steps == baseline.train_log.steps
        assert _state_bytes(ctx2.supernet) == _state_bytes(baseline.supernet)
        # Final artifacts supersede (and remove) the checkpoint.
        assert store.has(TrainStage.ARTIFACT)
        assert store.has_state(TrainStage.WEIGHTS)
        assert not store.has_state(StoreTrainCheckpointer.ARTIFACT)

    def test_context_mismatch_ignores_checkpoint(self, tmp_path):
        from repro.api import ArtifactStore, StoreTrainCheckpointer
        from repro.search.trainer import TrainCheckpoint

        store = ArtifactStore(str(tmp_path))
        writer = StoreTrainCheckpointer(store, "context-a")
        writer.save(TrainCheckpoint(
            epochs_done=1, epoch_losses=[1.0], steps=3, wall_seconds=0.1,
            rng_state={"bit_generator": "PCG64"},
            model_state={"w": np.zeros(2, dtype=np.float32)},
            optimizer_state={"t": np.asarray(1)},
            stochastic_state=None))
        assert writer.load() is not None
        assert StoreTrainCheckpointer(store, "context-b").load() is None

    def test_torn_checkpoint_loads_as_none(self, tmp_path):
        from repro.api import ArtifactStore, StoreTrainCheckpointer

        store = ArtifactStore(str(tmp_path))
        with open(store.path(StoreTrainCheckpointer.ARTIFACT + ".npz"),
                  "wb") as handle:
            handle.write(b"definitely not an npz")
        assert StoreTrainCheckpointer(store, "any").load() is None

    def test_checkpoint_context_excludes_train_mode(self):
        """Golden key: checkpoints written before the train_mode switch
        was removed (which kept it out of the key) still resume."""
        from repro.api import StoreTrainCheckpointer

        key = StoreTrainCheckpointer.context_key(
            "fp", TrainConfig(epochs=3))
        assert key == (
            'fp:{"batch_size": 32, "epochs": 3, "lr": 0.002, '
            '"optimizer": "adam", "weight_decay": 0.0}')
        assert key != StoreTrainCheckpointer.context_key(
            "fp", TrainConfig(epochs=4))


class TestAvgPoolWorkspace:
    @pytest.mark.parametrize("geometry", [
        dict(kernel_size=2),
        dict(kernel_size=3, stride=2, padding=1),
    ])
    def test_fast_matches_reference_bitwise(self, geometry):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        ref_layer = nn.AvgPool2d(**geometry)
        fast_layer = nn.AvgPool2d(**geometry)
        with nn.inference_mode():
            y = ref_layer(x)
        grad_out = rng.normal(size=y.shape).astype(np.float32)
        ref = _run_layer(ref_layer, x, grad_out, fast=False)
        fast = _run_layer(fast_layer, x, grad_out, fast=True)
        assert ref[0].tobytes() == fast[0].tobytes()
        assert ref[1].tobytes() == fast[1].tobytes()
