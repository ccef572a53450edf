"""Serving mask plans are drawn once per key and reused, byte for byte.

The contract of :class:`repro.nn.inference.MaskPlanCache` on both
backends (:meth:`repro.serve.Deployment.predict` / ``predict_span`` on
the float side, :meth:`repro.hw.compile.CompiledKernel.predict` on the
fixed side):

* **A hit draws nothing** — a second predict at the same ``(T, rows)``
  calls no :meth:`~repro.dropout.base.DropoutLayer.sample_masks`.
* **A hit changes no byte** — every reused plan answers exactly what a
  fresh instance (which must draw its own plan) answers, for repeated
  and interleaved row counts, every pass span, every row window, inline
  and behind a replica pool.
* **The key covers the active layers** — ``set_config`` between two
  predicts of one shape misses.
* **Only whole, valid plans are stored** — a draw that raises leaves
  nothing behind; stored arrays are read-only.
* **Memory is bounded** — the bytes held never exceed
  :data:`~repro.nn.inference.MASK_PLAN_BUDGET`, and an entry larger
  than the budget is used once, not stored.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.api import ExperimentSpec
from repro.bayes.mc import mc_predict
from repro.dropout.base import DropoutLayer
from repro.hw.compile import CompiledKernel, compile_deployment
from repro.nn.inference import MASK_PLAN_BUDGET, MaskPlanCache
from repro.serve import Deployment, ReplicaPool

INPUT_SHAPE = (1, 16, 16)
CONFIG = ("B", "K", "M")


@pytest.fixture(scope="module")
def deployment():
    spec = ExperimentSpec(name="mask-plans", model="lenet_slim",
                          dataset="mnist_like", image_size=16, seed=31)
    return Deployment.from_spec(spec, INPUT_SHAPE, config=CONFIG)


@pytest.fixture(scope="module")
def kernel(deployment):
    return compile_deployment(deployment, calibration_rows=16)


def make_images(rows, seed=0, shape=INPUT_SHAPE):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows,) + shape).astype(np.float32)


def float_reference(deployment, images, num_samples, config=None):
    """A fresh model under the reseed contract: its own, fresh plan."""
    model = deployment.instantiate()
    if config is not None:
        model.set_config(config)
    deployment.reseed(model.active_dropout_layers())
    return mc_predict(model, images, num_samples).probs


def fixed_reference(kernel, images, num_samples):
    """A fresh kernel over the same plans: its own, fresh mask codes."""
    fresh = CompiledKernel(kernel.deployment, kernel.plans)
    return fresh.predict(images, num_samples).probs


@contextlib.contextmanager
def counted_draws():
    """Every ``sample_masks`` call, whichever design overrides it."""
    calls = []
    classes, todo = [], [DropoutLayer]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    with contextlib.ExitStack() as stack:
        for cls in classes:
            if "sample_masks" not in vars(cls):
                continue
            original = vars(cls)["sample_masks"]

            def spy(self, *args, _original=original, **kwargs):
                calls.append(type(self).__name__)
                return _original(self, *args, **kwargs)

            stack.enter_context(mock.patch.object(cls, "sample_masks", spy))
        yield calls


class TestHitsDrawNothing:
    def test_float_predict(self, deployment):
        model = deployment.instantiate()
        with counted_draws() as calls:
            deployment.predict(model, make_images(5, seed=1))
            assert len(calls) == len(CONFIG)
            deployment.predict(model, make_images(5, seed=2))
        assert len(calls) == len(CONFIG)

    def test_float_predict_span(self, deployment):
        model = deployment.instantiate()
        with counted_draws() as calls:
            deployment.predict_span(model, make_images(5, seed=1),
                                    pass_start=0, pass_stop=2)
            assert len(calls) == len(CONFIG)
            deployment.predict_span(model, make_images(5, seed=2),
                                    pass_start=2, pass_stop=3)
            deployment.predict(model, make_images(5, seed=3))
        assert len(calls) == len(CONFIG)

    def test_fixed_predict(self, kernel):
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        with counted_draws() as calls:
            fresh.predict(make_images(5, seed=1), 3)
            assert len(calls) == len(CONFIG)
            fresh.predict(make_images(5, seed=2), 3)
        assert len(calls) == len(CONFIG)

    def test_fixed_row_window(self, kernel):
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        images = make_images(12, seed=4)
        with counted_draws() as calls:
            fresh.predict(images[:5], 3, total_rows=12, row_start=0)
            assert len(calls) == len(CONFIG)
            fresh.predict(images[5:], 3, total_rows=12, row_start=5)
            fresh.predict(images, 3)
        assert len(calls) == len(CONFIG)

    def test_fresh_instances_draw_their_own(self, deployment, kernel):
        images = make_images(5, seed=5)
        deployment.predict(deployment.instantiate(), images)
        kernel.predict(images, 3)
        with counted_draws() as calls:
            deployment.predict(deployment.instantiate(), images)
            CompiledKernel(kernel.deployment, kernel.plans).predict(
                images, 3)
        assert len(calls) == 2 * len(CONFIG)


class TestHitsMatchFreshInstances:
    @pytest.mark.parametrize("num_samples", [1, 3, 16])
    def test_float_repeated_and_interleaved(self, deployment, num_samples):
        model = deployment.instantiate()
        for call, rows in enumerate([5, 1, 5, 32, 1, 32, 5]):
            images = make_images(rows, seed=call)
            served = deployment.predict(model, images,
                                        num_samples=num_samples).probs
            assert served.tobytes() == float_reference(
                deployment, images, num_samples).tobytes()

    @pytest.mark.parametrize("num_samples", [1, 3, 16])
    def test_fixed_repeated_and_interleaved(self, kernel, num_samples):
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        for call, rows in enumerate([5, 1, 5, 32, 1, 32, 5]):
            images = make_images(rows, seed=call)
            served = fresh.predict(images, num_samples).probs
            assert served.tobytes() == fixed_reference(
                kernel, images, num_samples).tobytes()

    def test_every_pass_span(self, deployment):
        model = deployment.instantiate()
        deployment.predict(model, make_images(5, seed=0))
        images = make_images(5, seed=1)
        reference = float_reference(deployment, images, 3)
        for start in range(3):
            for stop in range(start + 1, 4):
                span = deployment.predict_span(
                    model, images, pass_start=start, pass_stop=stop)
                assert span.tobytes() == np.ascontiguousarray(
                    reference[start:stop]).tobytes()

    def test_fixed_row_windows(self, kernel):
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        images = make_images(12, seed=2)
        reference = fixed_reference(kernel, images, 3)
        for _ in range(2):
            for start, stop in [(0, 4), (4, 9), (9, 12), (0, 12)]:
                part = fresh.predict(images[start:stop], 3, total_rows=12,
                                     row_start=start).probs
                assert part.tobytes() == np.ascontiguousarray(
                    reference[:, start:stop]).tobytes()

    @pytest.mark.skipif(not ReplicaPool.available(),
                        reason="replica pool requires the fork start method")
    @pytest.mark.parametrize("backend", ["float", "fixed"])
    def test_two_replicas(self, deployment, kernel, backend):
        pool = ReplicaPool(
            deployment, replicas=2, num_samples=3, backend=backend,
            kernel=CompiledKernel(kernel.deployment, kernel.plans)
            if backend == "fixed" else None,
            model=deployment.instantiate() if backend == "float" else None,
            timeout_s=15.0)
        if backend == "fixed":
            def reference(images):
                return fixed_reference(kernel, images, 3)
        else:
            def reference(images):
                return float_reference(deployment, images, 3)
        pool.start()
        try:
            for call, rows in enumerate([6, 6, 3, 6, 3]):
                images = make_images(rows, seed=call)
                assert pool.predict(images).probs.tobytes() == \
                    reference(images).tobytes()
        finally:
            pool.stop()


class TestKey:
    def test_set_config_misses(self, deployment):
        model = deployment.instantiate()
        images = make_images(5, seed=3)
        deployment.predict(model, images)
        for config in [("R", "B", "M"), CONFIG]:
            model.set_config(config)
            served = deployment.predict(model, images).probs
            assert served.tobytes() == float_reference(
                deployment, images, 3, config=config).tobytes()

    def test_empty_active_set_misses(self, kernel):
        # A kernel's slot layers are fixed once it is built, so the
        # empty set is a second fresh kernel's.
        images = make_images(4, seed=6)
        masked = fixed_reference(kernel, images, 3)
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        with mock.patch.object(fresh, "slot_layers", {}):
            plain = fresh.predict(images, 3).probs
        assert plain.tobytes() != masked.tobytes()
        for t in range(3):
            assert plain[t].tobytes() == plain[0].tobytes()


class TestStoredPlans:
    def test_float_draw_that_raises_stores_nothing(self, deployment):
        model = deployment.instantiate()
        images = make_images(5, seed=7)
        last = model.active_dropout_layers()[-1]
        with mock.patch.object(last, "sample_masks",
                               side_effect=RuntimeError("draw failed")):
            with pytest.raises(RuntimeError, match="draw failed"):
                deployment.predict(model, images)
        assert len(model._mask_plans._entries) == 0
        assert deployment.predict(model, images).probs.tobytes() == \
            float_reference(deployment, images, 3).tobytes()
        assert len(model._mask_plans._entries) == 1

    def test_nan_mask_plan_stores_nothing(self, kernel):
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        images = make_images(5, seed=8)
        last = list(fresh.slot_layers.values())[-1]
        draw = last.sample_masks

        def nan_plan(num_samples, shape):
            masks = np.array(draw(num_samples, shape))
            masks.flat[0] = np.nan
            return masks

        with mock.patch.object(last, "sample_masks", nan_plan):
            with pytest.raises(ValueError, match="cannot quantize NaN"):
                fresh.predict(images, 3)
        assert len(fresh._mask_codes._entries) == 0
        assert fresh.predict(images, 3).probs.tobytes() == \
            fixed_reference(kernel, images, 3).tobytes()
        assert len(fresh._mask_codes._entries) == 1

    def test_stored_plans_are_read_only(self, deployment, kernel):
        model = deployment.instantiate()
        deployment.predict(model, make_images(5, seed=9))
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        fresh.predict(make_images(5, seed=9), 3)
        for cache in (model._mask_plans, fresh._mask_codes):
            (key,) = cache._entries
            plans = cache.get(key)
            assert len(plans) == len(CONFIG)
            for array in plans.values():
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 0

    def test_rebind_drops_the_codes(self, kernel):
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        fresh.predict(make_images(3, seed=1), 3)
        fresh.rebind_tensors({})
        assert len(fresh._mask_codes._entries) == 0


class TestBudget:
    def test_cache_evicts_least_recently_used(self):
        def entry(share):
            return {0: np.zeros(int(MASK_PLAN_BUDGET * share), np.uint8)}

        cache = MaskPlanCache()
        cache.put("a", entry(0.4))
        cache.put("b", entry(0.4))
        assert cache.get("a") is not None      # "b" is now the oldest
        cache.put("c", entry(0.4))
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.nbytes == 2 * int(MASK_PLAN_BUDGET * 0.4)
        cache.put("d", entry(1.01))
        assert cache.get("d") is None and len(cache._entries) == 2

    def test_row_sweep_stays_within_budget(self, deployment):
        model = deployment.instantiate()
        for rows in range(1, 257):
            deployment.predict(model, np.zeros((rows,) + INPUT_SHAPE,
                                               np.float32))
            cache = model._mask_plans
            assert 0 < cache.nbytes <= MASK_PLAN_BUDGET
            assert cache.nbytes == sum(
                array.nbytes for plans, _ in list(cache._entries.values())
                for array in plans.values())
        assert len(cache._entries) < 256

    def test_entry_over_budget_is_used_once(self):
        # LeNet 28x28: 256 fused rows of float64 mask codes at T = 3
        # take about 9.7 MB, more than the whole budget.
        spec = ExperimentSpec(name="mask-plans-wide", model="lenet",
                              image_size=28, seed=5)
        deployment = Deployment.from_spec(spec, (1, 28, 28), config=CONFIG)
        kernel = compile_deployment(deployment, calibration_rows=8)
        images = make_images(256, seed=10, shape=(1, 28, 28))
        served = kernel.predict(images, 3).probs
        assert len(kernel._mask_codes._entries) == 0
        assert served.tobytes() == fixed_reference(
            kernel, images, 3).tobytes()
