"""Serving through the fixed-point kernel (``backend="fixed"``).

The fixed backend slots the compiled integer kernel underneath the
same micro-batching service the float engine uses.  Contracts:

* a fixed-backend response is byte-identical to the corresponding rows
  of a direct ``kernel.predict`` call on the fused batch — the serving
  analogue of ``test_serve_equivalence.py``;
* an inline-compiled service (no ``kernel=``) answers identically to
  one built around a pre-compiled kernel — compilation is
  deterministic, so where the kernel comes from cannot matter;
* backend/kernel argument validation fails fast and loudly;
* a request holding NaN is refused before admission, so the requests
  it would have been fused with are still answered exactly;
* both backends refuse an empty batch with one message.
"""

import asyncio

import numpy as np
import pytest

from repro.api import ExperimentSpec
from repro.bayes.mc import mc_predict, mc_predict_span
from repro.hw.compile import compile_deployment
from repro.serve import BACKENDS, Deployment, UncertaintyService
from tests.oracles import mc_predict_looped

INPUT_SHAPE = (1, 16, 16)


@pytest.fixture(scope="module")
def deployment():
    spec = ExperimentSpec(
        name="serve-fixed", model="lenet_slim", dataset="mnist_like",
        image_size=16, dataset_size=200, seed=17)
    return Deployment.from_spec(spec, INPUT_SHAPE, config=("B", "B", "M"))


@pytest.fixture(scope="module")
def kernel(deployment):
    return compile_deployment(deployment, calibration_rows=16)


def make_images(rows, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows,) + INPUT_SHAPE).astype(np.float32)


async def serve_one(service, images):
    async with service:
        return await service.predict(images)


class TestValidation:
    def test_backends_constant(self):
        assert BACKENDS == ("float", "fixed")

    def test_unknown_backend_rejected(self, deployment):
        with pytest.raises(ValueError, match="backend"):
            UncertaintyService(deployment, backend="analog")

    def test_kernel_with_float_backend_rejected(self, deployment, kernel):
        with pytest.raises(ValueError, match="fixed"):
            UncertaintyService(deployment, backend="float", kernel=kernel)

    def test_foreign_kernel_rejected(self, deployment, kernel):
        other = Deployment.from_spec(
            ExperimentSpec(name="other", model="lenet_slim",
                           dataset="mnist_like", image_size=16,
                           dataset_size=200, seed=99),
            INPUT_SHAPE, config=("B", "B", "M"))
        with pytest.raises(ValueError, match="different deployment"):
            UncertaintyService(other, backend="fixed", kernel=kernel)

    def test_engine_with_fixed_backend_rejected(self, deployment, kernel):
        # The engine switch is gone on every backend.
        with pytest.raises(TypeError, match="engine"):
            UncertaintyService(deployment, backend="fixed",
                               kernel=kernel, engine="batched")

    def test_stats_reports_backend(self, deployment, kernel):
        fixed = UncertaintyService(deployment, backend="fixed",
                                   kernel=kernel)
        assert fixed.stats()["backend"] == "fixed"
        assert UncertaintyService(deployment).stats()["backend"] == "float"

    def test_fixed_backend_reports_no_engine(self, deployment, kernel):
        # Neither backend reports an engine: there is one float engine,
        # and the integer kernel never used one.
        for service in (UncertaintyService(deployment, backend="fixed",
                                           kernel=kernel),
                        UncertaintyService(deployment)):
            assert "engine" not in service.stats()
            assert not hasattr(service, "engine")

    def test_nan_request_refused_batch_mate_answered(self, deployment,
                                                     kernel):
        valid = make_images(2, seed=4)
        poisoned = make_images(2, seed=5)
        poisoned[1, 0, 3, 3] = np.nan

        async def drive():
            # A long admission window: without the boundary check both
            # requests would fuse into one kernel batch, and the NaN
            # would fail the valid request along with itself.
            async with UncertaintyService(
                    deployment, backend="fixed", kernel=kernel,
                    max_batch_rows=16, max_wait_ms=50.0) as service:
                return await asyncio.gather(
                    service.predict(valid), service.predict(poisoned),
                    return_exceptions=True)

        answered, refused = asyncio.run(drive())
        assert isinstance(refused, ValueError)
        assert "non-finite" in str(refused)
        direct = kernel.predict(valid,
                                num_samples=deployment.spec.mc_samples)
        assert answered.mean_probs.tobytes() \
            == direct.mean_probs.tobytes()
        assert answered.mutual_information.tobytes() \
            == direct.mutual_information().tobytes()


class TestEmptyBatch:
    def test_both_backends_refuse_an_empty_batch(self, deployment, kernel):
        # Before the check numpy failed deep inside a reshape, with a
        # different message per path.
        empty = make_images(0)
        model = deployment.instantiate()
        calls = [
            lambda: mc_predict(model, empty, 3),
            lambda: mc_predict_span(model, empty, 3, pass_start=1),
            lambda: mc_predict_looped(model, empty, 3),
            lambda: deployment.predict(model, empty),
            lambda: deployment.predict_span(model, empty, pass_start=0,
                                            pass_stop=1),
            lambda: kernel.predict(empty, 3),
            lambda: kernel.predict(empty, 3, total_rows=4, row_start=2),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ValueError, match="at least one row") as err:
                call()
            messages.add(str(err.value))
        assert messages == {
            "a Monte-Carlo batch needs at least one row, got 0"}
        # The refusals left nothing behind: the same instances serve.
        images = make_images(3, seed=6)
        assert deployment.predict(model, images).probs.tobytes() \
            == deployment.predict(deployment.instantiate(),
                                  images).probs.tobytes()
        assert kernel.predict(images, 3).probs.tobytes() \
            == compile_deployment(deployment, calibration_rows=16).predict(
                images, 3).probs.tobytes()


class TestInlineCertificate:
    def test_wrap_possible_compile_refused_as_compile_refuses_it(
            self, tmp_path):
        # At <40,20> every arithmetic layer's accumulator can wrap
        # int64; `repro compile` refuses to persist such a kernel, and
        # the service refuses to serve it, with the same error.
        from repro.api import AcceleratorSpec, ArtifactStore
        from repro.hw.compile import CompileError, compile_and_report
        spec = ExperimentSpec(
            name="serve-wide", model="lenet_slim", dataset="mnist_like",
            image_size=16, dataset_size=200, seed=17,
            accelerator=AcceleratorSpec(total_bits=40, fraction_bits=20))
        wide = Deployment.from_spec(spec, INPUT_SHAPE,
                                    config=("B", "K", "M"))
        with pytest.raises(CompileError) as compiled:
            compile_and_report(wide, ArtifactStore(str(tmp_path)))
        with pytest.raises(CompileError) as served:
            UncertaintyService(wide, backend="fixed")
        assert str(served.value) == str(compiled.value)
        assert "['conv1', 'conv2', 'fc1', 'fc2', 'fc3']" in str(served.value)


class TestKernelPairing:
    def test_separately_loaded_artifacts_pair_by_fingerprint(
            self, deployment, kernel, tmp_path):
        # Regression: the service used to require the kernel to hold
        # the *same object* as the deployment it serves, so pairing a
        # `repro compile` artifact with an independently re-loaded
        # deployment of the same run failed spuriously.  Equality is by
        # Deployment.fingerprint().
        from repro.api import ArtifactStore
        from repro.hw.compile import load_kernel, save_kernel

        path = str(tmp_path / "deploy")
        deployment.save(path)
        save_kernel(kernel, ArtifactStore(path))
        reloaded = Deployment.load(path)
        rekernel = load_kernel(ArtifactStore(path))
        assert rekernel.deployment is not reloaded
        assert rekernel.deployment.fingerprint() == reloaded.fingerprint()

        images = make_images(3, seed=7)
        service = UncertaintyService(reloaded, backend="fixed",
                                     kernel=rekernel)
        posterior = asyncio.run(serve_one(service, images))
        direct = kernel.predict(images,
                                num_samples=deployment.spec.mc_samples)
        assert posterior.mean_probs.tobytes() \
            == direct.mean_probs.tobytes()


class TestFixedResponses:
    def test_response_matches_direct_kernel_predict(self, deployment,
                                                    kernel):
        images = make_images(4)
        service = UncertaintyService(deployment, backend="fixed",
                                     kernel=kernel)
        posterior = asyncio.run(serve_one(service, images))
        direct = kernel.predict(images,
                                num_samples=deployment.spec.mc_samples)
        assert posterior.mean_probs.tobytes() \
            == direct.mean_probs.tobytes()
        assert posterior.predictive_entropy.tobytes() \
            == direct.predictive_entropy().tobytes()
        assert posterior.mutual_information.tobytes() \
            == direct.mutual_information().tobytes()
        assert posterior.num_samples == deployment.spec.mc_samples

    def test_inline_compile_matches_precompiled(self, deployment, kernel):
        images = make_images(3, seed=1)
        inline = UncertaintyService(deployment, backend="fixed")
        pre = UncertaintyService(deployment, backend="fixed",
                                 kernel=kernel)
        first = asyncio.run(serve_one(inline, images))
        second = asyncio.run(serve_one(pre, images))
        assert first.mean_probs.tobytes() == second.mean_probs.tobytes()

    def test_coalesced_requests_slice_the_fused_batch(self, deployment,
                                                      kernel):
        batches = [make_images(2, seed=2), make_images(3, seed=3)]

        async def drive():
            # A long admission window so both requests fuse into one
            # kernel batch.
            async with UncertaintyService(
                    deployment, backend="fixed", kernel=kernel,
                    max_batch_rows=16, max_wait_ms=50.0) as service:
                return await asyncio.gather(
                    *(service.predict(b) for b in batches))

        responses = asyncio.run(drive())
        fused = kernel.predict(np.concatenate(batches),
                               num_samples=deployment.spec.mc_samples)
        start = 0
        for batch, posterior in zip(batches, responses):
            stop = start + batch.shape[0]
            assert posterior.mean_probs.tobytes() \
                == fused.mean_probs[start:stop].tobytes()
            start = stop

    def test_fixed_and_float_agree_approximately(self, deployment,
                                                 kernel):
        # Not a bit-identity claim — quantization moves probabilities —
        # but both backends answer the same question.
        images = make_images(4, seed=4)
        fixed = asyncio.run(serve_one(
            UncertaintyService(deployment, backend="fixed",
                               kernel=kernel), images))
        floating = asyncio.run(serve_one(
            UncertaintyService(deployment), images))
        np.testing.assert_allclose(fixed.mean_probs,
                                   floating.mean_probs, atol=0.05)
