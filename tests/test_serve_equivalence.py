"""Serve bit-identity: the service against direct ``mc_predict`` calls.

The serving analogue of ``test_mc_equivalence.py``.  The contract
(:mod:`repro.serve`): for every coalescing pattern, an
:class:`UncertaintyService` response is **bit-identical** to a direct
:func:`repro.bayes.mc.mc_predict` call on the same rows under the
deployment's reseed contract.  The ``looped`` parametrization serves
through the looped oracle (:mod:`tests.oracles`) and compares against
a direct ``mc_predict_looped`` call, so the service is pinned to the
oracle too —

* with one request per fused batch, the response equals a direct call
  on that request's rows alone;
* with coalescing (full, ragged or interleaved arrivals), each
  response equals its slice of a direct call on the fused batch
  (admission order), which is exactly what
  :meth:`MCPrediction.row_slice` guarantees is the same thing.

The direct reference deliberately bypasses the service stack: it
re-instantiates the model from the deployment and drives raw
``mc_predict`` with an explicit reseed, so the comparison would catch
a service that drifted from the public engine semantics.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.api import ExperimentSpec
from repro.bayes.mc import MCPrediction, mc_predict
from repro.hw.compile import compile_deployment
from repro.nn.functional import softmax
from repro.serve import (
    Deployment,
    PosteriorSlice,
    ReplicaPool,
    UncertaintyService,
)
from repro.utils.rng import derive_seed
from tests.oracles import ENGINES, mc_engine, mc_predict_looped

#: Per-request row counts of the coalescing patterns.
RAGGED_ROWS = (3, 1, 4, 2, 2)

INPUT_SHAPE = (1, 16, 16)


@pytest.fixture(scope="module")
def deployment():
    spec = ExperimentSpec(
        name="serve-eq", model="lenet_slim", dataset="mnist_like",
        image_size=16, seed=11)
    return Deployment.from_spec(spec, INPUT_SHAPE, config=("B", "K", "M"))


def make_requests(row_counts, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(rows,) + INPUT_SHAPE).astype(np.float32)
            for rows in row_counts]


def direct_predict(deployment, images, engine):
    """The reference: a raw MC call under the reseed contract."""
    model = deployment.instantiate()
    for index, layer in enumerate(model.active_dropout_layers()):
        layer.reseed(derive_seed(deployment.serve_seed, index))
    predict = mc_predict_looped if engine == "looped" else mc_predict
    return predict(model, images, deployment.spec.mc_samples)


def serve_all(deployment, requests, *, max_batch_rows, engine,
              submit_order=None, **service_kwargs):
    """Run ``requests`` through a service; returns (responses, stats).

    ``submit_order`` permutes submission (arrival interleaving); the
    returned responses are re-aligned to ``requests`` order.
    """
    order = list(submit_order) if submit_order is not None else list(
        range(len(requests)))

    async def main():
        service = UncertaintyService(
            deployment, max_batch_rows=max_batch_rows, max_wait_ms=50.0,
            max_queue_rows=max(max_batch_rows, 64), **service_kwargs)
        async with service:
            permuted = await asyncio.gather(
                *(service.predict(requests[i]) for i in order))
        responses = [None] * len(requests)
        for slot, response in zip(order, permuted):
            responses[slot] = response
        return responses, service.stats()

    with mc_engine(engine):
        return asyncio.run(main())


def assert_response_equals(response, reference):
    """Bit-exact equality of a PosteriorSlice and an MCPrediction."""
    assert np.array_equal(response.mean_probs, reference.mean_probs)
    assert np.array_equal(response.predictions, reference.predictions())
    assert np.array_equal(response.predictive_entropy,
                          reference.predictive_entropy())
    assert np.array_equal(response.mutual_information,
                          reference.mutual_information())
    assert response.num_samples == reference.num_samples


#: Response fields of a PosteriorSlice, all row-indexed arrays.
RESPONSE_FIELDS = ("mean_probs", "predictions", "predictive_entropy",
                   "mutual_information")

#: Rows of the synthetic predictions and their ragged row windows.
SYNTHETIC_ROWS = 23
RAGGED_WINDOWS = ((0, 1), (1, 4), (4, 11), (11, 23), (5, 6), (0, 23),
                  (7, 7))


def assert_slices_identical(ours, reference):
    """Byte equality of two PosteriorSlices, field by field."""
    for name in RESPONSE_FIELDS:
        assert getattr(ours, name).tobytes() \
            == getattr(reference, name).tobytes(), name
    assert ours.num_samples == reference.num_samples


def expected_fused_batches(row_counts, max_batch_rows):
    """The scheduler's greedy FIFO grouping, recomputed independently."""
    batches, current, rows = [], [], 0
    for index, count in enumerate(row_counts):
        if current and rows + count > max_batch_rows:
            batches.append(current)
            current, rows = [], 0
        current.append(index)
        rows += count
    if current:
        batches.append(current)
    return batches


@pytest.mark.parametrize("engine", ENGINES)
class TestOnePerBatch:
    """max_batch_rows == request rows: no coalescing, pure pass-through."""

    def test_single_row_requests(self, deployment, engine):
        requests = make_requests([1] * 5)
        responses, stats = serve_all(deployment, requests,
                                     max_batch_rows=1, engine=engine)
        assert stats["batches"] == 5
        assert stats["coalesce_ratio"] == 1.0
        for request, response in zip(requests, responses):
            assert_response_equals(
                response, direct_predict(deployment, request, engine))

    def test_multi_row_request(self, deployment, engine):
        (request,) = make_requests([4], seed=2)
        responses, stats = serve_all(deployment, [request],
                                     max_batch_rows=4, engine=engine)
        assert stats["batches"] == 1
        assert_response_equals(
            responses[0], direct_predict(deployment, request, engine))


@pytest.mark.parametrize("engine", ENGINES)
class TestFullCoalesce:
    """Every request rides one fused batch; responses are its slices."""

    def test_slices_of_one_fused_batch(self, deployment, engine):
        row_counts = (1, 2, 3, 2)
        requests = make_requests(row_counts, seed=3)
        responses, stats = serve_all(
            deployment, requests, max_batch_rows=sum(row_counts),
            engine=engine)
        assert stats["batches"] == 1
        assert stats["coalesce_ratio"] == len(requests)
        fused = direct_predict(
            deployment, np.concatenate(requests, axis=0), engine)
        start = 0
        for request, response in zip(requests, responses):
            stop = start + request.shape[0]
            assert_response_equals(response, fused.row_slice(start, stop))
            start = stop


@pytest.mark.parametrize("engine", ENGINES)
class TestRaggedCoalesce:
    """Ragged request sizes split into the greedy FIFO fused batches."""

    def test_each_batch_matches_direct_fused_call(self, deployment,
                                                  engine):
        max_batch_rows = 5
        requests = make_requests(RAGGED_ROWS, seed=4)
        responses, stats = serve_all(
            deployment, requests, max_batch_rows=max_batch_rows,
            engine=engine)
        groups = expected_fused_batches(RAGGED_ROWS, max_batch_rows)
        assert stats["batches"] == len(groups)
        for group in groups:
            fused = direct_predict(
                deployment,
                np.concatenate([requests[i] for i in group], axis=0),
                engine)
            start = 0
            for index in group:
                stop = start + requests[index].shape[0]
                assert_response_equals(responses[index],
                                       fused.row_slice(start, stop))
                start = stop


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("submit_order", [
    (3, 0, 2, 1), (1, 3, 0, 2), (2, 1, 3, 0),
])
class TestInterleavedArrivals:
    """Submission order defines the fused layout; slices still line up."""

    def test_responses_follow_admission_order(self, deployment, engine,
                                              submit_order):
        requests = make_requests((2, 1, 3, 2), seed=5)
        responses, stats = serve_all(
            deployment, requests, max_batch_rows=8, engine=engine,
            submit_order=submit_order)
        assert stats["batches"] == 1
        fused = direct_predict(
            deployment,
            np.concatenate([requests[i] for i in submit_order], axis=0),
            engine)
        start = 0
        for index in submit_order:
            stop = start + requests[index].shape[0]
            assert_response_equals(responses[index],
                                   fused.row_slice(start, stop))
            start = stop


class TestEngineAgreement:
    """Both engines serve bit-identical posteriors (mc contract holds
    through the service stack)."""

    def test_batched_equals_looped_through_service(self, deployment):
        requests = make_requests((2, 3, 1), seed=6)
        outputs = {}
        for engine in ENGINES:
            responses, _ = serve_all(deployment, requests,
                                     max_batch_rows=6, engine=engine)
            outputs[engine] = responses
        for batched, looped in zip(outputs["batched"], outputs["looped"]):
            assert np.array_equal(batched.mean_probs, looped.mean_probs)
            assert np.array_equal(batched.predictive_entropy,
                                  looped.predictive_entropy)


class TestRowSliceStability:
    """`MCPrediction.row_slice`: reduce-then-slice == slice-then-reduce."""

    def test_all_reductions_are_row_local(self, deployment):
        (fused,) = make_requests([9], seed=7)
        prediction = direct_predict(deployment, fused, "batched")
        for start, stop in ((0, 3), (2, 7), (8, 9), (0, 9)):
            part = prediction.row_slice(start, stop)
            assert np.array_equal(part.mean_probs,
                                  prediction.mean_probs[start:stop])
            assert np.array_equal(
                part.predictive_entropy(),
                prediction.predictive_entropy()[start:stop])
            assert np.array_equal(
                part.expected_entropy(),
                prediction.expected_entropy()[start:stop])
            assert np.array_equal(
                part.mutual_information(),
                prediction.mutual_information()[start:stop])
            assert np.array_equal(part.predictions(),
                                  prediction.predictions()[start:stop])

    @pytest.mark.parametrize("num_samples", [1, 3, 9, 16])
    @pytest.mark.parametrize("classes", [2, 10, 17])
    def test_synthetic_reductions_are_row_local(self, num_samples,
                                                classes):
        # T and K past numpy's 8-element pairwise-summation block, some
        # saturated rows, and ragged windows: reduce-then-slice must
        # still equal slice-then-reduce, byte for byte.
        rng = np.random.default_rng(num_samples * 100 + classes)
        logits = rng.normal(scale=4.0, size=(num_samples, SYNTHETIC_ROWS,
                                             classes)).astype(np.float32)
        logits[:, 3, 0] = 80.0  # a one-hot row: entropy clipping
        prediction = MCPrediction(probs=softmax(logits, axis=2))
        whole = PosteriorSlice.from_prediction(prediction)
        for start, stop in RAGGED_WINDOWS:
            part = prediction.row_slice(start, stop)
            assert part.mean_probs.tobytes() \
                == prediction.mean_probs[start:stop].tobytes()
            assert part.expected_entropy().tobytes() \
                == prediction.expected_entropy()[start:stop].tobytes()
            assert_slices_identical(whole.row_slice(start, stop),
                                    PosteriorSlice.from_prediction(part))

    def test_out_of_range_slice_rejected(self, deployment):
        (fused,) = make_requests([4], seed=8)
        prediction = direct_predict(deployment, fused, "batched")
        with pytest.raises(ValueError):
            prediction.row_slice(2, 5)
        with pytest.raises(ValueError):
            prediction.row_slice(-1, 2)


class TestPosteriorRowSlice:
    """`PosteriorSlice.row_slice`: row views of every response field."""

    def test_fields_are_row_views(self, deployment):
        (fused,) = make_requests([6], seed=14)
        whole = PosteriorSlice.from_prediction(
            direct_predict(deployment, fused, "batched"))
        part = whole.row_slice(2, 5)
        assert len(part) == 3
        assert part.num_samples == whole.num_samples
        for name in RESPONSE_FIELDS:
            field, parent = getattr(part, name), getattr(whole, name)
            assert field.tobytes() == parent[2:5].tobytes()
            assert np.shares_memory(field, parent)
        assert len(whole.row_slice(4, 4)) == 0

    def test_out_of_range_slice_rejected(self, deployment):
        (fused,) = make_requests([4], seed=15)
        whole = PosteriorSlice.from_prediction(
            direct_predict(deployment, fused, "batched"))
        for start, stop in [(2, 5), (-1, 2), (3, 2)]:
            with pytest.raises(ValueError, match="row slice"):
                whole.row_slice(start, stop)


class TestPerBatchReduction:
    """One reduction per fused batch, sliced into disjoint responses."""

    @pytest.mark.parametrize("backend,replicas", [
        ("float", 0), ("fixed", 0), ("float", 2), ("fixed", 2)])
    @pytest.mark.parametrize("num_samples", [3, 16])
    def test_responses_are_disjoint_rows_of_one_reduction(
            self, deployment, backend, replicas, num_samples):
        # T = 16 sums the pass axis past numpy's pairwise block, and
        # the 1-row request is where reducing its rows alone used to
        # round differently from reducing the whole batch.
        if replicas and not ReplicaPool.available():
            pytest.skip("replica pool requires the fork start method")
        row_counts = (2, 1, 3, 2)
        requests = make_requests(row_counts, seed=16)
        fused = np.concatenate(requests, axis=0)
        kernel = None
        if backend == "fixed":
            kernel = compile_deployment(deployment, calibration_rows=16)
            reference = kernel.predict(fused, num_samples=num_samples)
        else:
            model = deployment.instantiate()
            reference = deployment.predict(model, fused,
                                           num_samples=num_samples)
        responses, stats = serve_all(
            deployment, requests, max_batch_rows=len(fused),
            engine="batched", backend=backend, kernel=kernel,
            replicas=replicas, num_samples=num_samples)
        assert stats["batches"] == 1
        start = 0
        for response in responses:
            stop = start + len(response)
            assert_slices_identical(response, PosteriorSlice.from_prediction(
                reference.row_slice(start, stop)))
            start = stop
        for name in RESPONSE_FIELDS:
            fields = [getattr(response, name) for response in responses]
            # Views of one batch array, no two sharing a row.
            assert len({id(field.base) for field in fields}) == 1
            for index, field in enumerate(fields):
                assert not any(np.shares_memory(field, other)
                               for other in fields[index + 1:])


class TestDeploymentRoundTrip:
    """save → load → serve answers the exact same posteriors."""

    def test_loaded_deployment_serves_identically(self, deployment,
                                                  tmp_path):
        deployment.save(str(tmp_path / "dep"))
        loaded = Deployment.load(str(tmp_path / "dep"))
        assert loaded.config == deployment.config
        assert loaded.serve_seed == deployment.serve_seed
        assert loaded.input_shape == deployment.input_shape
        assert loaded.fixed_point == deployment.fixed_point
        requests = make_requests((2, 2), seed=9)
        original, _ = serve_all(deployment, requests, max_batch_rows=4,
                                engine="batched")
        reloaded, _ = serve_all(loaded, requests, max_batch_rows=4,
                                engine="batched")
        for a, b in zip(original, reloaded):
            assert np.array_equal(a.mean_probs, b.mean_probs)
            assert np.array_equal(a.mutual_information,
                                  b.mutual_information)

    def test_record_with_retired_keys_is_refused(self, deployment,
                                                 tmp_path):
        # The spec's engine and train_mode switches are gone: a
        # deployment.json whose spec still carries either is refused
        # naming the key.
        from repro.serve import DeploymentError
        path = tmp_path / "dep"
        deployment.save(str(path))
        record_path = path / "deployment.json"
        pristine = record_path.read_text()
        for key, where in (("engine", r"deployment\.spec;"),
                           ("train_mode", r"deployment\.spec\.train;")):
            document = json.loads(pristine)
            spec = document["payload"]["spec"]
            (spec if key == "engine" else spec["train"])[key] = "looped"
            record_path.write_text(json.dumps(document))
            with pytest.raises(DeploymentError,
                               match=rf"\['{key}'\] in {where}"):
                Deployment.load(str(path))

    def test_load_rejects_non_deployment_dir(self, tmp_path):
        from repro.serve import DeploymentError
        with pytest.raises(DeploymentError):
            Deployment.load(str(tmp_path / "nothing_here"))

    def test_load_rejects_incomplete_record(self, deployment, tmp_path):
        """A versioned record missing fields fails as DeploymentError,
        never as a raw KeyError (the CLI turns it into `error: ...`)."""
        import json

        from repro.serve import DeploymentError
        path = tmp_path / "dep"
        deployment.save(str(path))
        record_path = path / "deployment.json"
        document = json.loads(record_path.read_text())
        del document["payload"]["serve_seed"]
        record_path.write_text(json.dumps(document))
        with pytest.raises(DeploymentError,
                           match=r"deployment\.serve_seed is required"):
            Deployment.load(str(path))

    @pytest.mark.parametrize("key,value", [
        ("serve_seed", "7"), ("serve_seed", 7.9), ("serve_seed", True),
        ("input_shape", ["1", 16, 16]), ("input_shape", [1, 16.7, 16]),
        ("input_shape", [True, 16, 16]),
        ("fixed_point", {"total_bits": "16", "fraction_bits": 8}),
        ("fixed_point", {"total_bits": 16.9, "fraction_bits": 8}),
        ("fixed_point", [16, 8]),
    ])
    def test_load_refuses_values_it_would_coerce(self, deployment, tmp_path,
                                                 key, value):
        from repro.serve import DeploymentError
        path = tmp_path / "dep"
        deployment.save(str(path))
        record_path = path / "deployment.json"
        document = json.loads(record_path.read_text())
        document["payload"][key] = value
        record_path.write_text(json.dumps(document))
        with pytest.raises(DeploymentError,
                           match=rf"deployment\.{key}\S* must be"):
            Deployment.load(str(path))

    def test_saved_deployment_loads_with_its_fingerprint(self, deployment,
                                                         tmp_path):
        loaded = Deployment.load(deployment.save(str(tmp_path / "dep")))
        assert loaded.fingerprint() == deployment.fingerprint()
        assert loaded.fixed_point == deployment.fixed_point
        assert type(loaded.serve_seed) is int


class TestDeploymentTargetResolution:
    """config > aim > spec generation target, in both builders."""

    @pytest.fixture(scope="class")
    def finished_run(self, tmp_path_factory):
        from repro.api import (
            EvolutionSpec,
            GenerateSpec,
            Runner,
            SearchSpec,
            TrainSpec,
        )
        spec = ExperimentSpec(
            name="serve-target", model="lenet_slim",
            dataset="mnist_like", image_size=16, dataset_size=150,
            ood_size=30, seed=13,
            train=TrainSpec(epochs=1),
            search=SearchSpec(
                aims=("latency",),
                evolution=EvolutionSpec(population_size=3,
                                        generations=1)),
            # Explicit generation target: must NOT shadow an explicit
            # aim/config argument at export time.
            generate=GenerateSpec(config="M-M-M"))
        store_root = str(tmp_path_factory.mktemp("runs"))
        runner = Runner(spec, store_root=store_root)
        result = runner.run()
        return runner, result

    def test_default_uses_generation_target(self, finished_run):
        runner, _ = finished_run
        deployment = Deployment.from_context(runner.ctx)
        assert deployment.config == ("M", "M", "M")
        assert deployment.aim is None

    def test_explicit_aim_beats_generate_config(self, finished_run):
        runner, result = finished_run
        deployment = Deployment.from_context(runner.ctx, aim="latency")
        assert deployment.aim == "Latency Optimal"
        assert deployment.config == result.best("latency").best_config

    def test_explicit_config_beats_everything(self, finished_run):
        runner, _ = finished_run
        deployment = Deployment.from_context(runner.ctx,
                                             config=("B", "B", "B"))
        assert deployment.config == ("B", "B", "B")
        assert deployment.aim is None

    def test_from_run_resolves_identically(self, finished_run):
        runner, result = finished_run
        run_dir = runner.ctx.store.root
        assert Deployment.from_run(run_dir).config == ("M", "M", "M")
        by_aim = Deployment.from_run(run_dir, aim="latency")
        assert by_aim.aim == "Latency Optimal"
        assert by_aim.config == result.best("latency").best_config
        assert Deployment.from_run(
            run_dir, config=("B", "B", "B")).config == ("B", "B", "B")

    def test_builders_reject_inadmissible_configs(self, finished_run):
        from repro.serve import DeploymentError
        runner, _ = finished_run
        run_dir = runner.ctx.store.root
        with pytest.raises(DeploymentError, match="not admissible"):
            Deployment.from_run(run_dir, config=("B", "K"))  # arity
        with pytest.raises(DeploymentError, match="not admissible"):
            Deployment.from_context(runner.ctx, config=("Z", "Z", "Z"))


class TestRequestValidation:
    def test_explicit_zero_samples_rejected(self, deployment):
        with pytest.raises(ValueError, match="num_samples"):
            UncertaintyService(deployment, num_samples=0)
        with pytest.raises(ValueError, match="at most"):
            UncertaintyService(deployment, num_samples=10 ** 9)

    def test_unknown_engine_rejected(self, deployment):
        """The engine switch is gone: the oracle is not selectable."""
        with pytest.raises(TypeError, match="engine"):
            UncertaintyService(deployment, engine="looped")

    def test_non_finite_request_refused_batch_mate_answered(
            self, deployment):
        valid, poisoned, infinite = make_requests((2, 2, 1), seed=12)
        poisoned[1, 0, 3, 3] = np.nan
        infinite[0, 0, 0, 0] = np.inf

        async def main():
            # A long admission window: all three would share one fused
            # batch if the boundary admitted the non-finite rows.
            service = UncertaintyService(deployment, max_batch_rows=8,
                                         max_wait_ms=50.0)
            async with service:
                results = await asyncio.gather(
                    service.predict(valid), service.predict(poisoned),
                    service.predict(infinite), return_exceptions=True)
            return results, service.stats()

        (answered, *refused), stats = asyncio.run(main())
        for error in refused:
            assert isinstance(error, ValueError)
            assert "non-finite" in str(error)
        assert_response_equals(answered,
                               direct_predict(deployment, valid, "batched"))
        assert stats["requests"] == 1

    def test_shape_mismatch_rejected(self, deployment):
        async def main():
            service = UncertaintyService(deployment)
            async with service:
                with pytest.raises(ValueError, match="shape"):
                    await service.predict(np.zeros((1, 1, 8, 8),
                                                   dtype=np.float32))

        asyncio.run(main())
