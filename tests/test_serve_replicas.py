"""Replica pool: sharded fused batches stay byte-identical, and die well.

The tentpole contracts of :mod:`repro.serve.replicas`:

* **Routing is deterministic bookkeeping** — :func:`split_spans` /
  :func:`plan_shards` produce contiguous, non-overlapping, covering
  spans, a pure function of (axis, batch, healthy replicas); fuzzed
  across sizes and lane counts.
* **Sharding preserves every bit** — the sharding primitives
  (``Deployment.predict_span`` on the pass axis,
  ``CompiledKernel.predict``'s row window) reproduce exact byte ranges
  of the full prediction, and a pooled fused batch reassembles to the
  byte-exact single-process posterior for both backends × replica
  counts × ragged patterns.  The float axis is *passes*, never rows:
  BLAS GEMM rounding depends on the GEMM's row count, so row sharding
  would silently break byte-equality (the suite pins the axis choice).
* **Failure is absorbed, not surfaced** — a SIGKILLed replica (EOF) or
  a wedged one (timeout) loses nothing: its shard is re-dispatched, the
  response is still byte-exact, the slot respawns, and the per-replica
  counters record the incident.  No caller future is dropped or
  reordered (each request's response still equals its own reference).
* **Weights are shared, not copied** — a parent-side write to the
  shared mapping is visible inside a worker (true shared pages, not
  fork copy-on-write), and relocating the arrays changed no value.
"""

import asyncio
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import ExperimentSpec
from repro.hw.compile import compile_deployment
from repro.serve import Deployment, ReplicaPool, UncertaintyService
from repro.serve.replicas import AXES, plan_shards, split_spans
from tests.oracles import mc_predict_looped

pytestmark = pytest.mark.skipif(
    not ReplicaPool.available(),
    reason="replica pool requires the fork start method")

INPUT_SHAPE = (1, 16, 16)

#: Ragged per-request row counts used for fused-batch patterns.
RAGGED_ROWS = (3, 1, 4, 2, 2)


@pytest.fixture(scope="module")
def deployment():
    spec = ExperimentSpec(
        name="serve-replicas", model="lenet_slim", dataset="mnist_like",
        image_size=16, dataset_size=200, seed=23)
    return Deployment.from_spec(spec, INPUT_SHAPE, config=("B", "B", "M"))


@pytest.fixture(scope="module")
def kernel(deployment):
    return compile_deployment(deployment, calibration_rows=16)


def make_images(rows, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows,) + INPUT_SHAPE).astype(np.float32)


def make_requests(row_counts, seed=0):
    return [make_images(rows, seed=seed + i)
            for i, rows in enumerate(row_counts)]


@contextmanager
def pool_for(deployment, kernel, *, backend, replicas, timeout_s=15.0):
    """A started pool over a fresh model (float) or the kernel (fixed)."""
    if backend == "fixed":
        pool = ReplicaPool(deployment, replicas=replicas,
                           num_samples=deployment.spec.mc_samples,
                           backend="fixed", kernel=kernel,
                           timeout_s=timeout_s)
    else:
        pool = ReplicaPool(deployment, replicas=replicas,
                           num_samples=deployment.spec.mc_samples,
                           backend="float",
                           model=deployment.instantiate(),
                           timeout_s=timeout_s)
    pool.start()
    try:
        yield pool
    finally:
        pool.stop()


def reference_prediction(deployment, kernel, backend, images):
    """Single-process ground truth from *fresh* objects.

    A fresh model / the shared kernel keeps the reference independent
    of the pool's shared-memory relocation — if relocation perturbed
    anything, pooled vs reference would diverge here.
    """
    if backend == "fixed":
        return kernel.predict(images,
                              num_samples=deployment.spec.mc_samples)
    return deployment.predict(deployment.instantiate(), images)


# ----------------------------------------------------------------------
# Router properties (pure functions, no processes)
# ----------------------------------------------------------------------
class TestRouter:
    def test_spans_cover_contiguously_without_overlap(self):
        for total in range(1, 41):
            for lanes in range(1, 9):
                spans = split_spans(total, lanes)
                assert spans[0][0] == 0
                assert spans[-1][1] == total
                for (_, stop), (start, _) in zip(spans, spans[1:]):
                    assert stop == start  # contiguous, disjoint
                sizes = [stop - start for start, stop in spans]
                assert all(size >= 1 for size in sizes)
                assert max(sizes) - min(sizes) <= 1  # near-equal
                assert len(spans) == min(lanes, total)

    def test_split_is_deterministic(self):
        assert split_spans(10, 3) == split_spans(10, 3)
        assert split_spans(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_plan_shards_axis_selects_dimension(self):
        rows, samples = 10, 3
        by_pass = plan_shards("passes", rows, samples, [0, 1, 2, 3])
        assert len(by_pass) == samples  # parallelism capped by T
        assert by_pass[-1].stop == samples
        by_row = plan_shards("rows", rows, samples, [0, 1, 2, 3])
        assert len(by_row) == 4
        assert by_row[-1].stop == rows

    def test_plan_shards_routes_to_given_replicas(self):
        shards = plan_shards("rows", 9, 3, [4, 0, 7])
        assert [shard.replica for shard in shards] == [4, 0, 7]
        for shard in shards:
            assert shard.units == shard.stop - shard.start > 0

    def test_plan_shards_validation(self):
        with pytest.raises(ValueError, match="axis"):
            plan_shards("diagonal", 4, 3, [0])
        with pytest.raises(ValueError, match="zero replicas"):
            plan_shards("rows", 4, 3, [])
        assert AXES == ("passes", "rows")


# ----------------------------------------------------------------------
# Sharding primitives (the per-backend byte-equality foundations)
# ----------------------------------------------------------------------
class TestShardingPrimitives:
    def test_float_pass_span_is_byte_exact(self, deployment):
        model = deployment.instantiate()
        images = make_images(7, seed=1)
        full = deployment.predict(model, images, num_samples=5)
        for start, stop in [(0, 2), (2, 4), (4, 5), (1, 3), (0, 5)]:
            span = deployment.predict_span(
                model, images, num_samples=5,
                pass_start=start, pass_stop=stop)
            assert span.tobytes() == full.probs[start:stop].tobytes()

    def test_fixed_row_window_is_byte_exact(self, deployment, kernel):
        images = make_images(7, seed=2)
        full = kernel.predict(images, num_samples=4)
        for start, stop in [(0, 3), (3, 5), (5, 7), (2, 6), (0, 7)]:
            window = kernel.predict(images[start:stop], num_samples=4,
                                    total_rows=7, row_start=start)
            assert window.probs.tobytes() \
                == full.probs[:, start:stop].tobytes()

    def test_span_and_window_validation(self, deployment, kernel):
        model = deployment.instantiate()
        images = make_images(3, seed=3)
        with pytest.raises(ValueError, match="pass span"):
            deployment.predict_span(model, images, num_samples=3,
                                    pass_start=2, pass_stop=2)
        with pytest.raises(ValueError, match="pass span"):
            deployment.predict_span(model, images, num_samples=3,
                                    pass_start=0, pass_stop=4)
        with pytest.raises(ValueError, match="row window"):
            kernel.predict(images, num_samples=3, total_rows=2)
        with pytest.raises(ValueError, match="row window"):
            kernel.predict(images, num_samples=3, total_rows=8,
                           row_start=7)


# ----------------------------------------------------------------------
# Pooled fused batches: byte-identity across backends × replica counts
# ----------------------------------------------------------------------
class TestPoolBitIdentity:
    @pytest.mark.parametrize("backend", ["float", "fixed"])
    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_pooled_equals_single_process(self, deployment, kernel,
                                          backend, replicas):
        fused = np.concatenate(make_requests(RAGGED_ROWS, seed=10))
        reference = reference_prediction(deployment, kernel, backend,
                                         fused)
        with pool_for(deployment, kernel, backend=backend,
                      replicas=replicas) as pool:
            pooled = pool.predict(fused)
            assert pooled.probs.tobytes() == reference.probs.tobytes()
            # The route is explicit bookkeeping: spans cover the shard
            # axis, one healthy replica each.
            total = (deployment.spec.mc_samples if backend == "float"
                     else fused.shape[0])
            route = pool.last_route
            assert route[0].start == 0 and route[-1].stop == total
            assert len(route) == min(replicas, total)
            assert len({shard.replica for shard in route}) == len(route)

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_float_pooled_equals_looped_oracle(self, deployment,
                                               replicas):
        # Each float shard runs the fused engine over its pass span;
        # reassembled, the shards equal T sequential oracle passes.
        fused = np.concatenate(make_requests(RAGGED_ROWS, seed=13))
        model = deployment.instantiate()
        deployment.reseed(model.active_dropout_layers())
        oracle = mc_predict_looped(model, fused,
                                   deployment.spec.mc_samples)
        with pool_for(deployment, None, backend="float",
                      replicas=replicas) as pool:
            pooled = pool.predict(fused)
        assert pooled.probs.tobytes() == oracle.probs.tobytes()

    @pytest.mark.parametrize("backend", ["float", "fixed"])
    def test_repeated_batches_are_reproducible(self, deployment, kernel,
                                               backend):
        # The reseed contract holds per fused batch: serving the same
        # rows twice through the pool answers the same bytes.
        fused = np.concatenate(make_requests((2, 3), seed=11))
        with pool_for(deployment, kernel, backend=backend,
                      replicas=2) as pool:
            first = pool.predict(fused)
            second = pool.predict(fused)
            assert first.probs.tobytes() == second.probs.tobytes()

    def test_float_parallelism_caps_at_num_samples(self, deployment):
        # T=3 cannot use more than 3 replicas per batch — and byte
        # identity must survive the clamp.
        images = make_images(6, seed=12)
        reference = deployment.predict(deployment.instantiate(), images)
        with pool_for(deployment, None, backend="float",
                      replicas=5) as pool:
            pooled = pool.predict(images)
            assert pooled.probs.tobytes() == reference.probs.tobytes()
            assert len(pool.last_route) == deployment.spec.mc_samples


# ----------------------------------------------------------------------
# Zero-copy weight sharing
# ----------------------------------------------------------------------
class TestSharedMemory:
    @pytest.mark.parametrize("backend", ["float", "fixed"])
    def test_worker_sees_parent_mutation(self, deployment, kernel,
                                         backend):
        # Copy-on-write would show the worker the *old* value after a
        # parent-side write; shared pages show the new one.
        with pool_for(deployment, kernel, backend=backend,
                      replicas=2) as pool:
            assert pool.shared_bytes > 0
            name = pool.shared_names()[0]
            view = pool.shared_view(name).reshape(-1)
            original = view[0].item()
            try:
                view[0] = original + 2
                for index in range(2):
                    seen = pool.call(index, "peek", name, 0)
                    assert seen == pytest.approx(original + 2)
            finally:
                view[0] = original

    def test_relocation_preserves_parameter_bytes(self, deployment):
        model = deployment.instantiate()
        before = {name: p.data.copy()
                  for name, p in model.named_parameters()}
        pool = ReplicaPool(deployment, replicas=1,
                           num_samples=deployment.spec.mc_samples,
                           backend="float", model=model)
        try:
            views = {id(pool.shared_view(name))
                     for name in pool.shared_names()}
            for name, parameter in model.named_parameters():
                assert parameter.data.tobytes() == before[name].tobytes()
                # and the storage now aliases the shared mapping
                assert id(parameter.data) in views
        finally:
            pool.stop()


# ----------------------------------------------------------------------
# Failure handling: kill, wedge, drain
# ----------------------------------------------------------------------
class TestFailureRecovery:
    @pytest.mark.parametrize("backend", ["float", "fixed"])
    def test_killed_replica_redispatches_and_respawns(self, deployment,
                                                      kernel, backend):
        fused = np.concatenate(make_requests(RAGGED_ROWS, seed=20))
        reference = reference_prediction(deployment, kernel, backend,
                                         fused)
        with pool_for(deployment, kernel, backend=backend,
                      replicas=3) as pool:
            victim = 1
            os.kill(pool.pid(victim), signal.SIGKILL)
            pooled = pool.predict(fused)
            assert pooled.probs.tobytes() == reference.probs.tobytes()
            stats = pool.stats()
            worker = stats["workers"][victim]
            assert worker["failures"] == 1
            assert worker["restarts"] == 1
            assert worker["alive"]  # respawned into its slot
            assert stats["redispatches"] >= 1
            # The respawned worker serves the next batch normally.
            again = pool.predict(fused)
            assert again.probs.tobytes() == reference.probs.tobytes()

    def test_wedged_replica_times_out_and_recovers(self, deployment):
        fused = make_images(6, seed=21)
        reference = deployment.predict(deployment.instantiate(), fused)
        with pool_for(deployment, None, backend="float", replicas=2,
                      timeout_s=1.0) as pool:
            pool.wedge(0, seconds=8.0)
            pooled = pool.predict(fused)
            assert pooled.probs.tobytes() == reference.probs.tobytes()
            stats = pool.stats()
            assert stats["workers"][0]["failures"] == 1
            assert stats["workers"][0]["restarts"] == 1

    def test_every_replica_killed_still_answers(self, deployment):
        # Both workers SIGKILLed at once: each slot retires + respawns,
        # failed shards re-dispatch to the fresh workers (or the parent
        # computes them inline) — the caller still gets exact bytes.
        fused = make_images(4, seed=22)
        reference = deployment.predict(deployment.instantiate(), fused)
        with pool_for(deployment, None, backend="float",
                      replicas=2) as pool:
            for index in range(2):
                os.kill(pool.pid(index), signal.SIGKILL)
            pooled = pool.predict(fused)
            assert pooled.probs.tobytes() == reference.probs.tobytes()
            stats = pool.stats()
            assert sum(w["failures"] for w in stats["workers"]) == 2
            assert sum(w["restarts"] for w in stats["workers"]) == 2
            assert stats["redispatches"] + stats["fallbacks"] >= 1
            assert all(w["alive"] for w in stats["workers"])

    def test_unstarted_pool_computes_inline(self, deployment):
        # The inline fallback floor: a pool that is not running never
        # drops a batch — it computes in the parent and counts it.
        fused = make_images(4, seed=23)
        reference = deployment.predict(deployment.instantiate(), fused)
        pool = ReplicaPool(deployment, replicas=2,
                           num_samples=deployment.spec.mc_samples,
                           backend="float",
                           model=deployment.instantiate())
        pooled = pool.predict(fused)
        assert pooled.probs.tobytes() == reference.probs.tobytes()
        assert pool.stats()["fallbacks"] == 1
        assert pool.last_route == []

    def test_stop_reaps_all_workers(self, deployment):
        with pool_for(deployment, None, backend="float",
                      replicas=2) as pool:
            pids = [pool.pid(i) for i in range(2)]
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: process is gone


# ----------------------------------------------------------------------
# Through the service: coalescing × sharding × failures, per-request
# ----------------------------------------------------------------------
def serve_requests(deployment, requests, *, replicas, backend="float",
                   kernel=None, max_batch_rows=32, kill_after=None):
    """Serve a gather-swarm of ``requests``; returns (responses, stats).

    ``kill_after`` SIGKILLs one replica after that many leading
    requests have been answered, then drives the rest — the mid-load
    recovery scenario.
    """

    async def main():
        service = UncertaintyService(
            deployment, backend=backend, kernel=kernel,
            max_batch_rows=max_batch_rows, max_wait_ms=50.0,
            max_queue_rows=max(max_batch_rows, 64),
            replicas=replicas, replica_timeout_s=15.0)
        async with service:
            responses = []
            if kill_after is not None:
                for request in requests[:kill_after]:
                    responses.append(await service.predict(request))
                os.kill(service._pool.pid(0), signal.SIGKILL)
                remaining = requests[kill_after:]
            else:
                remaining = requests
            responses.extend(await asyncio.gather(
                *(service.predict(request) for request in remaining)))
        return responses, service.stats()

    return asyncio.run(main())


class TestServiceIntegration:
    @pytest.mark.parametrize("backend", ["float", "fixed"])
    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_pooled_service_matches_inline_service(self, deployment,
                                                   kernel, backend,
                                                   replicas):
        # Identical gather swarms through a pooled and an inline
        # service: every response byte-equal, for every replica count,
        # backend and the ragged pattern.  Inline responses are
        # themselves pinned to direct mc_predict/kernel.predict by the
        # existing equivalence suites, so this transitively pins the
        # pool to the single-process reference.
        requests = make_requests(RAGGED_ROWS, seed=30)
        pooled, pooled_stats = serve_requests(
            deployment, requests, replicas=replicas, backend=backend,
            kernel=kernel if backend == "fixed" else None)
        inline, _ = serve_requests(
            deployment, requests, replicas=0, backend=backend,
            kernel=kernel if backend == "fixed" else None)
        for ours, reference in zip(pooled, inline):
            assert ours.mean_probs.tobytes() \
                == reference.mean_probs.tobytes()
            assert ours.predictive_entropy.tobytes() \
                == reference.predictive_entropy.tobytes()
            assert ours.mutual_information.tobytes() \
                == reference.mutual_information.tobytes()
        pool = pooled_stats["replicas"]
        assert pool["replicas"] == replicas
        assert pool["axis"] == ("rows" if backend == "fixed"
                                else "passes")
        assert sum(w["shards"] for w in pool["workers"]) \
            == pool["dispatches"]

    def test_kill_one_replica_mid_load(self, deployment):
        # One-row requests, one request per fused batch (deterministic
        # composition), replica 0 SIGKILLed after two answers: every
        # response before and after the kill equals the inline service.
        requests = make_requests((1,) * 8, seed=31)
        pooled, stats = serve_requests(
            deployment, requests, replicas=2, max_batch_rows=1,
            kill_after=2)
        inline, _ = serve_requests(
            deployment, requests, replicas=0, max_batch_rows=1)
        assert len(pooled) == len(requests)  # no future dropped
        for ours, reference in zip(pooled, inline):
            assert ours.mean_probs.tobytes() \
                == reference.mean_probs.tobytes()
        workers = stats["replicas"]["workers"]
        assert workers[0]["failures"] == 1
        assert workers[0]["restarts"] == 1

    def test_stats_surface_pool_and_stopped_counters(self, deployment):
        async def main():
            service = UncertaintyService(deployment, replicas=2,
                                         max_wait_ms=1.0)
            async with service:
                await service.predict(make_images(2, seed=32))
            with pytest.raises(RuntimeError, match="stopped"):
                await service.predict(make_images(1, seed=33))
            return service.stats()

        stats = asyncio.run(main())
        assert stats["rejected_stopped"] == 1
        assert stats["rejected"] == 0
        pool = stats["replicas"]
        assert pool["batches"] >= 1
        assert not pool["running"]  # drained on service stop
        assert len(pool["workers"]) == 2
        for worker in pool["workers"]:
            assert not worker["alive"]

    def test_inline_service_reports_no_pool(self, deployment):
        assert UncertaintyService(deployment).stats()["replicas"] is None

    def test_replica_validation(self, deployment):
        with pytest.raises(ValueError, match="replicas"):
            UncertaintyService(deployment, replicas=-1)
