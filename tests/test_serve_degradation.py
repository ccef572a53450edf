"""The graceful-degradation ladder: deadlines, shedding, the breaker.

Covers the serve-stack behaviors PR "resilience" added on top of plain
backpressure (:mod:`repro.serve`):

* per-request **deadline budgets** — a request still queued when its
  budget expires is shed with :class:`DeadlineExceeded` and counted in
  ``shed_deadline``, never computed;
* **stop-shed** — ``stop(flush=False)`` fails still-queued requests
  with :class:`ServiceStoppedError` (``shed_stopped``), distinct from
  post-stop submissions (``rejected_stopped``);
* **adaptive admission control** — seeded probabilistic shedding under
  queue pressure (``shed_load``), deterministic across replays;
* the **circuit breaker** state machine and its service integration:
  a sick pool trips it open, the inline fallback carries traffic
  byte-identically, and ``stats()["degraded"]`` tells the truth;
* **typed refusal** of invalid requests — wrong shape, NaN and zero
  rows raise :class:`InvalidRequestError` on both backends and are
  counted in ``rejected_invalid``.

Everything here is single-process and deterministic — the replica-pool
fault injection lives in ``tests/test_faults_chaos.py``.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.api import ExperimentSpec
from repro.serve import (
    AdmissionControl,
    CircuitBreaker,
    DeadlineExceeded,
    Deployment,
    InvalidRequestError,
    MicroBatcher,
    OverloadShedError,
    ServiceStoppedError,
    ShedError,
    UncertaintyService,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN

INPUT_SHAPE = (1, 16, 16)


@pytest.fixture(scope="module")
def deployment():
    spec = ExperimentSpec(
        name="serve-degrade", model="lenet_slim", dataset="mnist_like",
        image_size=16, seed=13)
    return Deployment.from_spec(spec, INPUT_SHAPE, config=("B", "K", "M"))


def request_batch(rows, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows,) + INPUT_SHAPE).astype(np.float32)


class TestDeadlineBudgets:
    def test_expired_deadline_sheds_with_distinct_error(self):
        """A request whose budget expires in queue is shed, not served."""
        def slow_predict(batch):
            time.sleep(0.05)  # blocks the drain loop like real compute
            return batch

        async def main():
            batcher = MicroBatcher(slow_predict, max_batch_rows=2,
                                   max_wait_ms=0.1, max_queue_rows=64)
            async with batcher:
                # Both enqueue before the drain loop pops: the blocker
                # fills the first batch and its predict blocks the loop
                # past the doomed request's budget.
                blocker = asyncio.ensure_future(
                    batcher.submit(np.zeros((2, 2))))
                doomed = asyncio.ensure_future(
                    batcher.submit(np.ones((1, 2)), deadline_s=0.01))
                results = await asyncio.gather(blocker, doomed,
                                               return_exceptions=True)
            return results, batcher

        (blocked, shed), batcher = asyncio.run(main())
        assert isinstance(blocked, np.ndarray)
        assert isinstance(shed, DeadlineExceeded)
        assert isinstance(shed, ShedError)  # the ladder's common base
        assert not isinstance(shed, OverloadShedError)
        assert batcher.shed_deadline == 1

    def test_generous_deadline_serves_normally(self):
        async def main():
            batcher = MicroBatcher(lambda b: b, max_batch_rows=8,
                                   max_wait_ms=0.5, max_queue_rows=64)
            async with batcher:
                return await batcher.submit(np.ones((2, 2)),
                                            deadline_s=30.0)

        result = asyncio.run(main())
        assert np.array_equal(result, np.ones((2, 2)))

    def test_invalid_deadline_rejected(self):
        async def main():
            batcher = MicroBatcher(lambda b: b, max_batch_rows=8,
                                   max_wait_ms=0.5, max_queue_rows=64)
            async with batcher:
                with pytest.raises(ValueError, match="deadline"):
                    await batcher.submit(np.ones((1, 2)), deadline_s=0.0)

        asyncio.run(main())

    def test_service_deadline_ms_validation(self, deployment):
        with pytest.raises(ValueError, match="deadline_ms"):
            UncertaintyService(deployment, deadline_ms=0.0)


class TestStopShed:
    def test_stop_sheds_queued_requests_distinctly(self):
        """S3: stop() fails queued requests; counters stay distinct."""
        async def main():
            batcher = MicroBatcher(lambda b: b, max_batch_rows=64,
                                   max_wait_ms=5000.0, max_queue_rows=64)
            await batcher.start()
            queued = [asyncio.ensure_future(
                batcher.submit(request_batch(1, seed=i)))
                for i in range(3)]
            await asyncio.sleep(0)  # requests are queued, none served
            await batcher.stop(flush=False)
            outcomes = await asyncio.gather(*queued,
                                            return_exceptions=True)
            with pytest.raises(ServiceStoppedError):
                await batcher.submit(request_batch(1))
            return outcomes, batcher

        outcomes, batcher = asyncio.run(main())
        assert all(isinstance(outcome, ServiceStoppedError)
                   for outcome in outcomes)
        assert batcher.shed_stopped == 3
        assert batcher.rejected_stopped == 1  # the post-stop submit

    def test_stop_flush_still_serves(self):
        """The batcher default remains the graceful flush."""
        async def main():
            batcher = MicroBatcher(lambda b: b, max_batch_rows=64,
                                   max_wait_ms=5000.0, max_queue_rows=64)
            await batcher.start()
            queued = asyncio.ensure_future(
                batcher.submit(np.ones((2, 2))))
            await asyncio.sleep(0)
            await batcher.stop()  # default: flush
            return await queued, batcher

        result, batcher = asyncio.run(main())
        assert np.array_equal(result, np.ones((2, 2)))
        assert batcher.shed_stopped == 0

    def test_service_stop_default_sheds(self, deployment):
        """The *service* default is shed-on-stop (answer fast, honestly)."""
        async def main():
            service = UncertaintyService(deployment, max_batch_rows=64,
                                         max_wait_ms=5000.0)
            await service.start()
            pending = asyncio.ensure_future(
                service.predict(request_batch(2)))
            await asyncio.sleep(0)
            await service.stop()
            outcome = await asyncio.gather(pending,
                                           return_exceptions=True)
            return outcome[0], service.stats()

        outcome, stats = asyncio.run(main())
        assert isinstance(outcome, ServiceStoppedError)
        assert stats["shed_stopped"] == 1
        assert stats["rejected_stopped"] == 0


class TestAdmissionControl:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="queue_fraction"):
            AdmissionControl(queue_fraction=0.0)
        with pytest.raises(ValueError, match="max_shed_probability"):
            AdmissionControl(max_shed_probability=1.5)
        with pytest.raises(ValueError, match="p99_ms"):
            AdmissionControl(p99_ms=-1.0)

    def test_shed_probability_ramps_with_queue_fill(self, deployment):
        policy = AdmissionControl(queue_fraction=0.5,
                                  max_shed_probability=0.8)
        service = UncertaintyService(deployment, max_queue_rows=100,
                                     admission=policy)
        batcher = service._batcher
        assert service._shed_probability() == 0.0
        batcher._queued_rows = 50  # exactly at the ramp start
        assert service._shed_probability() == 0.0
        batcher._queued_rows = 75  # halfway up the ramp
        assert service._shed_probability() == pytest.approx(0.5)
        batcher._queued_rows = 100  # full queue: capped at the ceiling
        assert service._shed_probability() == pytest.approx(0.8)

    def test_p99_pressure_sheds_even_with_shallow_queue(self, deployment):
        policy = AdmissionControl(queue_fraction=0.9, p99_ms=1.0)
        service = UncertaintyService(deployment, admission=policy)
        service._latencies.extend([0.05] * 16)  # 50ms >> 1ms target
        assert service._shed_probability() > 0.0

    def test_overload_shedding_is_seeded_and_counted(self, deployment):
        """Same seed, same arrivals → the same requests are shed."""
        def run(seed):
            async def main():
                policy = AdmissionControl(queue_fraction=0.01,
                                          max_shed_probability=0.9,
                                          seed=seed)
                service = UncertaintyService(
                    deployment, max_batch_rows=4, max_wait_ms=20.0,
                    max_queue_rows=64, admission=policy)
                async with service:
                    outcomes = await asyncio.gather(
                        *(service.predict(request_batch(4, seed=i))
                          for i in range(12)),
                        return_exceptions=True)
                pattern = tuple(isinstance(o, OverloadShedError)
                                for o in outcomes)
                for outcome in outcomes:
                    if isinstance(outcome, BaseException) and \
                            not isinstance(outcome, ShedError):
                        raise outcome
                return pattern, service.stats()

            return asyncio.run(main())

        pattern_a, stats_a = run(seed=5)
        pattern_b, stats_b = run(seed=5)
        assert pattern_a == pattern_b  # deterministic replay
        assert stats_a["shed_load"] == sum(pattern_a)
        assert any(pattern_a)  # the ramp actually shed something
        assert not all(pattern_a)  # ceiling < 1.0: probes get through


class TestInvalidRequests:
    @pytest.mark.parametrize("backend", ["float", "fixed"])
    def test_refusals_are_typed_and_counted(self, deployment, backend):
        nan = request_batch(1, seed=2)
        nan[0, 0, 4, 4] = np.nan
        sequence = [request_batch(1, seed=1),
                    np.zeros((1, 1, 8, 8), dtype=np.float32),
                    nan,
                    np.zeros((0,) + INPUT_SHAPE, dtype=np.float32),
                    request_batch(2, seed=3)]

        async def main():
            outcomes = []
            async with UncertaintyService(deployment,
                                          backend=backend) as service:
                for images in sequence:
                    try:
                        await service.predict(images)
                        outcomes.append("served")
                    except InvalidRequestError as error:
                        outcomes.append(str(error))
            return outcomes, service.stats()

        outcomes, stats = asyncio.run(main())
        assert outcomes[0] == outcomes[4] == "served"
        assert "shape" in outcomes[1]
        assert "non-finite" in outcomes[2]
        assert "at least one row" in outcomes[3]
        assert stats["requests"] == 2
        assert stats["rejected_invalid"] == 3
        assert stats["rejected"] == 0

    def test_invalid_request_error_is_a_value_error(self):
        assert issubclass(InvalidRequestError, ValueError)
        assert not issubclass(InvalidRequestError, ShedError)


class TestCircuitBreakerUnit:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_batches=2)
        breaker.record(False)
        breaker.record(False)
        breaker.record(True)  # clean batch resets the strike count
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == CLOSED
        breaker.record(False)
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert breaker.degraded

    def test_cooldown_then_probe_then_recovery(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_batches=3)
        breaker.record(False)
        assert breaker.state == OPEN
        # Two batches short-circuit; the third flips to a half-open probe.
        assert breaker.allow() is False
        assert breaker.allow() is False
        assert breaker.allow() is True
        assert breaker.state == HALF_OPEN
        assert breaker.probes == 1
        breaker.record(True)
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1
        assert not breaker.degraded

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_batches=1)
        breaker.record(False)
        assert breaker.allow() is True  # cooldown of 1: immediate probe
        breaker.record(False)
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert breaker.stats()["short_circuited"] == 0

    def test_state_machine_is_pure_replay(self):
        """Identical outcome sequences walk identical state paths."""
        def walk():
            breaker = CircuitBreaker(failure_threshold=2,
                                     cooldown_batches=2)
            states = []
            for ok in (False, False, True, False, False,
                       True, True, False):
                if breaker.allow():
                    breaker.record(ok)
                states.append(breaker.state)
            return states, breaker.stats()

        assert walk() == walk()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_batches=0)


class _SickPool:
    """Stub replica pool: every batch reports shard failures."""

    running = True

    def __init__(self, fail_batches):
        self.fail_batches = fail_batches
        self.predicted = 0
        self.last_batch_failures = 0
        self._real = None

    def bind(self, service):
        self._service = service

    def start(self):
        pass

    def stop(self):
        pass

    def stats(self):
        return {"workers": [], "stub": True}

    def predict(self, images, *, num_samples):
        self.predicted += 1
        # The pool's contract: even a failing batch returns the correct
        # result (per-shard redispatch + inline floor) — it just took
        # the expensive recovery ladder to get there.
        self.last_batch_failures = (
            1 if self.predicted <= self.fail_batches else 0)
        return self._service._predict_local(images)


class TestServiceBreakerIntegration:
    def run_service(self, deployment, *, pool, breaker, requests=8):
        async def main():
            service = UncertaintyService(
                deployment, max_batch_rows=2, max_wait_ms=1.0,
                max_queue_rows=64, breaker=breaker)
            pool.bind(service)
            service._pool = pool  # stub in place of a forked pool
            responses = []
            async with service:
                for index in range(requests):
                    responses.append(await service.predict(
                        request_batch(2, seed=index)))
            return responses, service

        return asyncio.run(main())

    def test_sick_pool_trips_breaker_and_falls_back(self, deployment):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_batches=3)
        pool = _SickPool(fail_batches=10**9)  # never healthy
        responses, service = self.run_service(
            deployment, pool=pool, breaker=breaker, requests=8)
        assert len(responses) == 8
        # Two strikes trip it; cooldown probes re-fail and re-trip, so
        # most batches were carried by the inline fallback.
        assert breaker.trips >= 1
        assert service.breaker_fallbacks > 0
        stats = service.stats()
        assert stats["degraded"] is True
        assert stats["breaker"]["state"] != CLOSED
        assert stats["breaker_fallbacks"] == service.breaker_fallbacks

    def test_recovered_pool_closes_breaker(self, deployment):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_batches=2)
        pool = _SickPool(fail_batches=2)  # sick, then healthy forever
        responses, service = self.run_service(
            deployment, pool=pool, breaker=breaker, requests=10)
        assert len(responses) == 10
        assert breaker.trips == 1
        assert breaker.recoveries == 1
        assert service.stats()["degraded"] is False

    def test_fallback_is_byte_identical(self, deployment):
        """Breaker-open responses equal healthy-service responses."""
        def serve(breaker, pool):
            async def main():
                service = UncertaintyService(
                    deployment, max_batch_rows=2, max_wait_ms=1.0,
                    max_queue_rows=64, breaker=breaker)
                if pool is not None:
                    pool.bind(service)
                    service._pool = pool
                async with service:
                    results = [await service.predict(
                        request_batch(2, seed=index))
                        for index in range(6)]
                return results

            return asyncio.run(main())

        degraded = serve(CircuitBreaker(failure_threshold=1,
                                        cooldown_batches=2),
                         _SickPool(fail_batches=10**9))
        healthy = serve(CircuitBreaker(), None)
        for ours, theirs in zip(degraded, healthy):
            assert ours.mean_probs.tobytes() == theirs.mean_probs.tobytes()
            assert ours.predictions.tobytes() == theirs.predictions.tobytes()
