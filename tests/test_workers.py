"""The worker substrate (:mod:`repro.workers`) on its own.

The replica, lock-step and async suites drive the substrate through
their users; these tests pin the contract those users rely on, with a
toy handler: results come back in task order whatever fails on the
way, every fault kind is applied and recovered, a worker that dies
twice on one task hands it to the parent, a handler error keeps its
type, and zero workers run tasks inline in submission order.
"""

import os

import pytest

from repro import workers
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.runtime import (
    SITE_ASYNC_DISPATCH,
    SITE_REPLICA_DISPATCH,
    injected,
)
from repro.workers import WorkerPool

pytestmark = pytest.mark.skipif(
    not workers.available(), reason="worker pools need the fork method")


def square(x):
    return x * x


class TestRecovery:
    def test_every_fault_kind_recovers_in_order(self):
        faults = [FaultEvent(SITE_REPLICA_DISPATCH, 0, "wedge", 30.0),
                  FaultEvent(SITE_ASYNC_DISPATCH, 0, "error"),
                  FaultEvent(SITE_REPLICA_DISPATCH, 0, "kill"),
                  FaultEvent(SITE_REPLICA_DISPATCH, 0, "slow", 0.01)]
        with WorkerPool(square, workers=2, deadline_s=2.0) as pool:
            assert pool.map([1, 2, 3, 4], faults=faults) == [1, 4, 9, 16]
            stats = pool.stats()
            assert stats["injected"] == 4
            # The wedged and the killed worker were replaced and their
            # tasks re-sent; the errored task was recomputed inline.
            assert [w["failures"] for w in stats["workers"]] == [1, 1]
            assert [w["restarts"] for w in stats["workers"]] == [1, 1]
            assert stats["redispatches"] == 2
            assert stats["fallbacks"] == 1
            assert all(w["alive"] for w in stats["workers"])
            # The respawned workers serve the next tasks normally.
            assert pool.map([5, 6]) == [25, 36]

    def test_task_killing_every_worker_runs_in_the_parent(self):
        parent = os.getpid()

        def crash_in_worker(x):
            if os.getpid() != parent:
                os._exit(3)
            return -x

        with WorkerPool(crash_in_worker, workers=2,
                        deadline_s=None) as pool:
            assert pool.map([1, 2, 3]) == [-1, -2, -3]
            assert pool.stats()["fallbacks"] == 3
            assert pool.failures == 6

    def test_handler_error_surfaces_with_its_type(self):
        def fail(x):
            raise KeyError(x)

        with WorkerPool(fail, workers=1) as pool:
            with pytest.raises(KeyError):
                pool.map([7])


class TestSiteVisits:
    def test_site_counts_every_send_including_resends(self):
        injector = FaultPlan(events=(
            FaultEvent(SITE_ASYNC_DISPATCH, 1, "kill"),)).injector()
        with injected(injector):
            with WorkerPool(square, workers=2,
                            site=SITE_ASYNC_DISPATCH) as pool:
                ids = [pool.submit(x) for x in range(4)]
                results = dict(pool.next_result() for _ in ids)
        assert results == {task_id: x * x for task_id, x
                           in zip(ids, range(4))}
        assert injector.fired == 1
        assert injector.visits(SITE_ASYNC_DISPATCH) == 5

    def test_zero_workers_run_inline_in_submission_order(self):
        injector = FaultPlan(events=(
            FaultEvent(SITE_ASYNC_DISPATCH, 0, "kill"),)).injector()
        with injected(injector):
            with WorkerPool(square, workers=0,
                            site=SITE_ASYNC_DISPATCH) as pool:
                ids = [pool.submit(x) for x in range(4)]
                got = [pool.next_result() for _ in ids]
        assert got == [(task_id, x * x) for task_id, x
                       in zip(ids, range(4))]
        # One visit per inline task; there is no worker to kill.
        assert injector.visits(SITE_ASYNC_DISPATCH) == 4
        assert injector.fired == 1
