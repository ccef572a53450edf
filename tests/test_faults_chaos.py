"""Chaos soaks: replica faults under a live service, invariants audited.

End-to-end form of the resilience contract (:mod:`repro.faults.chaos`):
a :class:`FaultPlan` replayed against a real
:class:`~repro.serve.service.UncertaintyService` — forked replica pool
included — must leave no future dropped, every produced response
byte-identical to fault-free serving, every shed accounted under its
distinct counter, and the fired-event log identical across reruns.

These tests fork worker processes and kill/wedge them on purpose; they
are the slowest file in the suite but bound by small models, tiny
request waves and short replica timeouts.
"""

from unittest import mock

import pytest

from repro.api import ExperimentSpec
from repro.cli import main
from repro.faults import chaos
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.runtime import (
    SITE_REPLICA_DISPATCH,
    active,
)
from repro.hw.compile import compile_deployment
from repro.serve import Deployment

INPUT_SHAPE = (1, 16, 16)


@pytest.fixture(scope="module")
def deployment():
    spec = ExperimentSpec(
        name="chaos-soak", model="lenet_slim", dataset="mnist_like",
        image_size=16, seed=17)
    return Deployment.from_spec(spec, INPUT_SHAPE, config=("B", "K", "M"))


def soak(deployment, plan, **overrides):
    kwargs = dict(requests=12, rows=2, replicas=2,
                  replica_timeout_s=1.0, timeout_s=90.0)
    kwargs.update(overrides)
    return chaos.run_soak(deployment, plan, **kwargs)


class TestStandardPlanSoak:
    def test_standard_plan_holds_all_invariants(self, deployment):
        report = soak(deployment, FaultPlan.standard_plan(0))
        assert report.ok, report.violations
        assert report.dropped == 0
        assert report.mismatched == 0
        # The replica-dispatch events (slow/kill/wedge/kill) all sit
        # within a 12-request wave, so the whole schedule replays.
        assert report.fired >= 4
        assert report.completed + sum(report.shed.values()) == 12

    def test_soak_replay_is_deterministic(self, deployment):
        plan = FaultPlan.standard_plan(0)
        first = soak(deployment, plan)
        second = soak(deployment, plan)
        assert first.ok and second.ok
        assert first.event_log == second.event_log
        assert first.fired == second.fired

    def test_soak_deactivates_injector_on_exit(self, deployment):
        soak(deployment, FaultPlan.standard_plan(0))
        # The service's stop() must uninstall the process-global
        # injector — a leak here would poison every later test.
        assert active() is None

    def test_soak_of_no_requests_is_refused(self, deployment):
        # Zero requests would hold every invariant vacuously.
        with pytest.raises(ValueError, match="requests must be positive"):
            soak(deployment, FaultPlan.standard_plan(0), requests=0)


class TestTargetedPlans:
    def test_kill_storm_recovers_every_future(self, deployment):
        plan = FaultPlan(events=tuple(
            FaultEvent(SITE_REPLICA_DISPATCH, visit, "kill")
            for visit in (1, 3, 5)))
        report = soak(deployment, plan)
        assert report.ok, report.violations
        assert report.fired == 3

    def test_wedge_is_detected_and_recovered(self, deployment):
        plan = FaultPlan(events=(
            FaultEvent(SITE_REPLICA_DISPATCH, 2, "wedge", 30.0),))
        report = soak(deployment, plan)
        assert report.ok, report.violations
        assert report.fired == 1

    def test_deadline_budget_under_slow_faults(self, deployment):
        # Slow-dispatch events plus a per-request deadline: some
        # requests may be shed, but sheds must be counted honestly and
        # survivors must stay byte-identical.
        plan = FaultPlan(events=tuple(
            FaultEvent(SITE_REPLICA_DISPATCH, visit, "slow", 0.02)
            for visit in (0, 2, 4)))
        report = soak(deployment, plan, deadline_ms=5000.0)
        assert report.ok, report.violations
        assert report.mismatched == 0

    def test_inline_service_ignores_replica_faults(self, deployment):
        # replicas=0: no pool, so replica-dispatch events never fire —
        # the plan stays pending and serving is undisturbed.
        plan = FaultPlan(events=(
            FaultEvent(SITE_REPLICA_DISPATCH, 0, "kill"),))
        report = soak(deployment, plan, replicas=0)
        assert report.ok, report.violations
        assert report.fired == 0
        assert report.pending == 1
        assert report.completed == 12


class TestFixedBackend:
    """A fixed-backend soak compiles one kernel for its reference and its
    faulted service alike."""

    @staticmethod
    def spy():
        return mock.patch("repro.hw.compile.compile_deployment",
                          wraps=compile_deployment)

    def test_soak_compiles_once(self, deployment):
        with self.spy() as spy:
            report = soak(deployment, FaultPlan.standard_plan(0),
                          backend="fixed")
        assert report.ok, report.violations
        assert report.mismatched == 0
        assert spy.call_count == 1

    def test_cli_compiles_once_per_repeat(self, deployment, tmp_path,
                                          capsys):
        path = deployment.save(str(tmp_path / "deploy"))
        with self.spy() as spy:
            code = main(["chaos", "--deployment", path, "--backend", "fixed",
                         "--requests", "4", "--rows", "1", "--repeat", "2",
                         "--replica-timeout-s", "1.0"])
        assert code == 0
        assert "invariants: OK" in capsys.readouterr().out
        assert spy.call_count == 2
