"""Resilience under the standard fault plan — SLO attainment + overhead.

The robustness claim of :mod:`repro.faults`: the serving stack keeps
its promises *while faults fire*.  This bench replays the pinned
:meth:`~repro.faults.plan.FaultPlan.standard_plan` (slow replies,
replica kills, a wedge, torn artifact/cache writes) against a live
:class:`~repro.serve.service.UncertaintyService` with a forked replica
pool, and a matched fault-free control run, then emits a
machine-readable ``BENCH_resilience.json`` record with a ``host``
stamp (git sha, usable CPU count and BLAS build, from
:func:`perfbench.host.envelope`):

* **invariants** — the chaos soak's pass/fail plus its violation list
  (dropped futures, byte-identity breaks, counter mismatches);
* **SLO attainment** — fraction of requests answered (not shed) under
  faults, and within-deadline fraction when a budget is set;
* **recovery overhead** — faulted vs. fault-free wall time for the
  identical request wave (the price of kills + wedge recovery).

Assertions gate on **correctness only**: the soak's invariants must
hold and every produced response must be byte-identical to fault-free
serving; overhead is recorded, never asserted — CI hosts are
single-core and wedge-recovery latency is timeout-dominated there.
"""

from __future__ import annotations

import time

import pytest

from repro.api import ExperimentSpec
from repro.faults import chaos
from repro.faults.plan import FaultPlan
from repro.serve import Deployment

#: Paper-style hybrid configuration on LeNet's three slots.
CONFIG = ("B", "K", "M")


@pytest.fixture(scope="module")
def workload(request):
    """LeNet deployment + soak parameters, scaled by ``--bench-smoke``."""
    smoke = bool(request.config.getoption("--bench-smoke"))
    image_size = 16 if smoke else 28
    requests = 16 if smoke else 48
    spec = ExperimentSpec(
        name="bench-resilience", model="lenet_slim", dataset="mnist_like",
        image_size=image_size, seed=11)
    deployment = Deployment.from_spec(
        spec, (1, image_size, image_size), config=CONFIG)
    return deployment, requests, smoke


def soak(deployment, plan, *, requests, deadline_ms=None):
    started = time.perf_counter()
    report = chaos.run_soak(
        deployment, plan, requests=requests, rows=2, replicas=2,
        replica_timeout_s=1.0, deadline_ms=deadline_ms, timeout_s=180.0)
    return report, time.perf_counter() - started


def test_resilience_slo_under_standard_plan(workload, bench_json,
                                            emit_table, host_stamp):
    deployment, requests, smoke = workload
    plan = FaultPlan.standard_plan(0)

    # Warm-up (allocator, fork machinery), then control vs. faulted.
    soak(deployment, FaultPlan(events=()), requests=4)
    control, control_s = soak(deployment, FaultPlan(events=()),
                              requests=requests)
    faulted, faulted_s = soak(deployment, plan, requests=requests)

    answered = faulted.completed / faulted.requests
    total_shed = sum(faulted.shed.values())
    overhead = faulted_s / control_s if control_s > 0 else float("inf")

    payload = {
        "workload": {
            "model": "lenet_slim",
            "config": "-".join(CONFIG),
            "requests": requests,
            "replicas": 2,
            "smoke": smoke,
        },
        "host": host_stamp("bench_resilience"),
        "plan": {
            "seed": plan.seed,
            "events": [event.to_dict() for event in plan.events],
            "fired": faulted.fired,
            "pending": faulted.pending,
        },
        "control": {"elapsed_s": control_s,
                    "completed": control.completed},
        "faulted": {
            "elapsed_s": faulted_s,
            "completed": faulted.completed,
            "shed": dict(faulted.shed),
            "mismatched": faulted.mismatched,
            "dropped": faulted.dropped,
            "violations": list(faulted.violations),
        },
        "slo_attainment": answered,
        "recovery_overhead": overhead,
    }
    bench_json("resilience", payload)
    emit_table(
        "resilience",
        "Serving resilience under the standard fault plan "
        "(LeNet-slim, 2 replicas)",
        ["Scenario", "Requests", "Answered", "Shed", "Fired",
         "Wall s"],
        [
            ["fault-free", requests, control.completed, 0, 0,
             f"{control_s:.2f}"],
            ["standard plan", requests, faulted.completed, total_shed,
             faulted.fired, f"{faulted_s:.2f}"],
            ["overhead", "", "", "", "", f"{overhead:.2f}x"],
        ])

    # Correctness gates — the bench is a chaos soak with numbers.
    assert control.ok, control.violations
    assert faulted.ok, faulted.violations
    assert faulted.mismatched == 0
    assert faulted.dropped == 0
    # Every replica-dispatch event sits inside the wave, so the whole
    # schedule must have replayed.
    assert faulted.fired >= 4


def test_resilience_deadline_budget(workload, bench_json):
    """Same plan plus a per-request deadline: sheds stay honest."""
    deployment, requests, smoke = workload
    report, elapsed = soak(deployment, FaultPlan.standard_plan(0),
                           requests=requests, deadline_ms=10_000.0)
    assert report.ok, report.violations
    assert report.completed + sum(report.shed.values()) == requests
    bench_json("resilience", {
        "deadline_scenario": {
            "deadline_ms": 10_000.0,
            "elapsed_s": elapsed,
            "completed": report.completed,
            "shed": dict(report.shed),
        },
    }, merge=True)
