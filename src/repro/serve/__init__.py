"""``repro.serve`` — async micro-batching uncertainty serving.

The deployment scenario the paper's accelerators exist for: accepting
concurrent prediction requests and answering each with a calibrated
posterior (mean probabilities, predictive entropy, mutual information)
from fused MC-dropout forward passes.

Four layers:

* :class:`Deployment` — the serving artifact (spec + chosen dropout
  configuration + trained weights + fixed-point metadata), exportable
  from a finished ``repro.api`` run and round-trippable to disk;
* :class:`MicroBatcher` — the asyncio admission policy coalescing
  concurrent requests into fused batches with bounded wait, bounded
  queue (backpressure) and deterministic request→slice bookkeeping;
* :class:`ReplicaPool` — N forked worker processes sharing one
  zero-copy weight mapping; a deterministic router shards each fused
  batch across them (Monte-Carlo passes on the float backend, rows on
  the fixed backend) and reassembles the byte-exact posterior, with
  health tracking, shard re-dispatch and respawn on failure;
* :class:`UncertaintyService` — ``await predict(images)`` →
  :class:`PosteriorSlice`, plus operational counters and the graceful
  degradation ladder: backpressure → per-request deadlines
  (:class:`DeadlineExceeded`) → adaptive admission control
  (:class:`AdmissionControl`, :class:`OverloadShedError`) → a
  :class:`CircuitBreaker` that takes a sick replica pool out of the
  serving path while the inline fallback carries traffic
  (``stats()["degraded"]`` stays honest).  Deterministic fault
  injection for all of it lives in :mod:`repro.faults`.

Quickstart::

    from repro.serve import Deployment, UncertaintyService

    deployment = Deployment.from_run("runs/<run_id>")
    async with UncertaintyService(deployment) as service:
        posterior = await service.predict(images)
        print(posterior.predictive_entropy)

Correctness contract: service responses are bit-identical to direct
:func:`repro.bayes.mc.mc_predict` calls on the same fused rows under
the deployment's reseed contract — see ``tests/test_serve_*``.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.deployment import (
    DEPLOYMENT_VERSION,
    Deployment,
    DeploymentError,
)
from repro.serve.replicas import (
    ReplicaError,
    ReplicaPool,
    Shard,
    plan_shards,
)
from repro.serve.scheduler import (
    BackpressureError,
    DeadlineExceeded,
    MicroBatcher,
    OverloadShedError,
    ServiceStoppedError,
    ShedError,
)
from repro.serve.service import (
    BACKENDS,
    LATENCY_WINDOW,
    AdmissionControl,
    InvalidRequestError,
    PosteriorSlice,
    UncertaintyService,
)

__all__ = [
    "AdmissionControl",
    "BACKENDS",
    "BackpressureError",
    "CircuitBreaker",
    "DEPLOYMENT_VERSION",
    "DeadlineExceeded",
    "Deployment",
    "DeploymentError",
    "InvalidRequestError",
    "LATENCY_WINDOW",
    "MicroBatcher",
    "OverloadShedError",
    "PosteriorSlice",
    "ReplicaError",
    "ReplicaPool",
    "ServiceStoppedError",
    "Shard",
    "ShedError",
    "UncertaintyService",
    "plan_shards",
]
