"""The uncertainty service: async predictions over a deployment.

:class:`UncertaintyService` is the top of the serving stack — the
paper's end product turned into a request/response system.  It owns an
instantiated :class:`~repro.serve.deployment.Deployment` model and a
:class:`~repro.serve.scheduler.MicroBatcher`; concurrent
``await service.predict(images)`` calls coalesce into fused MC-dropout
forward passes and each caller receives a :class:`PosteriorSlice` —
the posterior-predictive mean plus the decomposed uncertainty signals
(predictive entropy, mutual information) for exactly its rows.

Bit-identity contract (``tests/test_serve_equivalence.py``): a
response equals the corresponding rows of a direct
:func:`repro.bayes.mc.mc_predict` call on the fused batch under the
deployment's reseed contract — micro-batching changes *when* rows are
computed, never *what* they are.  With ``replicas=N`` the fused batch
is additionally sharded across a forked worker pool
(:mod:`repro.serve.replicas`); the contract is unchanged
(``tests/test_serve_replicas.py``).

The service tracks operational counters (requests, batches, coalesce
ratio, queue depth, rejected admissions, p50/p99 request latency) and
reports them via :meth:`UncertaintyService.stats`.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass
from collections import deque
from typing import Deque, Dict, Optional

import numpy as np

from repro.bayes.mc import MCPrediction
from repro.faults import runtime as fault_runtime
from repro.faults.plan import FaultInjector, FaultPlan
from repro.nn.module import DTYPE
from repro.serve.breaker import CircuitBreaker
from repro.serve.deployment import Deployment
from repro.serve.scheduler import MicroBatcher, OverloadShedError
from repro.utils.rng import derive_seed, new_rng
from repro.utils.validation import check_positive_int

#: Request latencies kept for the percentile window (bounds memory
#: under sustained traffic; percentiles are over the last this-many).
LATENCY_WINDOW = 4096

#: Serving backends: the float Monte-Carlo engine or the compiled
#: fixed-point integer kernel (:mod:`repro.hw.compile`).
BACKENDS = ("float", "fixed")


@dataclass
class PosteriorSlice:
    """One request's share of a fused Monte-Carlo posterior.

    Attributes:
        mean_probs: posterior predictive mean, shape ``(n, K)``.
        predictions: hard class decisions, shape ``(n,)``.
        predictive_entropy: total uncertainty H[E[p]] in nats, ``(n,)``.
        mutual_information: epistemic (BALD) uncertainty in nats,
            ``(n,)``.
        num_samples: Monte-Carlo passes behind the estimate.
    """

    mean_probs: np.ndarray
    predictions: np.ndarray
    predictive_entropy: np.ndarray
    mutual_information: np.ndarray
    num_samples: int

    @classmethod
    def from_prediction(cls, prediction: MCPrediction) -> "PosteriorSlice":
        """Reduce an :class:`MCPrediction` to the response payload."""
        return cls(
            mean_probs=prediction.mean_probs,
            predictions=prediction.predictions(),
            predictive_entropy=prediction.predictive_entropy(),
            mutual_information=prediction.mutual_information(),
            num_samples=prediction.num_samples,
        )

    def __len__(self) -> int:
        return int(self.mean_probs.shape[0])


@dataclass
class AdmissionControl:
    """Adaptive admission policy: shed *before* the queue is hopeless.

    Backpressure alone is a cliff — every request is admitted until the
    queue is full, then everything bounces.  Admission control turns
    the cliff into a ramp: once queued rows exceed
    ``queue_fraction`` of the bound (or the windowed p99 latency
    exceeds ``p99_ms``, when set), each arriving request is shed with a
    probability that grows with the pressure, up to
    ``max_shed_probability`` (never 1.0 — some traffic always probes
    whether the overload has passed).  Shed decisions draw from a
    dedicated seeded RNG so a replayed arrival sequence sheds the same
    requests.

    Attributes:
        queue_fraction: queue fill ratio where the shed ramp starts.
        p99_ms: optional latency threshold; windowed p99 above it adds
            pressure even when the queue looks shallow.
        max_shed_probability: ceiling of the shed ramp.
        seed: seed of the shed-decision RNG.
    """

    queue_fraction: float = 0.75
    p99_ms: Optional[float] = None
    max_shed_probability: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.queue_fraction <= 1.0:
            raise ValueError(
                f"queue_fraction must be in (0, 1], got "
                f"{self.queue_fraction}")
        if not 0.0 <= self.max_shed_probability <= 1.0:
            raise ValueError(
                f"max_shed_probability must be in [0, 1], got "
                f"{self.max_shed_probability}")
        if self.p99_ms is not None and self.p99_ms <= 0:
            raise ValueError(f"p99_ms must be > 0, got {self.p99_ms}")


class UncertaintyService:
    """Micro-batched async MC-dropout inference over a deployment.

    Args:
        deployment: the serving artifact; its model is instantiated
            once here and reused across every request.
        max_batch_rows: rows per fused Monte-Carlo batch.
        max_wait_ms: micro-batching admission wait (see
            :class:`~repro.serve.scheduler.MicroBatcher`).
        max_queue_rows: backpressure bound on queued rows.
        num_samples: Monte-Carlo passes per prediction; defaults to the
            deployment spec's ``mc_samples``.
        backend: ``"float"`` (default: the fused MC engine) or ``"fixed"``
            — serve through a compiled fixed-point integer kernel
            (:mod:`repro.hw.compile`), the software twin of the FPGA
            datapath.  Both backends honor the same mask-plan
            determinism contract, so fixed-backend responses are a pure
            function of (deployment, request rows) too.
        kernel: optional pre-compiled
            :class:`~repro.hw.compile.CompiledKernel` for the fixed
            backend (e.g. loaded from a ``repro compile`` artifact
            directory); compiled on the fly when omitted.  A supplied
            kernel must match the deployment by *fingerprint*
            (:meth:`Deployment.fingerprint`) — independently loaded
            artifacts of the same run pair up; foreign kernels are
            rejected.
        replicas: fork this many worker processes behind the batcher
            (:class:`~repro.serve.replicas.ReplicaPool`) and shard
            every fused batch across them.  ``0`` (default) serves
            inline in this process.  Responses stay byte-identical to
            inline serving either way.
        replica_timeout_s: per-shard round-trip bound before a replica
            is declared wedged and its shard re-dispatched.
        deadline_ms: default per-request deadline budget; a request
            still queued when it expires is shed with
            :class:`~repro.serve.scheduler.DeadlineExceeded`
            (``shed_deadline`` in stats).  ``None`` (default): no
            deadline.
        admission: optional :class:`AdmissionControl` policy; arriving
            requests are probabilistically shed with
            :class:`~repro.serve.scheduler.OverloadShedError`
            (``shed_load``) once queue depth or windowed p99 crosses
            the policy's thresholds.
        breaker: circuit breaker over the replica pool
            (:class:`~repro.serve.breaker.CircuitBreaker`); defaults to
            one with stock thresholds when ``replicas > 0``.  While
            open, fused batches bypass the pool and the inline fallback
            carries traffic — still byte-identical, but ``stats()``
            reports ``degraded: True`` honestly.
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan` (or
            a ready :class:`~repro.faults.plan.FaultInjector`);
            installed process-globally for the service's lifetime so
            the named hook points in the serve stack replay its
            deterministic fault schedule.  Testing/chaos only.

    Use as an async context manager::

        async with UncertaintyService(deployment) as service:
            posterior = await service.predict(images)
    """

    def __init__(self, deployment: Deployment, *,
                 max_batch_rows: int = 32,
                 max_wait_ms: float = 2.0,
                 max_queue_rows: int = 256,
                 num_samples: Optional[int] = None,
                 backend: str = "float",
                 kernel=None,
                 replicas: int = 0,
                 replica_timeout_s: float = 30.0,
                 deadline_ms: Optional[float] = None,
                 admission: Optional[AdmissionControl] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 fault_plan=None) -> None:
        self.deployment = deployment
        if num_samples is None:
            num_samples = deployment.spec.mc_samples
        check_positive_int(num_samples, "num_samples")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        self.num_samples = int(num_samples)
        self.backend = backend
        self.replicas = int(replicas)
        self.replica_timeout_s = float(replica_timeout_s)
        self.deadline_ms = (None if deadline_ms is None
                            else float(deadline_ms))
        self.admission = admission
        self._admission_rng = (
            new_rng(derive_seed(admission.seed,
                                zlib.crc32(b"admission-control")))
            if admission is not None else None)
        self.shed_load = 0
        self.breaker_fallbacks = 0
        self._breaker = breaker or CircuitBreaker()
        if fault_plan is None:
            self._injector = None
        elif isinstance(fault_plan, FaultInjector):
            self._injector = fault_plan
        elif isinstance(fault_plan, FaultPlan):
            self._injector = fault_plan.injector()
        else:
            raise ValueError(
                "fault_plan must be a FaultPlan or FaultInjector, got "
                f"{type(fault_plan).__name__}")
        self._pool = None
        self._model = None
        self._kernel = None
        if backend == "fixed":
            if kernel is None:
                from repro.hw.compile import compile_deployment
                kernel = compile_deployment(deployment)
            elif (kernel.deployment is not deployment
                  and kernel.deployment.fingerprint()
                  != deployment.fingerprint()):
                raise ValueError(
                    "kernel was compiled from a different deployment "
                    "(fingerprint mismatch)")
            self._kernel = kernel
        else:
            if kernel is not None:
                raise ValueError(
                    "kernel is only meaningful with backend='fixed'")
            self._model = deployment.instantiate()
        if self.replicas:
            from repro.serve.replicas import ReplicaPool
            if not ReplicaPool.available():
                raise ValueError(
                    "replicas > 0 requires the 'fork' start method")
            self._pool = ReplicaPool(
                deployment, replicas=self.replicas,
                num_samples=self.num_samples, backend=backend,
                model=self._model, kernel=self._kernel,
                timeout_s=self.replica_timeout_s)
        self._batcher = MicroBatcher(
            self._predict_fused,
            max_batch_rows=max_batch_rows,
            max_wait_ms=max_wait_ms,
            max_queue_rows=max_queue_rows,
            slice_fn=lambda pred, start, stop: pred.row_slice(start, stop))
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    # ------------------------------------------------------------------
    # Prediction path
    # ------------------------------------------------------------------
    def _predict_fused(self, images: np.ndarray) -> MCPrediction:
        """One fused pass under the deployment's determinism contract.

        The circuit breaker sits between the batcher and the pool:
        consecutive batches with shard failures trip it open, after
        which the inline path carries traffic (byte-identical — the
        parent shares the pool's weight pages) until a half-open probe
        finds the fleet healthy again.
        """
        if self._pool is not None and self._pool.running:
            if self._breaker.allow():
                prediction = self._pool.predict(
                    images, num_samples=self.num_samples)
                self._breaker.record(self._pool.last_batch_failures == 0)
                return prediction
            self.breaker_fallbacks += 1
        return self._predict_local(images)

    def _predict_local(self, images: np.ndarray) -> MCPrediction:
        """The inline (single-process) serving path."""
        if self._kernel is not None:
            return self._kernel.predict(images,
                                        num_samples=self.num_samples)
        return self.deployment.predict(
            self._model, images, num_samples=self.num_samples)

    def _shed_probability(self) -> float:
        """Current admission-control shed probability (0.0 = admit)."""
        policy = self.admission
        if policy is None:
            return 0.0
        pressure = 0.0
        fill = (self._batcher.queue_depth_rows
                / self._batcher.max_queue_rows)
        if fill > policy.queue_fraction and policy.queue_fraction < 1.0:
            pressure = ((fill - policy.queue_fraction)
                        / (1.0 - policy.queue_fraction))
        if policy.p99_ms is not None and self._latencies:
            p99_ms = float(np.percentile(
                np.asarray(self._latencies, dtype=np.float64), 99)) * 1e3
            if p99_ms > policy.p99_ms:
                pressure = max(pressure, p99_ms / policy.p99_ms - 1.0)
        return min(pressure, policy.max_shed_probability)

    def _validate(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=DTYPE)
        expected = self.deployment.input_shape
        if images.ndim != 1 + len(expected) or images.shape[1:] != expected:
            raise ValueError(
                f"request must be a batch of shape (n, {expected[0]}, "
                f"{expected[1]}, {expected[2]}), got {images.shape}")
        # Refused before admission, identically on both backends: past
        # this point a NaN row fails every request fused with it (the
        # fixed kernel cannot quantize NaN) or, on float, is answered
        # with a NaN posterior.
        if not np.isfinite(images).all():
            raise ValueError("request holds non-finite values (NaN or inf)")
        return images

    async def predict(self, images: np.ndarray, *,
                      deadline_ms: Optional[float] = None
                      ) -> PosteriorSlice:
        """Answer one uncertainty query for a batch of images.

        The request rides the next fused micro-batch; the returned
        :class:`PosteriorSlice` covers exactly ``images``'s rows, in
        order.  ``deadline_ms`` overrides the service default budget
        for this request.

        Raises:
            BackpressureError: the service queue is full.
            OverloadShedError: admission control shed the request.
            DeadlineExceeded: the deadline expired while queued.
            ServiceStoppedError: the service stopped first.
            ValueError: the request shape does not match the
                deployment's input shape, or the request holds a
                non-finite value.
        """
        images = self._validate(images)
        probability = self._shed_probability()
        if probability > 0.0 and (
                float(self._admission_rng.random()) < probability):
            self.shed_load += 1
            raise OverloadShedError(
                f"admission control shed this request "
                f"(shed probability {probability:.2f}: queue "
                f"{self._batcher.queue_depth_rows}/"
                f"{self._batcher.max_queue_rows} rows)")
        if deadline_ms is None:
            deadline_ms = self.deadline_ms
        deadline_s = None if deadline_ms is None else deadline_ms / 1e3
        loop = asyncio.get_running_loop()
        started = loop.time()
        prediction = await self._batcher.submit(images,
                                                deadline_s=deadline_s)
        self._latencies.append(loop.time() - started)
        return PosteriorSlice.from_prediction(prediction)

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The installed injector (chaos/test runs), or ``None``."""
        return self._injector

    @property
    def breaker(self) -> CircuitBreaker:
        """The circuit breaker over the replica pool."""
        return self._breaker

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Install the fault plan (if any), fork the pool, start drain."""
        if self._injector is not None:
            fault_runtime.install(self._injector)
        if self._pool is not None:
            self._pool.start()
        await self._batcher.start()

    async def stop(self, *, flush: bool = False) -> None:
        """Stop the drain task, resolve queued futures, reap the pool.

        By default still-queued requests are **shed** with
        :class:`~repro.serve.scheduler.ServiceStoppedError` (counted in
        ``shed_stopped``) — a stopping service answers fast and
        honestly instead of routing one last convoy through a possibly
        degraded predict path.  Pass ``flush=True`` for the old
        graceful drain (queued requests are served before shutdown).
        Either way every pending future resolves, and the pool is
        reaped only afterwards — a flush still routes fused batches
        through it.
        """
        await self._batcher.stop(flush=flush)
        if self._pool is not None:
            self._pool.stop()
        if (self._injector is not None
                and fault_runtime.active() is self._injector):
            fault_runtime.deactivate()

    async def __aenter__(self) -> "UncertaintyService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Operational counters since the service was created.

        ``coalesce_ratio`` is requests per fused batch (1.0 means no
        coalescing happened, higher is better amortization);
        ``latency_p50_ms``/``latency_p99_ms`` are percentiles over the
        last :data:`LATENCY_WINDOW` completed requests.  Every distinct
        way of shedding load has its own counter: ``rejected``
        (backpressure), ``rejected_stopped`` (submissions bounced after
        stop), ``shed_deadline`` (deadline budgets expired in queue),
        ``shed_stopped`` (queued requests failed by a non-flush stop),
        ``shed_load`` (admission control).  ``degraded`` is the honest
        fleet-health flag: ``True`` whenever the circuit breaker has
        taken the replica pool out of the serving path (``breaker``
        holds its state machine's counters, ``breaker_fallbacks`` the
        batches the inline path carried for it).  ``replicas`` is the
        pool's counter record (or ``None`` when serving inline),
        including per-replica health, queue depth and latency.  ``fault_injector`` reports the installed fault
        plan's progress (``None`` outside chaos runs).
        """
        batcher = self._batcher
        latencies = np.asarray(self._latencies, dtype=np.float64)
        return {
            "requests": batcher.requests,
            "rows": batcher.rows,
            "batches": batcher.batches,
            "coalesce_ratio": batcher.coalesce_ratio,
            "queue_depth_rows": batcher.queue_depth_rows,
            "rejected": batcher.rejected,
            "rejected_stopped": batcher.rejected_stopped,
            "shed_deadline": batcher.shed_deadline,
            "shed_stopped": batcher.shed_stopped,
            "shed_load": self.shed_load,
            "deadline_ms": self.deadline_ms,
            "degraded": (self._breaker.degraded
                         if self._pool is not None else False),
            "breaker": (self._breaker.stats()
                        if self._pool is not None else None),
            "breaker_fallbacks": self.breaker_fallbacks,
            "latency_p50_ms": (float(np.percentile(latencies, 50)) * 1e3
                               if latencies.size else 0.0),
            "latency_p99_ms": (float(np.percentile(latencies, 99)) * 1e3
                               if latencies.size else 0.0),
            "num_samples": self.num_samples,
            "backend": self.backend,
            "replicas": (self._pool.stats() if self._pool is not None
                         else None),
            "fault_injector": (
                {"fired": self._injector.fired,
                 "pending": self._injector.pending,
                 "events": list(self._injector.event_log())}
                if self._injector is not None else None),
        }


__all__ = ["AdmissionControl", "BACKENDS", "LATENCY_WINDOW",
           "PosteriorSlice", "UncertaintyService"]
