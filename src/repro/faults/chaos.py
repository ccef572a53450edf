"""Chaos soak: replay a fault plan against a live serving stack.

The executable form of the resilience contract.  :func:`run_soak`
stands up a real :class:`~repro.serve.service.UncertaintyService`
(replica pool and all), installs a deterministic
:class:`~repro.faults.plan.FaultPlan`, pushes a seeded request load
through it, and checks the invariants that define "graceful" under
fault injection:

* **No dropped, duplicated or reordered futures.**  Every submitted
  request resolves — with a response or a distinct shed error — and
  every response covers exactly its own request's rows.
* **Byte-identity whenever a response is produced.**  A response under
  faults equals, byte for byte, the fault-free serving result for the
  same rows.  Degradation changes *whether* and *when* you get an
  answer, never *what* the answer is.
* **Honest accounting.**  Every shed has a distinct counter in
  ``stats()``, and the observed outcome tally matches the counters
  exactly — nothing fails silently.
* **Determinism.**  The injector's fired-event log is a pure function
  of the plan; ``repro chaos --repeat`` replays the soak and demands
  identical logs.

The soak fixes ``max_batch_rows == rows`` with uniform request sizes,
so every fused batch is exactly one request and per-request fault-free
references stay valid under arbitrary concurrency.

Layering: this module imports :mod:`repro.serve` and therefore is
**not** re-exported from ``repro.faults`` — import it directly
(``from repro.faults import chaos``), as the CLI does.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.serve.scheduler import (
    BackpressureError,
    DeadlineExceeded,
    OverloadShedError,
    ServiceStoppedError,
)
from repro.serve.service import UncertaintyService
from repro.utils.rng import derive_seed, new_rng
from repro.utils.validation import check_positive_int

#: Arrays a byte-identity check compares between two posterior slices.
_FIELDS = ("mean_probs", "predictions", "predictive_entropy",
           "mutual_information")


def _identical(response, reference) -> bool:
    """True when two posterior slices are byte-identical."""
    for name in _FIELDS:
        ours = getattr(response, name)
        theirs = getattr(reference, name)
        if (ours.shape != theirs.shape or ours.dtype != theirs.dtype
                or ours.tobytes() != theirs.tobytes()):
            return False
    return True


def make_requests(deployment, *, requests: int, rows: int,
                  seed: int = 0) -> List[np.ndarray]:
    """Seeded uniform-size request batches for one soak run."""
    rng = new_rng(derive_seed(seed, zlib.crc32(b"chaos-requests")))
    shape = (rows,) + deployment.input_shape
    return [rng.normal(size=shape).astype(np.float32)
            for _ in range(requests)]


@dataclass
class ChaosReport:
    """Outcome of one chaos soak run.

    ``violations`` lists every broken invariant in plain words; an
    empty list (``ok``) is the pass criterion the CLI and CI gate on.
    """

    requests: int
    completed: int
    shed: Dict[str, int]
    dropped: int
    mismatched: int
    fired: int
    pending: int
    event_log: Tuple[Tuple[str, int, str, float], ...]
    stats: Dict[str, object]
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return _jsonable(dict(vars(self), ok=self.ok))


def _jsonable(value):
    """Round numpy scalars/arrays in a stats tree into JSON types."""
    if isinstance(value, dict):
        return {key: _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


async def _soak(deployment, plan: FaultPlan, *, requests: int, rows: int,
                replicas: int, backend: str, num_samples: Optional[int],
                deadline_ms: Optional[float], replica_timeout_s: float,
                timeout_s: float) -> ChaosReport:
    # Fault-free references first: one request per fused batch, served
    # inline with no injector, gives the byte-exact answer every
    # faulted response must reproduce.
    payloads = make_requests(deployment, requests=requests, rows=rows,
                             seed=plan.seed)
    kernel = None
    if backend == "fixed":
        # One kernel serves both services; each one's gate checks it.
        from repro.hw.compile import compile_deployment
        kernel = compile_deployment(deployment)
    reference_service = UncertaintyService(
        deployment, max_batch_rows=rows, max_wait_ms=1.0,
        max_queue_rows=max(rows, rows * requests),
        num_samples=num_samples, backend=backend, kernel=kernel)
    references = []
    async with reference_service:
        for payload in payloads:
            references.append(await reference_service.predict(payload))

    injector = plan.injector()
    service = UncertaintyService(
        deployment, max_batch_rows=rows, max_wait_ms=1.0,
        max_queue_rows=max(rows, rows * requests),
        num_samples=num_samples, backend=backend, kernel=kernel,
        replicas=replicas, replica_timeout_s=replica_timeout_s,
        deadline_ms=deadline_ms, fault_plan=injector)
    outcomes: List[object] = []
    async with service:
        try:
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(service.predict(payload) for payload in payloads),
                    return_exceptions=True),
                timeout=timeout_s)
        except asyncio.TimeoutError:
            outcomes = []
        stats = service.stats()

    shed: Dict[str, int] = {
        "backpressure": 0, "deadline": 0, "load": 0, "stopped": 0}
    completed = 0
    mismatched = 0
    unexpected: List[str] = []
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, DeadlineExceeded):
            shed["deadline"] += 1
        elif isinstance(outcome, OverloadShedError):
            shed["load"] += 1
        elif isinstance(outcome, ServiceStoppedError):
            shed["stopped"] += 1
        elif isinstance(outcome, BackpressureError):
            shed["backpressure"] += 1
        elif isinstance(outcome, BaseException):
            unexpected.append(
                f"request {index}: {type(outcome).__name__}: {outcome}")
        else:
            completed += 1
            if not _identical(outcome, references[index]):
                mismatched += 1

    violations: List[str] = []
    dropped = requests - len(outcomes)
    if dropped:
        violations.append(
            f"{dropped} request future(s) never resolved within "
            f"{timeout_s:.1f}s — dropped futures")
    for message in unexpected:
        violations.append(f"non-shed exception surfaced: {message}")
    if mismatched:
        violations.append(
            f"{mismatched} response(s) were not byte-identical to "
            f"fault-free serving")
    total_shed = sum(shed.values())  # repro: allow[unordered-float-sum] — int counters, order-free
    if outcomes and completed + total_shed + len(unexpected) != requests:
        violations.append("request outcomes do not tally")
    # Honest accounting: each observed shed class must match its
    # distinct stats counter exactly.
    counter_map = {
        "deadline": "shed_deadline",
        "load": "shed_load",
        "stopped": "shed_stopped",
        "backpressure": "rejected",
    }
    for kind, stat_key in counter_map.items():
        if shed[kind] != stats.get(stat_key):
            violations.append(
                f"stats()[{stat_key!r}] = {stats.get(stat_key)} but "
                f"{shed[kind]} {kind} shed(s) were observed")

    return ChaosReport(
        requests=requests,
        completed=completed,
        shed=shed,
        dropped=dropped,
        mismatched=mismatched,
        fired=injector.fired,
        pending=injector.pending,
        event_log=injector.event_log(),
        stats=stats,
        violations=violations,
    )


def run_soak(deployment, plan: FaultPlan, *, requests: int = 24,
             rows: int = 4, replicas: int = 2, backend: str = "float",
             num_samples: Optional[int] = None,
             deadline_ms: Optional[float] = None,
             replica_timeout_s: float = 2.0,
             timeout_s: float = 120.0) -> ChaosReport:
    """Replay ``plan`` against a live service and audit the invariants.

    Args:
        deployment: serving artifact under test.
        plan: the deterministic fault schedule to install.
        requests: concurrent uniform-size requests to push through.
        rows: rows per request — also the fused batch bound, so each
            fused batch is exactly one request (the byte-identity
            references stay valid under concurrency).
        replicas: worker processes behind the batcher; ``0`` exercises
            the inline path only (kill/wedge events become no-ops).
        backend: ``"float"`` or ``"fixed"``.
        num_samples: MC passes override (deployment default otherwise).
        deadline_ms: per-request deadline budget for the soak traffic.
        replica_timeout_s: shard round-trip bound — kept small so a
            wedged replica is declared dead and recovered promptly.
        timeout_s: hard wall bound on the whole request wave; futures
            unresolved past it count as *dropped* (an invariant
            violation, never a hang).

    Returns a :class:`ChaosReport`; ``report.ok`` is the gate.  A soak
    of no requests would pass it on nothing, so ``requests`` must be
    positive (``ValueError`` otherwise).
    """
    requests = check_positive_int(requests, "requests")
    return asyncio.run(_soak(
        deployment, plan, requests=requests, rows=int(rows),
        replicas=int(replicas), backend=backend, num_samples=num_samples,
        deadline_ms=deadline_ms, replica_timeout_s=float(replica_timeout_s),
        timeout_s=float(timeout_s)))


__all__ = ["ChaosReport", "make_requests", "run_soak"]
