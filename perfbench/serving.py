"""The serving workloads: ``serve_fixed`` and ``serve_float_pool``.

Both serve one LeNet 28x28 deployment (the paper's hybrid ``B-K-M``
design, T = 3), built from the seeded spec with
:meth:`Deployment.from_spec` and saved to disk before anything is timed.
Load comes from this process, on one asyncio thread: clients are
coroutines, never threads or sockets.

* ``serve_fixed`` serves on the fixed-point backend, inline
  (``replicas=0``, service defaults).  The integer kernel is nearly all
  of the busy time, so a faster kernel shows here and no replica pool
  runs.  Its phases are an open loop (``low``: Poisson arrivals at
  60 req/s, below the batching knee) and a closed loop (``sat``).
* ``serve_float_pool`` serves on the float backend behind a two-replica
  pool, with the closed loop only.  The pool round trip dominates, so
  worker-substrate and IPC changes show here while the fixed kernel never
  runs.  Its open-loop latency was too noisy to gate.

The closed loop is 32 clients that each send one image and wait for the
reply, for a fixed number of requests.  Its latency is taken per window
of 200 consecutive replies.  The p50 is the mean of the windows'
medians, which moves in proportion as the host's speed shifts.  The tail
(the highest percentile with ten samples beyond it, p95) is the median
of the windows' tails: one slow batch moves one window, not the figure.
"""

from __future__ import annotations

import asyncio
import os
import selectors
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.hw.compile as hw_compile
from repro.api import ExperimentSpec
from repro.hw.compile import CompiledKernel
from repro.serve import (
    Deployment,
    PosteriorSlice,
    ReplicaPool,
    UncertaintyService,
)
from repro.serve.scheduler import MicroBatcher

from perfbench.catalog import Outcome
from perfbench.measure import (
    Interval,
    fifo_batches,
    interquartile_mean,
    median,
    overlap,
    poisson_offsets,
    tail,
    windowed_median,
    windowed_tail,
)
from perfbench.tracing import Span, Tracer, mean_ms

#: The deployed design: LeNet slots B (Bernoulli), K (block), M
#: (Masksembles), the paper's T = 3.
CONFIG = ("B", "K", "M")
IMAGE_SHAPE = (1, 28, 28)
MC_SAMPLES = 3

#: Closed-loop clients; each has one request in flight.
CLIENTS = 32
#: Open-loop arrival rate of the ``low`` phase (below the knee).
LOW_RATE = 60.0
#: Distinct seeded request images, cycled through by request id.
IMAGE_POOL = 256
#: Closed-loop requests served before timing starts.
WARMUP_REQUESTS = 256
#: Replies per window of the closed-loop p50 and tail.
WINDOW = 200
#: Row counts of the verification batch's requests (fused into one batch).
VERIFY_ROWS = (1, 3, 2, 4, 1, 5)

#: Shed counters of ``UncertaintyService.stats()``.
SHED_COUNTERS = ("rejected", "rejected_stopped", "shed_deadline",
                 "shed_stopped", "shed_load")


@dataclass(frozen=True)
class ServeWorkload:
    """One serving workload's shape.

    Attributes:
        backend / replicas: how the deployment is served.
        open_loop: whether a ``low`` open-loop phase runs first.
        setup_reps: cold set-ups per run (``setup_s`` is their
            interquartile mean); about half run before the phases and the
            rest after them.
        sat_requests: closed-loop requests per second of ``--seconds``;
            the phase takes about half to three quarters of the budget.
    """

    name: str
    backend: str
    replicas: int
    open_loop: bool
    setup_reps: int
    sat_requests: int


WORKLOADS = {
    "serve_fixed": ServeWorkload("serve_fixed", "fixed", 0, True,
                                 setup_reps=11, sat_requests=250),
    "serve_float_pool": ServeWorkload("serve_float_pool", "float", 2, False,
                                      setup_reps=25, sat_requests=500),
}


@dataclass
class Phase:
    """Timed requests of one phase: latencies, responses, failures."""

    name: str
    start: float = 0.0
    end: float = 0.0
    attempted: int = 0
    latencies: List[float] = field(default_factory=list)
    responses: List[PosteriorSlice] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Open loop only: how late the generator sent each request.
    lateness: List[float] = field(default_factory=list)

    @property
    def window(self) -> Interval:
        return (self.start, self.end)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def save_deployment(seed: int, workdir: str) -> str:
    """Build the seeded deployment and save it; returns its directory."""
    spec = ExperimentSpec(name="perfbench-serve", model="lenet",
                          dataset="mnist_like", image_size=IMAGE_SHAPE[1],
                          mc_samples=MC_SAMPLES, seed=seed)
    path = os.path.join(workdir, "deployment")
    Deployment.from_spec(spec, IMAGE_SHAPE, config=CONFIG).save(path)
    return path


def request_images(seed: int) -> np.ndarray:
    """The seeded pool of request images, ``(IMAGE_POOL, 1, 28, 28)``."""
    rng = np.random.default_rng([seed, 0x1AA6E])
    return rng.normal(size=(IMAGE_POOL,) + IMAGE_SHAPE).astype(np.float32)


def low_offsets(seed: int, seconds: int) -> np.ndarray:
    """The ``low`` phase's seeded Poisson send times (half the run budget)."""
    return poisson_offsets(seed, LOW_RATE,
                           max(1, round(LOW_RATE * seconds / 2)))


def run_loop(coro, selector: Optional[selectors.BaseSelector] = None):
    """Run ``coro`` on a fresh selector event loop and close it."""
    loop = asyncio.SelectorEventLoop(selector or selectors.DefaultSelector())
    try:
        return loop.run_until_complete(coro)
    finally:
        try:
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


async def _send(service: UncertaintyService, images: np.ndarray, rid: int,
                tracer: Optional[Tracer]) -> PosteriorSlice:
    if tracer is not None:
        tracer.request_id.set(rid)
    index = rid % len(images)
    return await service.predict(images[index:index + 1])


async def closed_loop(service: UncertaintyService, images: np.ndarray,
                      count: int, first_rid: int,
                      tracer: Optional[Tracer] = None,
                      name: str = "sat") -> Phase:
    """``CLIENTS`` clients share ``count`` requests, one in flight each."""
    phase = Phase(name, attempted=count)
    issued = 0

    async def client() -> None:
        nonlocal issued
        while issued < count:
            rid = first_rid + issued
            issued += 1
            sent = time.perf_counter()
            try:
                response = await _send(service, images, rid, tracer)
            except Exception as exc:  # a refused or failed request is counted, not fatal
                phase.failures.append(f"{type(exc).__name__}: {exc}")
                continue
            phase.latencies.append(time.perf_counter() - sent)
            phase.responses.append(response)

    phase.start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    phase.end = time.perf_counter()
    return phase


async def open_loop(service: UncertaintyService, images: np.ndarray,
                    offsets: Sequence[float], first_rid: int,
                    tracer: Optional[Tracer] = None) -> Phase:
    """Send one request at each offset, whatever the replies are doing.

    Latency runs from each request's due time, so a stall also charges
    the requests it delayed; the generator's own lateness is kept too.
    """
    phase = Phase("low", attempted=len(offsets))

    async def one(rid: int, due: float) -> None:
        try:
            response = await _send(service, images, rid, tracer)
        except Exception as exc:  # a refused or failed request is counted, not fatal
            phase.failures.append(f"{type(exc).__name__}: {exc}")
            return
        phase.latencies.append(time.perf_counter() - due)
        phase.responses.append(response)

    tasks = []
    phase.start = time.perf_counter() + 0.005
    for index, offset in enumerate(offsets):
        due = phase.start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.lateness.append(time.perf_counter() - due)
        tasks.append(asyncio.ensure_future(one(first_rid + index, due)))
    await asyncio.gather(*tasks)
    phase.end = time.perf_counter()
    return phase


async def verify(service: UncertaintyService,
                 images: np.ndarray) -> List[str]:
    """Byte-compare one fused batch of known composition with a direct call.

    The requests are submitted together, so they ride one fused batch;
    the reference is a freshly compiled kernel (fixed) or a freshly
    instantiated model (float) predicting the same fused rows.
    """
    requests, start = [], 0
    for rows in VERIFY_ROWS:
        requests.append(images[start:start + rows])
        start += rows
    before = service.stats()["batches"]
    responses = await asyncio.gather(*(service.predict(r) for r in requests),
                                     return_exceptions=True)
    problems = [f"verification request {index} failed: {response!r}"
                for index, response in enumerate(responses)
                if isinstance(response, Exception)]
    if problems:
        return problems
    if service.stats()["batches"] != before + 1:
        problems.append("verification requests did not ride one batch")
    fused = np.concatenate(requests)
    deployment = service.deployment
    if service.backend == "fixed":
        reference = hw_compile.compile_deployment(deployment).predict(
            fused, num_samples=service.num_samples)
    else:
        reference = deployment.predict(deployment.instantiate(), fused,
                                       num_samples=service.num_samples)
    offset = 0
    for index, (request, response) in enumerate(zip(requests, responses)):
        expected = PosteriorSlice.from_prediction(
            reference.row_slice(offset, offset + len(request)))
        offset += len(request)
        for name in ("mean_probs", "predictions", "predictive_entropy",
                     "mutual_information"):
            if getattr(response, name).tobytes() != \
                    getattr(expected, name).tobytes():
                problems.append(f"verification request {index}: {name} "
                                f"differs from the direct prediction")
    return problems


def check_responses(phase: Phase, classes: int) -> List[str]:
    """Every timed response has one row of ``classes`` finite values."""
    bad = 0
    for response in phase.responses:
        fields = (response.mean_probs, response.predictive_entropy,
                  response.mutual_information)
        if (len(response) != 1 or response.mean_probs.shape != (1, classes)
                or response.num_samples != MC_SAMPLES
                or not all(np.isfinite(f).all() for f in fields)):
            bad += 1
    return [f"{phase.name}: {bad} responses with a wrong shape or "
            f"non-finite values"] if bad else []


def install_probes(tracer: Tracer) -> None:
    """Wrap the serving stack's public calls (traced pass only)."""
    def rows(_self, images, *args, **kwargs):
        return int(len(images))

    tracer.wrap(Deployment, "load", "serve.deployment.load")
    tracer.wrap(hw_compile, "compile_deployment", "hw.compile.compile")
    tracer.wrap(CompiledKernel, "predict", "hw.compile.kernel_predict",
                rows=rows)
    tracer.wrap(ReplicaPool, "start", "serve.replicas.start")
    tracer.wrap(ReplicaPool, "predict", "serve.replicas.predict", rows=rows)
    tracer.wrap(Deployment, "predict_span", "serve.replicas.compute",
                rows=lambda _self, _model, images, **kw: int(len(images)))
    tracer.wrap(MicroBatcher, "submit", "serve.scheduler.submit", rows=rows)
    tracer.wrap(MicroBatcher, "_dispatch", "serve.scheduler.dispatch",
                rows=lambda _self, batch: sum(r.rows for r in batch))
    tracer.wrap(UncertaintyService, "predict", "serve.service.predict",
                rows=rows)
    tracer.wrap(UncertaintyService, "_predict_fused",
                "serve.service.predict_fused", rows=rows)
    tracer.wrap(PosteriorSlice, "from_prediction", "serve.service.respond")


@dataclass
class _Run:
    setups: List[float]
    #: The set-up of the service that served the phases.
    cold_start: float
    warmup: Phase
    low: Optional[Phase]
    sat: Phase
    stats_before_low: dict
    stats_before_sat: dict
    stats_after: dict
    problems: List[str]


async def _serve(workload: ServeWorkload, path: str, images: np.ndarray,
                 offsets: np.ndarray, seconds: int,
                 tracer: Optional[Tracer]) -> _Run:
    setups: List[float] = []

    async def set_up() -> UncertaintyService:
        start = time.perf_counter()
        service = UncertaintyService(Deployment.load(path),
                                     backend=workload.backend,
                                     replicas=workload.replicas)
        await service.start()
        await service.predict(images[:1])
        setups.append(time.perf_counter() - start)
        return service

    # Set-ups before and after the phases, so that they draw on more than
    # one stretch of the host's speed.
    before = workload.setup_reps // 2 + 1
    for _ in range(before - 1):
        await (await set_up()).stop()
    service = await set_up()
    try:
        warmup = await closed_loop(service, images, WARMUP_REQUESTS, 0,
                                   name="warmup")
        rid = WARMUP_REQUESTS
        stats_before_low = service.stats()
        low = None
        if workload.open_loop:
            low = await open_loop(service, images, offsets, rid, tracer)
            rid += len(offsets)
        stats_before_sat = service.stats()
        sat = await closed_loop(service, images,
                                workload.sat_requests * seconds, rid, tracer)
        stats_after = service.stats()
        problems = await verify(service, images)
    finally:
        await service.stop()
    for _ in range(workload.setup_reps - before):
        await (await set_up()).stop()
    if tracer is not None:
        if low is not None:
            tracer.mark("low", *low.window)
        tracer.mark("sat", *sat.window)
    return _Run(setups, setups[before - 1], warmup, low, sat,
                stats_before_low, stats_before_sat, stats_after, problems)


def _shed(before: dict, after: dict) -> int:
    return sum(after[key] - before[key] for key in SHED_COUNTERS)


def run(name: str, seed: int, seconds: int, workdir: str,
        tracer: Optional[Tracer] = None) -> Outcome:
    """One pass of serving workload ``name``; traced when ``tracer`` is set."""
    workload = WORKLOADS[name]
    path = save_deployment(seed, workdir)
    images, offsets = request_images(seed), low_offsets(seed, seconds)
    if tracer is not None:
        install_probes(tracer)
    try:
        result = run_loop(
            _serve(workload, path, images, offsets, seconds, tracer),
            tracer.selector() if tracer is not None else None)
    finally:
        if tracer is not None:
            tracer.restore()

    phases = ([result.low] if result.low else []) + [result.sat]
    problems = list(result.problems)
    answered = [p.responses[0] for p in phases if p.responses]
    if answered:
        classes = answered[0].mean_probs.shape[1]
        for phase in phases:
            problems.extend(check_responses(phase, classes))
    for phase in phases:
        problems.extend(f"{phase.name}: {failure}"
                        for failure in phase.failures[:3])
    shed = _shed(result.stats_before_low, result.stats_after)
    if shed:
        problems.append(f"{shed} requests were shed")

    sat = result.sat
    tail_s, first = windowed_tail(sat.latencies, WINDOW)
    closed = f"{len(sat.latencies)} closed-loop requests"
    outcome = Outcome(
        attempted=sum(p.attempted for p in phases),
        failed=sum(len(p.failures) for p in phases),
        problems=problems,
        metrics={
            "setup_s": interquartile_mean(result.setups),
            # Program-paced time only: the open loop's length is set by
            # its arrival schedule, so it is left out.
            "wall_s": (result.cold_start + result.warmup.seconds
                       + sat.seconds),
            "ops_per_s": len(sat.latencies) / sat.seconds,
            "p50_ms": windowed_median(sat.latencies, WINDOW) * 1e3,
            "tail_ms": tail_s * 1e3,
        },
        notes={
            "setup_s": f"interquartile mean of {len(result.setups)} cold "
                       f"set-ups",
            "wall_s": f"cold start, then {WARMUP_REQUESTS} warm-up and "
                      f"{len(sat.latencies)} closed-loop requests",
            "ops_per_s": f"throughput_rps: {closed}",
            "p50_ms": f"p50_ms.sat: median of each {first.samples}-reply "
                      f"window, mean over the windows",
            "tail_ms": f"tail_ms.sat: p{first.percentile:g} of each "
                       f"{first.samples}-reply window, median over the "
                       f"windows",
        })
    if result.low is not None and result.low.latencies:
        low = result.low
        outcome.ungated["p50_ms.low"] = (
            median(low.latencies) * 1e3, "ms",
            f"{len(low.latencies)} open-loop requests at {LOW_RATE:g}/s")
        outcome.health["generator_lateness_ms"] = {
            "p50": median(low.lateness) * 1e3,
            "max": max(low.lateness) * 1e3}
    if tracer is not None:
        outcome.layers = layer_metrics(tracer, result)
    return outcome


# ----------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ----------------------------------------------------------------------
def _inside(spans: Sequence[Span], name: str, windows: Sequence[Interval],
            pid: int, workers: bool = False) -> List[Span]:
    """Spans called ``name`` that start inside one of ``windows``.

    Keeps process ``pid``'s spans, or with ``workers`` the spans of every
    other process.
    """
    return [span for span in spans
            if span.name == name and (span.pid != pid) == workers
            and any(lo <= span.start <= hi for lo, hi in windows)]


def queue_waits(spans: Sequence[Span], window: Interval,
                pid: int) -> List[float]:
    """Queue wait of every request admitted in ``window``, in seconds.

    Runs from the request's submit to the start of the fused predict that
    carried it.  Which batch carried which request is rebuilt from the
    batcher's FIFO order (submit call order) and the fused row counts.
    """
    submits = [s for s in _inside(spans, "serve.scheduler.submit", [window],
                                  pid) if not s.err]
    submits.sort(key=lambda s: s.sid[1])
    fused = _inside(spans, "serve.service.predict_fused", [window], pid)
    fused.sort(key=lambda s: s.sid[1])
    owners = fifo_batches([s.rows for s in submits], [s.rows for s in fused])
    return [fused[b].start - s.start for s, b in zip(submits, owners)]


def _loop_shares(tracer: Tracer, spans: Sequence[Span],
                 windows: Sequence[Interval], pid: int):
    """(busy share, traced coverage) of the event loop over ``windows``."""
    if not windows:
        return 0.0, 0.0
    total = sum(hi - lo for lo, hi in windows)
    idle = sum(overlap(tracer.idle, w) for w in windows)
    traced = sum(s.duration for name in ("serve.scheduler.dispatch",
                                         "serve.service.respond")
                 for s in _inside(spans, name, windows, pid))
    return 1.0 - idle / total, (idle + traced) / total


def _pool_delta(before: dict, after: dict) -> Dict[str, float]:
    pool_before, pool_after = before["replicas"], after["replicas"]
    if pool_after is None:
        return {"dispatches": 0, "redispatches": 0, "fallbacks": 0,
                "shard_ms": 0.0}
    shards = busy = 0.0
    for old, new in zip(pool_before["workers"], pool_after["workers"]):
        shards += new["shards"] - old["shards"]
        busy += (new["latency_mean_ms"] * new["shards"]
                 - old["latency_mean_ms"] * old["shards"])
    return {key: pool_after[key] - pool_before[key]
            for key in ("dispatches", "redispatches", "fallbacks")} | {
        "shard_ms": busy / shards if shards else 0.0}


def layer_metrics(tracer: Tracer, result: _Run) -> Dict[str, float]:
    """The serving layers' metrics; see ``README.md`` for each definition."""
    pid = tracer.root_pid
    spans = tracer.collect()
    sat = tracer.marks["sat"]
    waits = [w for window in sat for w in queue_waits(spans, window, pid)]
    fused = _inside(spans, "serve.service.predict_fused", sat, pid)
    kernel = _inside(spans, "hw.compile.kernel_predict", sat, pid)
    busy, coverage = _loop_shares(tracer, spans, sat, pid)
    low = tracer.marks.get("low", [])
    busy_low, coverage_low = _loop_shares(tracer, spans, low, pid)
    low_waits = [w for window in low for w in queue_waits(spans, window, pid)]
    pool = _pool_delta(result.stats_before_sat, result.stats_after)
    everywhere = [(float("-inf"), float("inf"))]
    return {
        "serve.deployment.load_ms": mean_ms(_inside(
            spans, "serve.deployment.load", everywhere, pid)),
        "serve.scheduler.queue_wait_ms.p50": median(waits) * 1e3,
        "serve.scheduler.queue_wait_ms.tail": tail(waits).value * 1e3,
        "serve.scheduler.queue_wait_ms.low_p50": (
            median(low_waits) * 1e3 if low_waits else 0.0),
        "serve.scheduler.rows_per_batch": float(np.mean([s.rows
                                                         for s in fused])),
        "serve.scheduler.batches": len(fused),
        "serve.scheduler.shed": _shed(result.stats_before_low,
                                      result.stats_after),
        "serve.service.respond_ms": mean_ms(_inside(
            spans, "serve.service.respond", sat, pid)),
        "serve.service.loop_busy_share": busy,
        "serve.service.loop_busy_share_low": busy_low,
        "serve.service.loop_coverage": min(
            [coverage] + ([coverage_low] if low else [])),
        "hw.compile.compile_ms": mean_ms(_inside(
            spans, "hw.compile.compile", everywhere, pid)),
        "hw.compile.kernel_predict_ms": mean_ms(kernel),
        "hw.compile.kernel_ms_per_row": (
            sum(s.duration for s in kernel) * 1e3
            / sum(s.rows for s in kernel) if kernel else 0.0),
        "serve.replicas.start_ms": mean_ms(_inside(
            spans, "serve.replicas.start", everywhere, pid)),
        "serve.replicas.predict_ms": mean_ms(_inside(
            spans, "serve.replicas.predict", sat, pid)),
        "serve.replicas.shard_ms": pool["shard_ms"],
        "serve.replicas.compute_ms": mean_ms(_inside(
            spans, "serve.replicas.compute", sat, pid, workers=True)),
        "serve.replicas.dispatches": pool["dispatches"],
        "serve.replicas.redispatches": pool["redispatches"],
        "serve.replicas.fallbacks": pool["fallbacks"],
    }
