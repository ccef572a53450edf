"""Serving throughput — coalesced micro-batching vs. 1-request-per-batch.

The serving claim of :mod:`repro.serve`: the fixed cost of a fused
``T``-sample MC-dropout pass (dispatch, GEMM setup, per-layer
overheads; mask plans are drawn once per batch shape) amortizes over
coalesced rows, so micro-batching concurrent requests
multiplies request throughput over serving each request in its own
batch.  This bench is the load generator: a swarm of concurrent
single-image requests is driven through :class:`UncertaintyService`
twice — once with ``max_batch_rows=1`` (one request per fused batch,
the no-coalescing baseline) and once with coalescing enabled — on the
LeNet workload at the paper's ``T = 3``, and emits a machine-readable
``BENCH_serve.json`` record (throughput req/s, coalesce ratio, latency
percentiles).

A second scenario (``test_serve_replica_sustained_slo``) drives
sustained waves of the swarm through a ``--bench-replicas N`` worker
pool (:class:`repro.serve.ReplicaPool`) behind the same batcher and
merges a ``replica_slo`` record (SLO attainment, latency percentiles,
pool counters, host ``cpu_count``, pooled-over-inline throughput) into
the same ``BENCH_serve.json``.  Both scenarios carry a ``host`` stamp:
the git sha, usable CPU count and BLAS build of
:func:`perfbench.host.envelope`, with the one BLAS thread the bench
conftest pins.

Assertions:

* serving is **bit-identical** to direct ``mc_predict`` calls in the
  1-per-batch scenario (the load path answers the same posteriors the
  equivalence suite pins);
* each scenario's throughput is the median of alternating repeats
  (:data:`REPEATS`), so one noisy repeat on a shared host cannot decide
  the gates below;
* coalesced serving beats 1-per-batch throughput (CI smoke gate);
* at full scale, coalesced reaches at least 2x — the PR's acceptance
  bar — with a coalesce ratio above 2 requests per fused batch;
* the replica SLO scenario gates on **correctness only** — pooled
  responses byte-equal inline responses, every request answered, no
  inline fallbacks.  Throughput is recorded, never asserted: CI hosts
  are single-core, so a pool there measures overhead, not speedup.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Dict, List

import numpy as np
import pytest

from repro.api import ExperimentSpec
from repro.serve import Deployment, ReplicaPool, UncertaintyService

#: Paper-style hybrid configuration on LeNet's three slots.
CONFIG = ("B", "K", "M")

#: Monte-Carlo passes — the paper's T and the acceptance gate's.
NUM_SAMPLES = 3

#: Alternating (1-per-batch, coalesced) repeats, by smoke flag.  At full
#: scale one repeat of both scenarios times 96 requests in roughly
#: 0.1-0.2 s, so eleven cover well over a second of work each.
REPEATS = {True: 3, False: 11}

@pytest.fixture(scope="module")
def workload(request):
    """LeNet deployment + request swarm + scenario parameters."""
    smoke = bool(request.config.getoption("--bench-smoke"))
    image_size = 16 if smoke else 28
    num_requests = 24 if smoke else 96
    batch_rows = 8 if smoke else 16
    spec = ExperimentSpec(
        name="bench-serve", model="lenet", dataset="mnist_like",
        image_size=image_size, mc_samples=NUM_SAMPLES, seed=1)
    deployment = Deployment.from_spec(
        spec, (1, image_size, image_size), config=CONFIG)
    rng = np.random.default_rng(0)
    requests = [
        rng.normal(size=(1, 1, image_size, image_size)).astype(np.float32)
        for _ in range(num_requests)
    ]
    return deployment, requests, batch_rows, smoke


def drive(deployment: Deployment, requests: List[np.ndarray], *,
          max_batch_rows: int, max_wait_ms: float = 2.0,
          replicas: int = 0, waves: int = 1) -> Dict[str, object]:
    """Serve ``waves`` swarms concurrently; measure wall throughput.

    Each wave is one ``asyncio.gather`` over the whole request list
    (awaited to completion before the next wave — sustained pressure
    through a single long-lived service).  Per-request latencies are
    collected for SLO accounting.
    """

    async def main():
        service = UncertaintyService(
            deployment, max_batch_rows=max_batch_rows,
            max_wait_ms=max_wait_ms,
            max_queue_rows=max(max_batch_rows, len(requests)),
            replicas=replicas)
        latencies: List[float] = []
        async with service:
            loop = asyncio.get_running_loop()

            async def timed(images):
                queued = loop.time()
                response = await service.predict(images)
                latencies.append(loop.time() - queued)
                return response

            responses = []
            for _ in range(waves):
                responses.extend(await asyncio.gather(
                    *(timed(images) for images in requests)))
        return responses, service.stats(), latencies

    started = time.perf_counter()
    responses, stats, latencies = asyncio.run(main())
    elapsed = time.perf_counter() - started
    return {
        "responses": responses,
        "stats": stats,
        "latencies_s": latencies,
        "elapsed_s": elapsed,
        "requests_per_s": len(requests) * waves / elapsed,
    }


def median_run(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """The run of median throughput (``runs`` has an odd length)."""
    return sorted(runs, key=lambda run: run["requests_per_s"])[len(runs) // 2]


def test_serve_throughput(workload, bench_json, emit_table, host_stamp):
    deployment, requests, batch_rows, smoke = workload

    # Warm-up: allocator, BLAS pools, mask-plan code paths.
    drive(deployment, requests[:4], max_batch_rows=1)

    # Alternating repeats, so host noise hits both scenarios alike; each
    # scenario is its median run, which one noisy repeat cannot move.
    runs: Dict[str, List[Dict[str, object]]] = {"sequential": [],
                                                 "coalesced": []}
    for _ in range(REPEATS[smoke]):
        runs["sequential"].append(drive(deployment, requests,
                                        max_batch_rows=1))
        runs["coalesced"].append(drive(deployment, requests,
                                       max_batch_rows=batch_rows))
    sequential = median_run(runs["sequential"])
    coalesced = median_run(runs["coalesced"])

    # Bit-identity spot check on the load path: 1-per-batch responses
    # equal direct per-request predictions under the reseed contract.
    model = deployment.instantiate()
    for images, response in list(zip(requests, sequential["responses"]))[:8]:
        reference = deployment.predict(model, images)
        assert np.array_equal(response.mean_probs, reference.mean_probs)
        assert np.array_equal(response.predictive_entropy,
                              reference.predictive_entropy())

    speedup = (coalesced["requests_per_s"]
               / sequential["requests_per_s"])
    payload = {
        "workload": {
            "model": "lenet",
            "config": "-".join(CONFIG),
            "image_size": int(requests[0].shape[-1]),
            "num_samples": NUM_SAMPLES,
            "num_requests": len(requests),
            "max_batch_rows": batch_rows,
            "repeats": REPEATS[smoke],
            "smoke": smoke,
            "host": host_stamp("bench_serve"),
        },
        "sequential": {
            "requests_per_s": sequential["requests_per_s"],
            "requests_per_s_runs": [run["requests_per_s"]
                                    for run in runs["sequential"]],
            "coalesce_ratio": sequential["stats"]["coalesce_ratio"],
            "batches": sequential["stats"]["batches"],
            "latency_p50_ms": sequential["stats"]["latency_p50_ms"],
            "latency_p99_ms": sequential["stats"]["latency_p99_ms"],
        },
        "coalesced": {
            "requests_per_s": coalesced["requests_per_s"],
            "requests_per_s_runs": [run["requests_per_s"]
                                    for run in runs["coalesced"]],
            "coalesce_ratio": coalesced["stats"]["coalesce_ratio"],
            "batches": coalesced["stats"]["batches"],
            "latency_p50_ms": coalesced["stats"]["latency_p50_ms"],
            "latency_p99_ms": coalesced["stats"]["latency_p99_ms"],
        },
        "throughput_speedup": speedup,
    }
    bench_json("serve", payload, merge=True)
    emit_table(
        "serve",
        "Uncertainty serving throughput — coalesced micro-batching vs. "
        "1-request-per-batch (LeNet, T={})".format(NUM_SAMPLES),
        ["Scenario", "req/s", "Batches", "Coalesce", "p50 ms", "p99 ms"],
        [
            ["1-per-batch",
             f"{sequential['requests_per_s']:.1f}",
             sequential["stats"]["batches"],
             f"{sequential['stats']['coalesce_ratio']:.2f}",
             f"{sequential['stats']['latency_p50_ms']:.1f}",
             f"{sequential['stats']['latency_p99_ms']:.1f}"],
            ["coalesced",
             f"{coalesced['requests_per_s']:.1f}",
             coalesced["stats"]["batches"],
             f"{coalesced['stats']['coalesce_ratio']:.2f}",
             f"{coalesced['stats']['latency_p50_ms']:.1f}",
             f"{coalesced['stats']['latency_p99_ms']:.1f}"],
            ["speedup", f"{speedup:.2f}x", "", "", "", ""],
        ])

    # The micro-batcher must actually coalesce under this swarm.
    assert coalesced["stats"]["coalesce_ratio"] > 2.0, (
        f"no real coalescing: {coalesced['stats']['coalesce_ratio']:.2f} "
        f"requests per batch")
    # CI gate: coalescing must never lose to 1-per-batch serving.
    assert speedup > 1.0, (
        f"coalesced slower than 1-per-batch: {speedup:.2f}x")
    if not smoke:
        # Acceptance bar: >= 2x at T=3 on the full-scale LeNet workload.
        assert speedup >= 2.0, (
            f"coalesced serving below the 2x bar: {speedup:.2f}x")


#: Sustained-load latency objective for the replica scenario.  The
#: attainment fraction is *recorded*, never gated — it is a capacity
#: statement about the host, not a correctness property.
SLO_MS = 250.0


def test_serve_replica_sustained_slo(workload, bench_json, emit_table,
                                     host_stamp, request):
    """Sustained load through a replica pool: correct first, fast where
    the host allows.

    Identical wave trains are driven through an inline service and a
    ``--bench-replicas N`` pooled service with a 50 ms admission window
    (long enough that each wave's gather swarm enqueues before the
    drain closes a batch, so both runs fuse identical batches and the
    byte-identity gate is exact).  The merged ``replica_slo`` record in
    ``BENCH_serve.json`` carries throughput, latency percentiles, SLO
    attainment and the pool's dispatch counters alongside the host's
    ``cpu_count`` — multi-core readers can judge scaling; the 1-core CI
    host only certifies correctness.
    """
    deployment, requests, batch_rows, smoke = workload
    if not ReplicaPool.available():
        pytest.skip("replica pool requires the fork start method")
    replicas = int(request.config.getoption("--bench-replicas")) or 2
    waves = 2 if smoke else 4

    inline = drive(deployment, requests, max_batch_rows=batch_rows,
                   max_wait_ms=50.0, waves=waves)
    pooled = drive(deployment, requests, max_batch_rows=batch_rows,
                   max_wait_ms=50.0, replicas=replicas, waves=waves)

    # Correctness gates — the only gates in this scenario.
    assert len(pooled["responses"]) == len(requests) * waves, (
        "pooled service dropped responses")
    for ours, reference in zip(pooled["responses"], inline["responses"]):
        assert ours.mean_probs.tobytes() \
            == reference.mean_probs.tobytes()
        assert ours.predictive_entropy.tobytes() \
            == reference.predictive_entropy.tobytes()
        assert ours.mutual_information.tobytes() \
            == reference.mutual_information.tobytes()
    pool_stats = pooled["stats"]["replicas"]
    assert pool_stats["dispatches"] > 0, "pool never served a shard"
    assert pool_stats["fallbacks"] == 0, "pool fell back inline"

    latencies_ms = np.asarray(pooled["latencies_s"]) * 1e3
    attainment = float(np.mean(latencies_ms <= SLO_MS))
    payload = {
        "replica_slo": {
            "cpu_count": os.cpu_count(),
            "replicas": replicas,
            "axis": pool_stats["axis"],
            "waves": waves,
            "num_requests": len(requests) * waves,
            "max_batch_rows": batch_rows,
            "smoke": smoke,
            "slo_ms": SLO_MS,
            "slo_attainment": attainment,
            "requests_per_s": pooled["requests_per_s"],
            "inline_requests_per_s": inline["requests_per_s"],
            # Recorded, never gated: a capacity statement about the host.
            "pooled_over_inline": (pooled["requests_per_s"]
                                   / inline["requests_per_s"]),
            "host": host_stamp("bench_serve"),
            "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
            "latency_p99_ms": float(np.percentile(latencies_ms, 99)),
            "pool": {
                "shared_bytes": pool_stats["shared_bytes"],
                "batches": pool_stats["batches"],
                "dispatches": pool_stats["dispatches"],
                "redispatches": pool_stats["redispatches"],
                "fallbacks": pool_stats["fallbacks"],
            },
        },
    }
    bench_json("serve", payload, merge=True)
    emit_table(
        "serve_replica_slo",
        "Sustained-load serving through {} replicas (cpu_count={}, "
        "SLO={}ms)".format(replicas, os.cpu_count(), SLO_MS),
        ["Scenario", "req/s", "p50 ms", "p99 ms", "SLO att."],
        [
            ["inline",
             f"{inline['requests_per_s']:.1f}",
             f"{float(np.percentile(np.asarray(inline['latencies_s']) * 1e3, 50)):.1f}",
             f"{float(np.percentile(np.asarray(inline['latencies_s']) * 1e3, 99)):.1f}",
             ""],
            [f"{replicas} replicas",
             f"{pooled['requests_per_s']:.1f}",
             f"{float(np.percentile(latencies_ms, 50)):.1f}",
             f"{float(np.percentile(latencies_ms, 99)):.1f}",
             f"{attainment:.3f}"],
        ])
