#!/usr/bin/env python3
"""Quickstart: the full four-phase dropout search flow in one minute.

Runs the paper's pipeline at CI scale — a slim LeNet on a synthetic
MNIST-like task — through the declarative ``repro.api`` experiment
layer, prints the searched configuration per aim plus the csynth-style
report of the accuracy-optimal accelerator, then deploys the winner:
the trained model is exported as a serving ``Deployment`` and a swarm
of concurrent requests is answered through the async micro-batching
``UncertaintyService``.  Finally the deployment is compiled down to
the executable fixed-point kernel — the quantized integer twin of the
FPGA datapath — and its measured float-vs-fixed fidelity is printed.

Usage::

    python examples/quickstart.py
"""

import asyncio
import tempfile

import numpy as np

from repro.api import (
    ArtifactStore,
    EvolutionSpec,
    ExperimentSpec,
    GenerateSpec,
    Runner,
    SearchSpec,
    SpecifyStage,
    TrainSpec,
)
from repro.analysis import load_certificate
from repro.hw.compile import compile_and_report
from repro.search.space import config_to_string
from repro.serve import Deployment, UncertaintyService


async def serve_round_trip(deployment: Deployment) -> None:
    """Answer a few concurrent uncertainty queries over the deployment."""
    rng = np.random.default_rng(0)
    requests = [
        rng.normal(size=(1,) + deployment.input_shape).astype(np.float32)
        for _ in range(6)
    ]
    # Concurrent predict() calls coalesce into fused MC-dropout passes;
    # each caller gets exactly its rows of the fused posterior, and
    # every response is bit-identical to a direct mc_predict call.
    async with UncertaintyService(deployment,
                                  max_batch_rows=6) as service:
        posteriors = await asyncio.gather(
            *(service.predict(images) for images in requests))
    for index, posterior in enumerate(posteriors):
        print(f"Phase 5  request {index}: "
              f"class={int(posterior.predictions[0])}  "
              f"entropy={float(posterior.predictive_entropy[0]):.3f}  "
              f"MI={float(posterior.mutual_information[0]):.3f}")
    stats = service.stats()
    print(f"Phase 5  {stats['requests']} requests in "
          f"{stats['batches']} fused batch(es), coalesce ratio "
          f"{stats['coalesce_ratio']:.1f}")


async def fixed_backend_round_trip(deployment: Deployment,
                                   kernel) -> None:
    """One request through the fixed-point serving backend."""
    rng = np.random.default_rng(1)
    images = rng.normal(
        size=(2,) + deployment.input_shape).astype(np.float32)
    async with UncertaintyService(deployment, backend="fixed",
                                  kernel=kernel) as service:
        posterior = await service.predict(images)
    print(f"Phase 6  fixed-backend request: "
          f"class={int(posterior.predictions[0])}  "
          f"entropy={float(posterior.predictive_entropy[0]):.3f}  "
          f"MI={float(posterior.mutual_information[0]):.3f}")


def main() -> None:
    spec = ExperimentSpec(
        name="quickstart",
        model="lenet_slim",
        dataset="mnist_like",
        image_size=16,
        dataset_size=800,
        seed=7,
        # Evaluation worker processes.  num_workers=4 shards each EA
        # generation's cache misses across forked workers — bit-identical
        # to the serial path, so this only changes speed, never results.
        # Left at 1 here so the example behaves the same on single-core
        # machines.
        num_workers=1,
        # Supernet training.  When a store is attached, every completed
        # epoch is checkpointed (train_checkpoint.npz), so a killed run
        # resumes mid-training without re-paying finished epochs.
        train=TrainSpec(epochs=20),
        search=SearchSpec(
            aims=("accuracy", "ece", "ape", "latency"),
            evolution=EvolutionSpec(population_size=10, generations=5)),
        generate=GenerateSpec(aim="accuracy"),
    )
    runner = Runner(spec)  # in-memory; pass store_root="runs" to persist

    # Phase 1 — Specification: network, datasets, dropout slots.
    space = SpecifyStage().execute(runner.ctx)
    print(f"Phase 1  search space: {space}")

    # Phases 2-4 — training, per-aim search, accelerator generation.
    result = runner.run()
    log = result.train_log
    print(f"Phase 2  supernet trained in {log.wall_seconds:.1f}s "
          f"(final loss {log.epoch_losses[-1]:.3f})")

    # The cost columns split cache-served work from fresh computation:
    # "evals" are cache misses (actual forward passes), "cached" the
    # requests answered by the memo/disk caches — on a warm store the
    # misses drop to zero while the results stay bit-identical.
    for row in result.summary():
        print(f"Phase 3  {row['aim']:>16}: {row['config']:<8} "
              f"acc={row['accuracy_pct']:5.1f}%  "
              f"ECE={row['ece_pct']:5.2f}%  "
              f"aPE={row['ape_nats']:5.3f} nats  "
              f"lat={row['latency_ms']:6.3f} ms  "
              f"evals={row['cache_misses']}+{row['cache_hits']}cached")

    winner = result.best("accuracy").best_config
    design = result.designs[config_to_string(winner)]
    print("\nPhase 4  synthesis report")
    print(design.report.render())

    # Phase 5 — deployment: export the winner for serving and answer
    # concurrent requests through the micro-batching service.  (A real
    # deployment would persist next to the run artifacts; quickstart
    # round-trips through a temp directory to show save/load.)
    with tempfile.TemporaryDirectory() as deploy_dir:
        runner.export_deployment(deploy_dir, aim="accuracy")
        deployment = Deployment.load(deploy_dir)
        print(f"\nPhase 5  deployment exported "
              f"(config {config_to_string(deployment.config)}, "
              f"T={deployment.spec.mc_samples})")
        asyncio.run(serve_round_trip(deployment))

        # Phase 6 — fixed-point compile: lower the deployment to the
        # quantized integer kernel (every multiply-accumulate in int64
        # with saturation and round-to-nearest-even, exactly like the
        # generated FPGA datapath), measure float-vs-fixed fidelity on
        # the experiment's own validation split, and serve one request
        # through the fixed backend.  `repro compile --deployment DIR`
        # is the CLI spelling of the same step.  Every compile also
        # persists an OverflowCertificate: a static proof (worst-case
        # interval analysis over the netlist, for *any* representable
        # input — not just the calibration rows) that the int64
        # accumulators can never wrap.  `repro verify-kernel` re-checks
        # it from the artifact bytes alone.
        store = ArtifactStore(deploy_dir)
        kernel, report = compile_and_report(
            deployment, store, fidelity_rows=60)
        certificate = load_certificate(store)
        print(f"\nPhase 6  compiled {len(kernel.plans)} layers "
              f"to fixed point")
        print(f"Phase 6  overflow certificate: {certificate.verdict} "
              f"(min int64 headroom "
              f"{certificate.min_headroom_bits} bits)")
        print(report.render())
        asyncio.run(fixed_backend_round_trip(deployment, kernel))


if __name__ == "__main__":
    main()
