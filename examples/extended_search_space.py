#!/usr/bin/env python3
"""Future-work extensions: a fifth dropout design + sparsity support.

The paper's conclusion names two extension directions, both implemented
here:

1. *"incorporating additional dropout designs into our search space"* —
   Gaussian dropout (multiplicative noise) is registered as design
   ``G``, growing the LeNet space from 32 to 50 candidates, and the
   full four-phase flow runs on the extended space;
2. *"providing sparsity support for hardware design"* — the accelerator
   model accepts a structured weight-sparsity fraction; a sweep shows
   the latency/BRAM savings.

Usage::

    python examples/extended_search_space.py
"""

from repro.api import (
    ExperimentSpec,
    PipelineContext,
    SearchStage,
    SpecifyStage,
    TrainSpec,
    TrainStage,
)
from repro.dropout import GAUSSIAN_HW_PROFILE, GaussianDropout, registered_design
from repro.hw import AcceleratorConfig, estimate, trace_network
from repro.search import EvolutionConfig


def run_extended_search() -> None:
    print("=== Extension 1: Gaussian dropout joins the search space ===")
    with registered_design(GaussianDropout, hw_profile=GAUSSIAN_HW_PROFILE):
        ctx = PipelineContext(spec=ExperimentSpec(
            model="lenet_slim", dataset="mnist_like", image_size=16,
            dataset_size=700, seed=19, train=TrainSpec(epochs=18)))
        space = SpecifyStage().execute(ctx)
        print(f"extended space: {space}")
        TrainStage().execute(ctx)
        for aim in ("accuracy", "ape"):
            result = SearchStage().search_one(
                ctx, aim, evolution=EvolutionConfig(population_size=12,
                                                    generations=6))
            uses_g = "G" in result.best_config
            print(f"  {aim:>8} optimal: {result.best.config_string:<10} "
                  f"acc={result.best.report.accuracy_percent:5.1f}%  "
                  f"aPE={result.best.report.ape:5.3f}  "
                  f"{'(uses Gaussian)' if uses_g else ''}")


def run_sparsity_sweep() -> None:
    print("\n=== Extension 2: structured weight sparsity ===")
    from repro.models import build_model

    model = build_model("lenet", rng=0)
    netlist = trace_network(model, (1, 28, 28))
    print(f"{'sparsity':>9} {'latency(ms)':>12} {'BRAM tiles':>11}")
    for sparsity in (0.0, 0.25, 0.5, 0.75):
        perf = estimate(netlist, AcceleratorConfig(
            pe=8, weight_sparsity=sparsity))
        print(f"{sparsity:9.2f} {perf.latency_ms:12.3f} "
              f"{perf.resources.bram36:11d}")


def main() -> None:
    run_extended_search()
    run_sparsity_sweep()


if __name__ == "__main__":
    main()
