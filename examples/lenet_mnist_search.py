#!/usr/bin/env python3
"""LeNet/MNIST-like dropout search — the paper's Table-2 scenario.

Reproduces the Table-2 protocol at laptop scale: a LeNet with three
specified dropout slots (two conv slots with all four designs, one FC
slot with Bernoulli/Masksembles), searched under each of the four aims,
reporting the search cost and the resulting configurations.

Usage::

    python examples/lenet_mnist_search.py [--full]

``--full`` uses the paper-size LeNet on 28x28 inputs (slower).
"""

import argparse

from repro.api import (
    ExperimentSpec,
    PipelineContext,
    SearchStage,
    SpecifyStage,
    TrainSpec,
    TrainStage,
)
from repro.search import EvolutionConfig, get_aim


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-size LeNet on 28x28 inputs")
    args = parser.parse_args()

    if args.full:
        spec = ExperimentSpec(model="lenet", dataset="mnist_like",
                              dataset_size=1500, seed=11,
                              train=TrainSpec(epochs=25))
        evo = EvolutionConfig(population_size=12, generations=6)
    else:
        spec = ExperimentSpec(model="lenet_slim", dataset="mnist_like",
                              image_size=16, dataset_size=800, seed=11,
                              train=TrainSpec(epochs=20))
        evo = EvolutionConfig(population_size=10, generations=5)

    # The four phases run stage by stage over one in-memory context.
    ctx = PipelineContext(spec=spec)
    space = SpecifyStage().execute(ctx)
    print(f"Search space: {space}")
    print(f"  ({space.size} candidate sub-networks, hybrid + uniform)")

    log = TrainStage().execute(ctx)
    print(f"Supernet: {log.steps} SPOS steps in {log.wall_seconds:.1f}s\n")

    print(f"{'aim':<20} {'configuration':<12} {'search cost':<12} "
          f"{'evaluations':<12}")
    search = SearchStage()
    for aim in ("accuracy", "ece", "ape", "latency"):
        result = search.search_one(ctx, aim, evolution=evo)
        aim_name = get_aim(aim).name
        seconds = ctx.search_seconds[aim_name]
        print(f"{aim + ' optimal':<20} {result.best.config_string:<12} "
              f"{seconds:>8.2f}s    {result.num_evaluations:<12}")

    print("\nResultant configurations (codes: B=Bernoulli, R=Random, "
          "K=Block, M=Masksembles):")
    for aim_name, result in ctx.search_results.items():
        report = result.best.report
        print(f"  {aim_name:<18} {result.best.config_string:<10} "
              f"acc={report.accuracy_percent:5.1f}%  "
              f"ECE={report.ece_percent:5.2f}%  "
              f"aPE={report.ape:5.3f}  "
              f"lat={result.best.latency_ms:.3f} ms  "
              f"hybrid={'yes' if len(set(result.best_config)) > 1 else 'no'}")


if __name__ == "__main__":
    main()
