#!/usr/bin/env python3
"""Phase-4 accelerator generation: emit a complete HLS project.

Searches a LeNet under the latency aim and emits the winning design as
an hls4ml-style HLS project (firmware templates for every layer
including the four dropout designs, testbench, build script, and the
analytic csynth report).

Usage::

    python examples/generate_accelerator.py [--outdir DIR] [--config B-K-M]
"""

import argparse
import os

from repro.api import (
    ExperimentSpec,
    PipelineContext,
    SearchStage,
    SpecifyStage,
    TrainSpec,
    TrainStage,
    build_design,
)
from repro.search import EvolutionConfig, config_from_string


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="generated_accelerator",
                        help="output directory for the HLS project")
    parser.add_argument("--config", default=None,
                        help="skip search and emit this configuration, "
                             "e.g. 'B-K-M'")
    args = parser.parse_args()

    ctx = PipelineContext(spec=ExperimentSpec(
        model="lenet_slim", dataset="mnist_like", image_size=16,
        dataset_size=600, seed=5, train=TrainSpec(epochs=12)))
    SpecifyStage().execute(ctx)

    if args.config is not None:
        config = config_from_string(args.config)
        ctx.space.validate(config)
        print(f"Emitting user-specified configuration "
              f"{'-'.join(config)}")
    else:
        TrainStage().execute(ctx)
        result = SearchStage().search_one(
            ctx, "latency",
            evolution=EvolutionConfig(population_size=8, generations=4))
        config = result.best_config
        print(f"Latency-optimal configuration: {'-'.join(config)}")

    design, project = build_design(ctx, config, outdir=args.outdir,
                                   project_name="lenet_accel")
    print(f"\nEmitted {len(project.files)} files under {args.outdir}/:")
    for rel in sorted(project.relative_files()):
        print(f"  {rel}")

    report_path = os.path.join(args.outdir, "reports", "csynth.rpt")
    print(f"\n--- {report_path} ---")
    with open(report_path) as handle:
        print(handle.read())


if __name__ == "__main__":
    main()
