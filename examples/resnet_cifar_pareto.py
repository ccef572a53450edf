#!/usr/bin/env python3
"""ResNet/CIFAR-like Pareto study — the paper's Figure-4 scenario.

Exhaustively evaluates every dropout configuration of a (slim) ResNet18
on a synthetic CIFAR-like task, extracts the (ECE, aPE, Accuracy)
Pareto frontier, runs the evolutionary search under several aims, and
verifies every searched configuration lands on the reference frontier —
the paper's headline search-effectiveness claim.

Usage::

    python examples/resnet_cifar_pareto.py
"""

from repro.api import (
    ExperimentSpec,
    PipelineContext,
    SearchStage,
    SpecifyStage,
    TrainSpec,
    TrainStage,
)
from repro.api.stages import ensure_evaluator
from repro.search import (
    EvolutionConfig,
    evaluate_all,
    is_on_front,
    metric_matrix,
    pareto_results,
)


def ascii_scatter(points, width: int = 56, height: int = 18) -> str:
    """Render (x, y) points as a crude ASCII scatter plot."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(ys), max(ys) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, char in points:
        cx = int((x - x0) / max(x1 - x0, 1e-9) * (width - 1))
        cy = int((y - y0) / max(y1 - y0, 1e-9) * (height - 1))
        grid[height - 1 - cy][cx] = char
    lines = ["".join(row) for row in grid]
    lines.append(f"x: ECE in [{x0:.3f}, {x1:.3f}]   "
                 f"y: aPE in [{y0:.3f}, {y1:.3f}]")
    return "\n".join(lines)


def main() -> None:
    ctx = PipelineContext(spec=ExperimentSpec(
        model="resnet18_slim", dataset="cifar_like", image_size=16,
        dataset_size=700, seed=3, train=TrainSpec(epochs=10)))
    space = SpecifyStage().execute(ctx)
    print(f"Search space: {space}")
    TrainStage().execute(ctx)

    evaluator = ensure_evaluator(ctx, True)
    print(f"Exhaustively evaluating all {space.size} configurations ...")
    results = evaluate_all(evaluator)

    metrics = ("ece", "ape", "accuracy")
    front = pareto_results(results, metrics)
    front_configs = {r.config for r in front}
    print(f"Pareto frontier holds {len(front)} / {len(results)} "
          f"configurations under (ECE, aPE, Accuracy)")

    # Evolutionary searches with uncertainty-oriented aims.  The budget
    # covers roughly half the space; the memoizing evaluator makes the
    # incremental cost of extra generations small.
    evo = EvolutionConfig(population_size=16, generations=8)
    searched = []
    for aim in ("accuracy", "ece", "ape"):
        result = SearchStage().search_one(ctx, aim, evolution=evo)
        searched.append((aim, result.best))
        on_front = is_on_front(
            [result.best.report.ece, result.best.report.ape,
             result.best.report.accuracy],
            metric_matrix(results, metrics), ["min", "max", "max"])
        print(f"  {aim:>8} optimal {result.best.config_string:<10} "
              f"on frontier: {on_front}")

    # ASCII rendition of Figure 4 (ECE vs aPE; * = searched).
    points = [(r.report.ece, r.report.ape, ".") for r in results]
    points += [(r.report.ece, r.report.ape, "#") for r in front]
    points += [(b.report.ece, b.report.ape, "*") for _, b in searched]
    print("\nFigure-4 style scatter ('.' all, '#' frontier, "
          "'*' searched):")
    print(ascii_scatter(points))

    print("\nUniform baselines for reference:")
    for cfg in space.uniform_configs():
        r = evaluator.evaluate(cfg)
        tag = "on frontier" if r.config in front_configs else "dominated"
        print(f"  All {r.config[0]}: acc={r.report.accuracy_percent:5.1f}% "
              f"ECE={r.report.ece_percent:5.2f}% aPE={r.report.ape:5.3f} "
              f"({tag})")


if __name__ == "__main__":
    main()
