"""Figure 4 — searched configurations land on the Pareto frontier.

Paper protocol: iterate through and evaluate *all* configurations on
the validation set, plot every point in (ECE, aPE, Accuracy) space,
highlight the uniform baselines, and overlay the searched results —
"all the searched results lie on the reference Pareto frontier".

Expected reproduction shape:

* every single-metric searched optimum is non-dominated under
  (ECE min, aPE max, Accuracy max);
* the per-aim searched score equals the exhaustive optimum of that aim
  (the space is small enough for exact verification).
"""

import pytest

from benchmarks.conftest import EVOLUTION
from repro.api import SearchStage
from repro.api.stages import ensure_evaluator
from repro.search import (
    best_by_aim,
    evaluate_all,
    get_aim,
    is_on_front,
    metric_matrix,
    pareto_mask,
    pareto_results,
)

METRICS = ("ece", "ape", "accuracy")
DIRECTIONS = ("min", "max", "max")


@pytest.fixture(scope="module")
def sweep(lenet_ctx):
    """Exhaustive evaluation of the whole LeNet space (32 configs)."""
    ctx = lenet_ctx
    evaluator = ensure_evaluator(ctx, True)
    results = evaluate_all(evaluator)
    return ctx, evaluator, results


def test_figure4_scatter_and_frontier(sweep, emit_table, benchmark):
    ctx, evaluator, results = sweep

    points = metric_matrix(results, METRICS)
    benchmark.pedantic(lambda: pareto_mask(points, DIRECTIONS),
                       rounds=10, iterations=10)

    front = pareto_results(results, METRICS)
    front_configs = {r.config for r in front}

    searched = {}
    for aim in ("accuracy", "ece", "ape"):
        searched[aim] = SearchStage().search_one(
            ctx, aim, evolution=EVOLUTION).best

    rows = []
    for r in results:
        tags = []
        if r.config in front_configs:
            tags.append("front")
        if len(set(r.config)) == 1:
            tags.append(f"uniform-{r.config[0]}")
        for aim, best in searched.items():
            if best.config == r.config:
                tags.append(f"searched-{aim}")
        rows.append([
            r.config_string,
            f"{r.report.ece_percent:.2f}",
            f"{r.report.ape:.3f}",
            f"{r.report.accuracy_percent:.2f}",
            ",".join(tags) or "-",
        ])
    emit_table(
        "figure4", "Figure 4 — exhaustive (ECE, aPE, Accuracy) sweep "
        f"with Pareto frontier ({len(front)}/{len(results)} on front)",
        ["Config", "ECE(%)", "aPE(nats)", "Acc(%)", "Tags"],
        rows)

    # --- paper's headline claim ---------------------------------------
    # Each searched result achieves the exhaustive optimum of its aim.
    # Metric ties (accuracy saturates on the easy MNIST-like task) mean
    # the returned tie-winner may be weakly dominated, so frontier
    # membership is asserted for the searched score's tie class.
    for aim in ("accuracy", "ece", "ape"):
        aim_obj = get_aim(aim)
        exhaustive = best_by_aim(results, aim_obj).aim_score(aim_obj)
        assert searched[aim].aim_score(aim_obj) == pytest.approx(
            exhaustive, abs=1e-9), aim
        tied = [r for r in results
                if r.aim_score(aim_obj) == pytest.approx(exhaustive,
                                                         abs=1e-9)]
        assert any(
            is_on_front([r.report.ece, r.report.ape, r.report.accuracy],
                        points, list(DIRECTIONS))
            for r in tied), f"{aim} optimum tie class off the frontier"


def test_figure4_uniform_baselines_reported(sweep, emit_table, benchmark):
    """The four uniform baselines of the figure's legend."""
    ctx, evaluator, results = sweep
    benchmark.pedantic(
        lambda: evaluator.evaluate(("B", "B", "B")), rounds=5,
        iterations=1)

    rows = []
    front = {r.config for r in pareto_results(results, METRICS)}
    for config in ctx.space.uniform_configs():
        r = evaluator.evaluate(config)
        rows.append([
            f"All {config[0]}",
            f"{r.report.ece_percent:.2f}",
            f"{r.report.ape:.3f}",
            f"{r.report.accuracy_percent:.2f}",
            "front" if r.config in front else "dominated",
        ])
    emit_table(
        "figure4_uniform", "Figure 4 legend — uniform baselines",
        ["Baseline", "ECE(%)", "aPE(nats)", "Acc(%)", "Status"], rows)
    assert rows  # at least the B/M uniforms exist in the LeNet space


def test_figure4_hybrid_dominates_somewhere(sweep, benchmark):
    """Hybrid configs dominate at least one uniform baseline (Sec 4.1)."""
    _, _, results = sweep
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    front = pareto_results(results, METRICS)
    hybrid_on_front = [r for r in front if len(set(r.config)) > 1]
    assert hybrid_on_front, "no hybrid configuration on the frontier"
