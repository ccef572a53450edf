"""Ablation A3 — evolutionary search vs random search.

The paper adopts an evolutionary algorithm for the search phase
(Sec. 3.4).  This ablation gives random search the same evaluation
budget on the ResNet space (256 candidates) and compares best-aim-
so-far trajectories under the balanced aim.

Expected shape: the EA's final best matches or beats random search at
equal budget, and reaches its best with fewer evaluations.
"""

import numpy as np
import pytest

from repro.api.stages import ensure_evaluator
from repro.search import (
    CandidateEvaluator,
    EvolutionConfig,
    EvolutionarySearch,
    get_aim,
    random_search,
)

AIM = get_aim("balanced")
BUDGET_CONFIG = EvolutionConfig(population_size=12, generations=5)


SEEDS = (11, 12, 13)


@pytest.fixture(scope="module")
def trajectories(resnet_ctx):
    """Multi-seed EA and random-search runs at matched budgets.

    Evaluations are memoized across runs, so repeated seeds only pay
    for configurations never seen before.
    """
    evaluator = ensure_evaluator(resnet_ctx, True)

    ea_results = []
    rs_results = []
    for seed in SEEDS:
        ea = EvolutionarySearch(evaluator, AIM, config=BUDGET_CONFIG,
                                rng=seed)
        result = ea.run()
        ea_results.append(result)
        budget = (BUDGET_CONFIG.population_size
                  + BUDGET_CONFIG.generations
                  * BUDGET_CONFIG.population_size // 2)
        rs_results.append(random_search(
            evaluator, AIM, num_evaluations=budget, rng=seed + 100))
    return ea_results, rs_results


def test_ablation_ea_beats_random(trajectories, emit_table, benchmark):
    ea_results, rs_results = trajectories
    benchmark.pedantic(lambda: ea_results[0].best_score, rounds=1,
                       iterations=1)

    rows = []
    for seed, (ea, rs) in enumerate(zip(ea_results, rs_results)):
        rows.append([f"seed {SEEDS[seed]}", "EA",
                     ea.best.config_string, f"{ea.best_score:.4f}"])
        rows.append([f"seed {SEEDS[seed]}", "Random",
                     rs.best.config_string, f"{rs.best_score:.4f}"])
    ea_mean = float(np.mean([r.best_score for r in ea_results]))
    rs_mean = float(np.mean([r.best_score for r in rs_results]))
    rows.append(["mean", "EA", "-", f"{ea_mean:.4f}"])
    rows.append(["mean", "Random", "-", f"{rs_mean:.4f}"])
    emit_table(
        "ablation_ea", "Ablation A3 — EA vs random search "
        "(balanced aim, ResNet space, matched budgets)",
        ["Run", "Search", "Best config", "Best aim score"],
        rows)

    # Averaged over seeds the EA matches or beats random search.
    assert ea_mean >= rs_mean - 5e-3


def test_ablation_ea_trajectory_monotone(trajectories, emit_table,
                                         benchmark):
    """Best-so-far curves for both searches (the figure's series)."""
    ea_results, rs_results = trajectories
    ea_result, rs_result = ea_results[0], rs_results[0]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = []
    ea_best = -np.inf
    for h in ea_result.history:
        ea_best = max(ea_best, h.best_score)
        rows.append(["EA", str(h.evaluations_so_far), f"{ea_best:.4f}"])
    for h in rs_result.history[:: max(1, len(rs_result.history) // 10)]:
        rows.append(["Random", str(h.evaluations_so_far),
                     f"{h.best_score:.4f}"])
    emit_table(
        "ablation_ea_curve", "Ablation A3 — best-aim-so-far vs "
        "evaluations (first seed)",
        ["Search", "Evaluations", "Best so far"], rows)

    ea_curve = [h.best_score for h in ea_result.history]
    running = np.maximum.accumulate(ea_curve)
    assert running[-1] >= running[0]
