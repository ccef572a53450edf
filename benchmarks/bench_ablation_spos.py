"""Ablation A1 — SPOS supernet fidelity.

The one-shot paradigm evaluates every candidate with *shared* weights.
Its usefulness rests on rank fidelity: candidates that score higher
under the supernet should tend to score higher when trained
stand-alone.  This ablation trains a sample of configurations from
scratch and reports the Spearman rank correlation of supernet-evaluated
vs stand-alone accuracy, plus the two evaluation costs — the paper's
O(prod M_i) -> O(1) training-cost argument in numbers.
"""

import numpy as np
import pytest
from scipy import stats

from benchmarks.conftest import trained_context
from repro.api.stages import ensure_evaluator
from repro.bayes import evaluate_bayesnn
from repro.dropout import make_dropout
from repro.models import build_model, collect_slots
from repro.search import TrainConfig, train_standalone
from repro.utils.timers import Timer

#: Configurations sampled for stand-alone retraining.
SAMPLED_CONFIGS = [
    ("B", "B", "B"),
    ("M", "M", "M"),
    ("B", "K", "M"),
    ("R", "R", "B"),
    ("K", "M", "B"),
    ("M", "R", "M"),
]


@pytest.fixture(scope="module")
def fidelity():
    """Supernet scores vs stand-alone scores for the sampled configs.

    Runs on a deliberately *hard* setting (slim model, 16x16 images,
    small training set) so accuracies spread out instead of saturating
    — rank correlation is meaningless when every config scores ~100%.
    """
    # Full-width LeNet: slot masks act on 6/16 channels, so channel
    # dropout is survivable in stand-alone training (on very slim
    # models, dropping 1 of 3 channels is catastrophic stand-alone but
    # harmless under co-adapted supernet weights, which destroys the
    # rank comparison this ablation is about).
    ctx = trained_context("lenet", "mnist_like", seed=41, epochs=20,
                          dataset_size=500, ood_size=100)
    splits = ctx.splits
    ood = ctx.ood

    supernet_scores = []
    with Timer() as supernet_timer:
        evaluator = ensure_evaluator(ctx, True)
        for config in SAMPLED_CONFIGS:
            result = evaluator.evaluate(config)
            supernet_scores.append(result.report.accuracy)

    standalone_scores = []
    with Timer() as standalone_timer:
        for i, config in enumerate(SAMPLED_CONFIGS):
            per_seed = []
            for seed in (0, 1):
                model = build_model("lenet", image_size=16,
                                    rng=50 + 10 * i + seed)
                for slot, code in zip(collect_slots(model), config):
                    slot.set_design(make_dropout(
                        code, p=0.15, scale=1.7,
                        rng=60 + 10 * i + seed))
                train_standalone(model, splits.train,
                                 TrainConfig(epochs=15),
                                 rng=70 + 10 * i + seed)
                report = evaluate_bayesnn(model, splits.val, ood,
                                          num_samples=3)
                per_seed.append(report.accuracy)
            standalone_scores.append(float(np.mean(per_seed)))

    return (np.array(supernet_scores), np.array(standalone_scores),
            supernet_timer.elapsed, standalone_timer.elapsed)


def test_ablation_spos_rank_fidelity(fidelity, emit_table, benchmark):
    supernet_scores, standalone_scores, t_super, t_standalone = fidelity
    benchmark.pedantic(
        lambda: stats.spearmanr(supernet_scores, standalone_scores),
        rounds=3, iterations=1)

    rho, _ = stats.spearmanr(supernet_scores, standalone_scores)
    rows = [[
        "-".join(cfg), f"{s:.3f}", f"{a:.3f}"
    ] for cfg, s, a in zip(SAMPLED_CONFIGS, supernet_scores,
                           standalone_scores)]
    rows.append(["Spearman rho", f"{rho:.3f}", ""])
    emit_table(
        "ablation_spos",
        "Ablation A1 — supernet vs stand-alone accuracy "
        f"(eval cost {t_super:.2f}s vs retrain cost {t_standalone:.2f}s)",
        ["Config", "Supernet acc", "Stand-alone acc"], rows)

    # Weight sharing must carry usable ranking signal.  CI-scale
    # training is noisy, so require a clearly positive correlation
    # rather than the near-1.0 of converged supernets.
    assert rho > 0.0


def test_ablation_spos_cost_advantage(fidelity, benchmark):
    """Shared-weight evaluation is orders of magnitude cheaper."""
    _, _, t_super, t_standalone = fidelity
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert t_super < t_standalone / 5.0
