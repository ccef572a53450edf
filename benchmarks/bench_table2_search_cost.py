"""Table 2 — search costs and resultant configurations.

Paper protocol: run the search on LeNet, VGG11 and ResNet18 and report
the search cost plus the optimal configuration per aim (codes B / R /
K / M).  The paper's headline observation: *"To achieve the highest
accuracy, the optimal dropout configurations for LeNet, VGG11 and
ResNet18 are all hybrid dropout configurations"* while the latency
optimum is uniformly static (M-M-M...).

Expected reproduction shape:

* the search cost ranks LeNet < VGG11 <= ResNet18 (paper: 2h/6h/10h on
  GPU; here seconds on the numpy substrate, same ordering by size);
* latency-optimal configurations avoid the dynamic stall designs (R/K);
* at least one accuracy-optimal configuration is hybrid.
"""

import pytest

from benchmarks.conftest import EVOLUTION
from repro.api import SearchStage
from repro.api.stages import ensure_cost_model

AIMS = ("accuracy", "ece", "ape", "latency")


@pytest.fixture(scope="module")
def table2(lenet_ctx, vgg_ctx, resnet_ctx):
    """Run all four aims on all three backbones, recording costs.

    Each backbone gets a *fresh* memoization cache so the reported cost
    is the true search-phase cost on a trained supernet (other bench
    modules may already have warmed the context's own evaluator).
    """
    from repro.search import CandidateEvaluator, EvolutionarySearch, get_aim
    from repro.utils.timers import Timer

    data = {}
    for name, ctx in (("LeNet", lenet_ctx), ("VGG11", vgg_ctx),
                      ("ResNet18", resnet_ctx)):
        evaluator = CandidateEvaluator(
            ctx.supernet, ctx.splits.val, ctx.ood,
            latency_fn=ensure_cost_model(ctx),
            num_mc_samples=ctx.spec.mc_samples)
        per_aim = {}
        total_seconds = 0.0
        for i, aim in enumerate(AIMS):
            with Timer() as timer:
                search = EvolutionarySearch(
                    evaluator, get_aim(aim), config=EVOLUTION,
                    rng=900 + i)
                result = search.run()
            per_aim[aim] = (result, timer.elapsed)
            total_seconds += timer.elapsed
        data[name] = (ctx, per_aim, total_seconds)
    return data


def test_table2_rows(table2, emit_table, benchmark):
    lenet_ctx = table2["LeNet"][0]

    def one_search():
        return SearchStage().search_one(lenet_ctx, "accuracy",
                                        evolution=EVOLUTION)

    benchmark.pedantic(one_search, rounds=3, iterations=1)

    rows = []
    for model_name, (_, per_aim, total) in table2.items():
        for aim in AIMS:
            result, seconds = per_aim[aim]
            hybrid = "hybrid" if len(set(result.best_config)) > 1 \
                else "uniform"
            rows.append([
                model_name,
                f"{total:.2f}s total",
                f"{aim.capitalize()} Optimal",
                result.best.config_string,
                hybrid,
            ])
    emit_table(
        "table2",
        "Table 2 — search costs and resultant configurations "
        "(B: Bernoulli, R: Random, K: Block, M: Masksembles)",
        ["Network", "Search Cost", "Aim", "Configuration", "Kind"],
        rows)

    # --- reproduction-shape assertions -------------------------------
    # Latency optima avoid the dynamic stall designs everywhere.
    for model_name, (_, per_aim, _) in table2.items():
        lat_cfg = per_aim["latency"][0].best_config
        assert not set(lat_cfg) & {"K", "R"}, (model_name, lat_cfg)

    # The paper finds hybrid accuracy optima on all three networks; on
    # CI-scale data require it for at least one backbone.
    hybrids = [len(set(per_aim["accuracy"][0].best_config)) > 1
               for _, per_aim, _ in table2.values()]
    assert any(hybrids)


def test_table2_search_cost_scales_with_network(table2, benchmark):
    """Search cost ordering LeNet < max(VGG11, ResNet18) (paper: 2h/6h/10h)."""
    lenet_total = table2["LeNet"][2]
    vgg_total = table2["VGG11"][2]
    resnet_total = table2["ResNet18"][2]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert lenet_total < max(vgg_total, resnet_total)


def test_table2_supernet_trained_once(table2, benchmark):
    """SPOS decoupling: four searches reuse one supernet training."""
    ctx, per_aim, total = table2["LeNet"]
    benchmark.pedantic(lambda: ctx.train_log, rounds=1, iterations=1)
    # One training log serves all four aim searches — training never
    # re-ran, which is the paper's O(prod M_i) -> O(1) argument.
    assert ctx.train_log is not None
    assert len(per_aim) == 4
    # The search phase costs less than retraining the supernet per
    # candidate would (even one epoch per candidate would dwarf this).
    assert total < 120.0
