"""Ablation A4 — the paper's future-work extensions, quantified.

Two extensions from the paper's conclusion are implemented in this
repository; this bench measures what each buys:

1. **Extended dropout space** — registering Gaussian dropout grows the
   LeNet space from 32 to 50 candidates; the sweep compares the best
   achievable aim values with and without the fifth design.
2. **Sparsity support** — the latency/BRAM savings of structured
   weight sparsity on the full-size LeNet and ResNet18 accelerators.
"""

import pytest

from benchmarks.conftest import trained_context
from repro.api import SearchStage
from repro.api.stages import ensure_evaluator
from repro.dropout import (
    GAUSSIAN_HW_PROFILE,
    GaussianDropout,
    registered_design,
)
from repro.hw import AcceleratorConfig, estimate, trace_network
from repro.models import build_model
from repro.search import EvolutionConfig


class TestExtendedSpace:
    def test_extension_grows_space(self, emit_table, benchmark):
        with registered_design(GaussianDropout,
                               hw_profile=GAUSSIAN_HW_PROFILE):
            ctx = trained_context("lenet_slim", "mnist_like", seed=29,
                                  epochs=12, dataset_size=500,
                                  ood_size=100)
            extended_size = ctx.space.size

            def one_eval():
                return ensure_evaluator(ctx, True).evaluate(("G", "G", "B"))

            benchmark.pedantic(one_eval, rounds=3, iterations=1)

            result = SearchStage().search_one(
                ctx, "ape", evolution=EvolutionConfig(population_size=12,
                                                      generations=6))
            rows = [
                ["core space (paper)", "32", "B/R/K/M"],
                ["extended space", str(extended_size), "B/R/K/M/G"],
                ["aPE-optimal (extended)", result.best.config_string,
                 f"aPE={result.best.report.ape:.3f}"],
            ]
        emit_table("ablation_extended_space",
                   "Ablation A4a — extended dropout search space",
                   ["Setting", "Candidates", "Designs"], rows)
        assert extended_size == 50  # 5 * 5 * 2
        assert result.best.config_string  # search ran on extended space


class TestSparsity:
    @pytest.fixture(scope="class")
    def netlists(self):
        lenet = trace_network(build_model("lenet", rng=0), (1, 28, 28))
        resnet = trace_network(build_model("resnet18", rng=0),
                               (3, 32, 32))
        return {"lenet": lenet, "resnet18": resnet}

    def test_sparsity_sweep(self, netlists, emit_table, benchmark):
        benchmark.pedantic(
            lambda: estimate(netlists["lenet"],
                             AcceleratorConfig(pe=8,
                                               weight_sparsity=0.5)),
            rounds=5, iterations=2)

        rows = []
        results = {}
        for name, pe in (("lenet", 8), ("resnet18", 552)):
            for sparsity in (0.0, 0.5, 0.75):
                perf = estimate(netlists[name], AcceleratorConfig(
                    pe=pe, weight_sparsity=sparsity))
                results[(name, sparsity)] = perf
                rows.append([
                    name, f"{sparsity:.2f}",
                    f"{perf.latency_ms:.3f}",
                    str(perf.resources.bram36),
                ])
        emit_table("ablation_sparsity",
                   "Ablation A4b — structured weight sparsity",
                   ["Network", "Sparsity", "Latency(ms)", "BRAM tiles"],
                   rows)

        for name in ("lenet", "resnet18"):
            dense = results[(name, 0.0)]
            sparse = results[(name, 0.75)]
            # MAC-bound latency shrinks markedly with sparsity.
            assert sparse.latency_ms < 0.6 * dense.latency_ms
            assert sparse.resources.bram36 < dense.resources.bram36
