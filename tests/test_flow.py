"""The paper's four-phase flow (Fig. 2), driven stage by stage.

Specify, train, search and generate run one at a time over a shared
in-memory :class:`~repro.api.PipelineContext` — the composition scripts
and benches use when they need more control than
:class:`~repro.api.Runner`.
"""

import pytest

from repro.api import (
    ExperimentSpec,
    PipelineContext,
    SearchStage,
    SpecifyStage,
    TrainSpec,
    TrainStage,
    build_design,
)
from repro.api.runner import summary_rows
from repro.api.stages import ensure_cost_model, ensure_evaluator
from repro.search import EvolutionConfig


def make_context(*, seed, dataset_size=120, epochs=1, **fields):
    return PipelineContext(spec=ExperimentSpec(
        model="lenet_slim", dataset="mnist_like", image_size=16,
        dataset_size=dataset_size, seed=seed,
        train=TrainSpec(epochs=epochs), **fields))


@pytest.fixture(scope="module")
def ran_flow():
    """One CI-scale run, trained and searched under two aims."""
    ctx = make_context(seed=21, dataset_size=400, ood_size=60, epochs=6)
    SpecifyStage().execute(ctx)
    TrainStage().execute(ctx)
    search = SearchStage()
    for aim in ("accuracy", "latency"):
        search.search_one(
            ctx, aim,
            evolution=EvolutionConfig(population_size=6, generations=3))
    return ctx


class TestPhases:
    def test_specify_builds_space(self):
        ctx = make_context(seed=0)
        space = SpecifyStage().execute(ctx)
        assert space.size == 32
        assert ctx.supernet is not None
        assert ctx.input_shape == (1, 16, 16)

    def test_train_before_specify_autoruns(self):
        ctx = make_context(seed=1)
        log = TrainStage().execute(ctx)
        assert ctx.space is not None
        assert len(log.epoch_losses) == 1

    def test_search_results_recorded(self, ran_flow):
        assert "Accuracy Optimal" in ran_flow.search_results
        assert "Latency Optimal" in ran_flow.search_results
        assert ran_flow.search_seconds["Accuracy Optimal"] > 0

    def test_search_result_config_in_space(self, ran_flow):
        result = ran_flow.search_results["Accuracy Optimal"]
        assert result.best_config in ran_flow.space

    def test_latency_optimal_prefers_cheap_designs(self, ran_flow):
        result = ran_flow.search_results["Latency Optimal"]
        # K and R stall the pipeline; the optimum avoids them.
        assert not set(result.best_config) & {"K", "R"}

    def test_generate_design(self, ran_flow):
        design, project = build_design(ran_flow, ("B", "B", "B"))
        assert design.dropout_config == "B-B-B"
        assert project is None
        assert design.perf.latency_ms > 0

    def test_generate_with_emission(self, ran_flow, tmp_path):
        design, project = build_design(
            ran_flow, ("M", "M", "M"), outdir=str(tmp_path),
            project_name="flowgen")
        assert project is not None
        assert (tmp_path / "firmware" / "flowgen.cpp").exists()

    def test_generate_before_specify_raises(self):
        with pytest.raises(RuntimeError, match="specify"):
            build_design(make_context(seed=0), ("B", "B", "B"))


class TestReporting:
    def test_summary_rows(self, ran_flow):
        rows = summary_rows(ran_flow.search_results,
                            ran_flow.search_seconds)
        assert len(rows) == 2
        row = rows[0]
        for key in ("aim", "config", "accuracy_pct", "ece_pct",
                    "ape_nats", "latency_ms", "search_seconds",
                    "evaluations"):
            assert key in row

    def test_evaluate_config(self, ran_flow):
        result = ensure_evaluator(ran_flow, True).evaluate(("B", "M", "B"))
        assert result.config == ("B", "M", "B")
        assert result.latency_ms > 0

    def test_gp_cost_model_built_once(self, ran_flow):
        assert ensure_cost_model(ran_flow) is ensure_cost_model(ran_flow)


class TestDeterminism:
    def test_same_seed_same_search(self):
        def run():
            ctx = make_context(seed=33, dataset_size=200, ood_size=40,
                               epochs=2)
            TrainStage().execute(ctx)
            result = SearchStage().search_one(
                ctx, "accuracy",
                evolution=EvolutionConfig(population_size=4, generations=2))
            return result.best_config
        assert run() == run()
