"""Tests for the pipeline, runner, batch entry point and resume."""

import numpy as np
import pytest

from repro.api import (
    ArtifactStore,
    EvolutionSpec,
    ExperimentSpec,
    GenerateSpec,
    Pipeline,
    Runner,
    SearchSpec,
    SearchStage,
    TrainSpec,
    run_experiments,
)


def tiny_spec(**overrides):
    """A CI-scale spec: slim LeNet, two aims, minutes of nothing."""
    base = dict(
        name="tiny",
        model="lenet_slim", dataset="mnist_like", image_size=16,
        dataset_size=200, ood_size=40, seed=3,
        train=TrainSpec(epochs=2),
        search=SearchSpec(
            aims=("accuracy", "latency"),
            evolution=EvolutionSpec(population_size=4, generations=2)),
        generate=GenerateSpec(aim="accuracy"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One persisted cold run shared by the resume tests."""
    root = str(tmp_path_factory.mktemp("store"))
    spec = tiny_spec()
    result = Runner(spec, store_root=root).run()
    return root, spec, result


class TestRunner:
    def test_cold_run_produces_everything(self, cold_run):
        _, spec, result = cold_run
        assert result.resumed == frozenset()
        assert result.train_log.steps > 0
        assert set(result.search_results) == {"Accuracy Optimal",
                                              "Latency Optimal"}
        assert len(result.designs) == 1
        rows = result.summary()
        assert len(rows) == 2
        assert {"aim", "config", "accuracy_pct", "latency_ms",
                "search_seconds", "evaluations"} <= set(rows[0])

    def test_artifacts_written(self, cold_run):
        root, spec, _ = cold_run
        store = ArtifactStore(root).subdir(spec.run_id)
        names = store.list_artifacts()
        assert "spec" in names
        assert "specify" in names
        assert "train_log" in names
        assert "search_accuracy_optimal" in names
        assert "search_latency_optimal" in names
        assert "evaluations_v2" not in names
        assert store.has_state("supernet_weights")
        assert any(name.startswith("design_") for name in names)

    def test_spec_artifact_round_trips(self, cold_run):
        root, spec, _ = cold_run
        store = ArtifactStore(root).subdir(spec.run_id)
        assert ExperimentSpec.from_dict(store.load_json("spec")) == spec

    def test_result_to_dict_is_json_ready(self, cold_run):
        import json
        _, _, result = cold_run
        text = json.dumps(result.to_dict())
        assert "Accuracy Optimal" in text

    def test_multi_aim_shares_evaluations(self, cold_run):
        """Both aims reuse one memoized evaluator.  Counters are
        per-search deltas, so sharing shows up as the second aim
        answering part of its budget from the first aim's cache (the
        uniform-seeded baselines are guaranteed overlap)."""
        _, _, result = cold_run
        results = list(result.search_results.values())
        budget = 4 * 2  # population * generations, without memoization
        assert all(r.num_evaluations <= budget for r in results)
        second = results[1]
        assert second.cache_hits > 0
        assert second.cache_misses < budget
        # The per-aim split is exhaustive: every request is either a
        # hit or a miss.
        for r in results:
            assert r.history[-1].evaluations_so_far \
                == r.cache_hits + r.cache_misses


class TestResume:
    def test_second_invocation_resumes(self, cold_run):
        root, spec, first = cold_run
        result = Runner(spec, store_root=root).run()
        assert "train" in result.resumed
        assert "search:Accuracy Optimal" in result.resumed
        assert "search:Latency Optimal" in result.resumed
        # Restored results match the cold run exactly.
        assert result.train_log == first.train_log
        for aim, cold in first.search_results.items():
            assert result.search_results[aim] == cold

    def test_resumed_run_skips_training(self, cold_run, monkeypatch):
        root, spec, _ = cold_run
        import repro.api.stages as stages

        def boom(*args, **kwargs):
            raise AssertionError("train_supernet called on resume")

        monkeypatch.setattr(stages, "train_supernet", boom)
        result = Runner(spec, store_root=root).run()
        assert "train" in result.resumed

    def test_restored_weights_match(self, cold_run):
        root, spec, _ = cold_run
        runner = Runner(spec, store_root=root)
        runner.run()
        saved = ArtifactStore(root).subdir(spec.run_id).load_state(
            "supernet_weights")
        live = runner.ctx.supernet.state_dict()
        for key, value in saved.items():
            np.testing.assert_array_equal(live[key], value)

    def test_lost_search_artifact_reuses_evaluation_cache(self, cold_run):
        """Deleting one search artifact forces that aim to re-search,
        but training resumes and the store root's ``eval_cache/``
        answers every candidate, so the re-search needs no fresh
        evaluations."""
        import os
        root, spec, first = cold_run
        store = ArtifactStore(root).subdir(spec.run_id)
        os.unlink(store.path("search_latency_optimal.json"))
        result = Runner(spec, store_root=root).run()
        assert "train" in result.resumed
        assert "search:Latency Optimal" not in result.resumed
        cold = first.search_results["Latency Optimal"]
        warm = result.search_results["Latency Optimal"]
        assert warm.best_config == cold.best_config
        # Every candidate the deterministic EA proposes was already in
        # the evaluation cache (fresh-evaluation counter stays at 0).
        assert warm.num_evaluations == 0

    def test_different_seed_does_not_resume(self, cold_run):
        root, spec, _ = cold_run
        other = tiny_spec(seed=spec.seed + 1)
        assert other.run_id != spec.run_id
        result = Runner(other, store_root=root).run()
        assert result.resumed == frozenset()


class TestBatch:
    def test_run_experiments_sweeps(self, tmp_path):
        specs = [tiny_spec(name=f"s{seed}", seed=seed,
                           search=SearchSpec(
                               aims=("latency",),
                               evolution=EvolutionSpec(
                                   population_size=4, generations=2)),
                           generate=GenerateSpec(aim="latency"))
                 for seed in (0, 1)]
        results = run_experiments(specs, store_root=str(tmp_path))
        assert len(results) == 2
        assert all("Latency Optimal" in r.search_results for r in results)
        # Re-running the same sweep resumes every run.
        again = run_experiments(specs, store_root=str(tmp_path))
        assert all("train" in r.resumed for r in again)

    def test_duplicate_specs_share_run_dir(self, tmp_path):
        spec = tiny_spec(
            search=SearchSpec(
                aims=("latency",),
                evolution=EvolutionSpec(population_size=4,
                                        generations=2)),
            generate=GenerateSpec(aim="latency"))
        results = run_experiments([spec, spec],
                                  store_root=str(tmp_path))
        assert results[0].resumed == frozenset()
        assert "train" in results[1].resumed


class TestPipelineShape:
    def test_default_stage_order(self):
        names = [stage.name for stage in Pipeline.default().stages]
        assert names == ["specify", "train", "search", "generate"]

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline([SearchStage(), SearchStage()])

    def test_generate_explicit_config(self, tmp_path):
        spec = tiny_spec(
            search=SearchSpec(aims=("latency",),
                              evolution=EvolutionSpec(population_size=4,
                                                      generations=2)),
            generate=GenerateSpec(config="B-B-B", emit=True,
                                  outdir=str(tmp_path / "hls"),
                                  project_name="apitest"))
        result = Runner(spec).run()
        assert "B-B-B" in result.designs
        assert (tmp_path / "hls" / "firmware" / "apitest.cpp").exists()

    def test_determinism_across_runners(self):
        spec = tiny_spec(seed=33, search=SearchSpec(
            aims=("accuracy",),
            evolution=EvolutionSpec(population_size=4, generations=2)))
        a = Runner(spec).run().best("accuracy").best_config
        b = Runner(spec).run().best("accuracy").best_config
        assert a == b
