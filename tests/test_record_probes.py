"""Probe tables for the record loaders: specs, deployments, fault plans,
the records a run directory resumes from and the fidelity report a
resumed ``compile_and_report`` reads back.

Each loader reads its JSON record by one field rule
(:mod:`repro.utils.fields`): an int field takes a JSON int, a number
field a finite JSON number, a bool field a JSON bool, a string field a
JSON string; unknown and missing keys are refused.  Every probe below
is a malformed edit that an earlier loader accepted (or let escape as a
raw ``AttributeError``, ``KeyError`` or ``TypeError``); each must now be
refused at load time with the loader's own typed error, or read as a
miss where the record is a cache.  The kernel record's probes are
``tests/test_hw_compile.py::RECORD_PROBES``.  These hand-written
tables are the seed cases of the generated fuzzer,
``tests/test_record_fuzz.py``, which edits every field of every record
one at a time and holds each loader to its kind's verdict.

The round-trip tests pin the other half of the contract: each record
is written through the same field table its loader reads, so what a
writer writes loads back equal.
"""

import dataclasses
import json
import math
import os
import re
import shutil

import numpy as np
import pytest

from repro.analysis.certify import kernel_fingerprint
from repro.api import (
    AcceleratorSpec,
    ArtifactError,
    ArtifactStore,
    EvolutionSpec,
    ExperimentSpec,
    FidelityRungSpec,
    GenerateSpec,
    Runner,
    SearchSpec,
    SpecError,
    StoreTrainCheckpointer,
    TrainSpec,
)
from repro.api.artifacts import EVALUATION_CACHE_DIRNAME
from repro.api.stages import SearchStage, SpecifyStage
from repro.bayes.evaluate import AlgorithmicReport
from repro.cli import main
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.hw.compile import (
    FIDELITY_ARTIFACT,
    CompileError,
    compile_and_report,
    compile_deployment,
    load_kernel,
    save_kernel,
)
from repro.search import CandidateResult, SearchResult
from repro.search.async_ea import AsyncSearchResult
from repro.search.evolution import GenerationStats
from repro.search.trainer import TrainCheckpoint, TrainLog
from repro.serve import Deployment, DeploymentError
from repro.serve.deployment import DEPLOYMENT_ARTIFACT


def full_spec() -> ExperimentSpec:
    """A spec with every section set, the optional ones included."""
    return ExperimentSpec(
        name="probe", model="lenet_slim", dataset="mnist_like",
        image_size=16, dataset_size=120, ood_size=30, mc_samples=2,
        seed=5,
        train=TrainSpec(epochs=1, lr=1e-3, weight_decay=1e-4),
        search=SearchSpec(
            aims=("accuracy", "latency"),
            evolution=EvolutionSpec(population_size=4, generations=2),
            algorithm="async_ea",
            fidelity_rungs=(FidelityRungSpec(mc_samples=1,
                                             data_fraction=0.5),),
            surrogate_promotion=True),
        accelerator=AcceleratorSpec(pe=32, clock_mhz=150.0),
        generate=GenerateSpec(aim="latency", emit=True, outdir="out",
                              project_name="probe"))


def _set(*path_and_value):
    """An edit setting the value at a key path of a JSON dict."""
    *path, key, value = path_and_value

    def edit(record):
        for step in path:
            record = record[step]
        record[key] = value
    return edit


def _drop(*path_and_key):
    """An edit deleting the key at a key path of a JSON dict."""
    *path, key = path_and_key

    def edit(record):
        for step in path:
            record = record[step]
        del record[key]
    return edit


#: Spec edits that loaded before the field rule.
SPEC_PROBES = {
    "string-use-gp-cost-model": _set("search", "use_gp_cost_model", "false"),
    "int-use-gp-cost-model": _set("search", "use_gp_cost_model", 0),
    "int-surrogate-promotion": _set("search", "surrogate_promotion", 1),
    "string-seed-uniform": _set("search", "evolution", "seed_uniform", "no"),
    "string-emit": _set("generate", "emit", "no"),
    "int-project-name": _set("generate", "project_name", 7),
    "int-outdir": _set("generate", "outdir", 5),
    "nan-lr": _set("train", "lr", float("nan")),
    "inf-lr": _set("train", "lr", float("inf")),
    "bool-lr": _set("train", "lr", True),
    "string-weight-decay": _set("train", "weight_decay", "abc"),
    "inf-weight-decay": _set("train", "weight_decay", float("inf")),
    "nan-clock": _set("accelerator", "clock_mhz", float("nan")),
    "float-pe": _set("accelerator", "pe", 64.0),
    "bool-pe": _set("accelerator", "pe", True),
    "inf-masksembles-scale": _set("masksembles_scale", float("inf")),
    "bool-schema-version": _set("schema_version", True),
    "float-schema-version": _set("schema_version", 1.0),
}

#: Deployment-record edits that loaded (or escaped as AttributeError).
DEPLOYMENT_PROBES = {
    "int-config": _set("config", 5),
    "list-config": _set("config", ["B", "K", "M"]),
    "int-aim": _set("aim", 5),
    "zero-input-dim": _set("input_shape", [1, 0, 16]),
    "negative-input-dim": _set("input_shape", [1, -16, 16]),
    "bool-version": _set("deployment_version", True),
    "float-version": _set("deployment_version", 1.0),
}


def _misspell_param(plan):
    event = plan["events"][0]
    event["parm"] = event.pop("param")


#: Fault-plan edits that loaded before the field rule.
FAULT_PLAN_PROBES = {
    "bool-version": _set("version", True),
    "float-version": _set("version", 1.0),
    "misspelled-event-param": _misspell_param,
    "unknown-top-level-key": _set("note", "pinned"),
}


def run_spec() -> ExperimentSpec:
    """A tiny ``async_ea`` run: one screening rung, one aim."""
    return ExperimentSpec(
        name="probe-run", model="lenet_slim", dataset="mnist_like",
        image_size=16, dataset_size=120, ood_size=30, mc_samples=2,
        seed=5,
        train=TrainSpec(epochs=1),
        search=SearchSpec(
            aims=("accuracy",),
            evolution=EvolutionSpec(population_size=4, generations=1),
            algorithm="async_ea",
            fidelity_rungs=(FidelityRungSpec(mc_samples=1,
                                             data_fraction=0.5),)),
        generate=GenerateSpec(aim="accuracy"))


#: The run's one search artifact.
SEARCH = SearchStage.artifact_name("Accuracy Optimal")

#: Run-directory edits: (artifact, edit, the key the refusal names).
#: Each loaded, or escaped as an untyped error, before the field rule.
RUN_DIR_PROBES = {
    "string-epoch-losses": ("train_log", _set("epoch_losses", "oops"),
                            "train_log.epoch_losses"),
    "digit-string-epoch-losses": ("train_log", _set("epoch_losses", "12"),
                                  "train_log.epoch_losses"),
    "float-steps": ("train_log", _set("steps", 1.9), "train_log.steps"),
    "bool-steps": ("train_log", _set("steps", True), "train_log.steps"),
    "string-accuracy": (
        SEARCH, _set("result", "best", "report", "accuracy", "0.5"),
        f"{SEARCH}.result.best.report.accuracy"),
    "missing-ece": (SEARCH, _drop("result", "best", "report", "ece"),
                    f"{SEARCH}.result.best.report.ece"),
    "list-extras": (SEARCH,
                    _set("result", "best", "report", "extras", [1, 2]),
                    f"{SEARCH}.result.best.report.extras"),
    "string-config": (SEARCH, _set("result", "best", "config", "BK"),
                      f"{SEARCH}.result.best.config"),
    "int-config": (SEARCH, _set("result", "best", "config", 5),
                   f"{SEARCH}.result.best.config"),
    "unknown-design-code": (SEARCH, _set("result", "best", "config",
                                         ["Z", "Z", "Z"]),
                            f"{SEARCH}.result.best.config[0]"),
    "missing-best": (SEARCH, _drop("result", "best"),
                     f"{SEARCH}.result.best"),
    "int-history-entry": (SEARCH, _set("result", "history", [5]),
                          f"{SEARCH}.result.history[0]"),
    "string-keep-fraction": (
        SEARCH, _set("result", "rungs", 0, "keep_fraction", "half"),
        f"{SEARCH}.result.rungs[0].keep_fraction"),
}

#: Candidate edits in the evaluation caches (the ``evaluations_v2``
#: dump and the ``eval_cache/`` entries), whose contract is a miss.
CACHE_PROBES = {
    "string-accuracy": _set("report", "accuracy", "0.5"),
    "missing-ece": _drop("report", "ece"),
    "list-extras": _set("report", "extras", [1, 2]),
    "string-config": _set("config", "BK"),
    "int-config": _set("config", 5),
}

#: ``specify.json`` edits: (edit, the key the refusal names).
SPECIFY_PROBES = {
    "int-choices": (_set("slots", 0, "choices", 5),
                    "specify.slots[0].choices"),
    "repeated-choices": (_set("slots", 0, "choices", ["B", "B"]),
                         "specify.slots[0]: slot 'conv1' has duplicate"),
    "unknown-design-choice": (_set("slots", 0, "choices", ["Z"]),
                              "specify.slots[0].choices[0]"),
    "unknown-placement": (_set("slots", 0, "placement", "attention"),
                          "specify.slots[0].placement"),
    "short-input-shape": (_set("input_shape", [1, 16]),
                          "specify.input_shape"),
}

#: ``fidelity.json`` edits: (edit, the text the refusal names).  Each
#: loaded as stored, or escaped as a raw ``KeyError`` or ``TypeError``,
#: before the report declared its fields.
FIDELITY_PROBES = {
    "string-fixed-accuracy": (_set("fixed_accuracy", "0.5"),
                              "fidelity.fixed_accuracy"),
    "bool-fixed-accuracy": (_set("fixed_accuracy", True),
                            "fidelity.fixed_accuracy"),
    "missing-agreement": (_drop("agreement"), "fidelity.agreement"),
    "unknown-key": (_set("note", "edited"), "['note'] in fidelity;"),
    "zero-rows": (_set("rows", 0), "fidelity.rows"),
    "int-layers": (_set("layers", 5), "fidelity.layers"),
    "layer-without-name": (_drop("layers", 0, "name"),
                           "fidelity.layers[0].name"),
}

#: Train-checkpoint meta edits, under the checkpoint's own context.
CHECKPOINT_META_PROBES = {
    "missing-steps": _drop("steps"),
    "string-epochs-done": _set("epochs_done", "one"),
    "int-epoch-losses": _set("epoch_losses", 5),
}


@pytest.fixture(scope="module")
def deployment():
    """An untrained slim-LeNet deployment (fast; predictions are noise)."""
    return Deployment.from_spec(full_spec(), (1, 16, 16),
                                config=("B", "K", "M"))


class TestSpecProbes:
    def test_base_spec_loads(self):
        record = json.loads(full_spec().to_json())
        assert ExperimentSpec.from_dict(record) == full_spec()

    @pytest.mark.parametrize("probe", sorted(SPEC_PROBES))
    def test_probe_is_refused(self, probe):
        record = json.loads(full_spec().to_json())
        SPEC_PROBES[probe](record)
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(record)


class TestDeploymentProbes:
    @pytest.mark.parametrize("probe", sorted(DEPLOYMENT_PROBES))
    def test_probe_is_refused(self, deployment, tmp_path, probe):
        store = ArtifactStore(deployment.save(str(tmp_path / "dep")))
        record = store.load_json(DEPLOYMENT_ARTIFACT)
        DEPLOYMENT_PROBES[probe](record)
        store.save_json(DEPLOYMENT_ARTIFACT, record)
        with pytest.raises(DeploymentError):
            Deployment.load(store.root)


class TestFaultPlanProbes:
    @pytest.mark.parametrize("probe", sorted(FAULT_PLAN_PROBES))
    def test_probe_is_refused(self, probe):
        record = json.loads(FaultPlan.standard_plan().to_json())
        FAULT_PLAN_PROBES[probe](record)
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json(json.dumps(record))


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A finished run's store root and its result."""
    root = tmp_path_factory.mktemp("runs")
    return root, Runner(run_spec(), store_root=str(root)).run()


def _edited_copy(finished_run, tmp_path, artifact, edit):
    """A copy of the finished run's store with one artifact edited;
    returns the copy's root and run directory."""
    root = tmp_path / "runs"
    shutil.copytree(finished_run[0], root)
    store = ArtifactStore(str(root)).subdir(run_spec().run_id)
    record = store.load_json(artifact)
    edit(record)
    store.save_json(artifact, record)
    return root, store.root


class TestRunDirProbes:
    @pytest.mark.parametrize("probe", sorted(RUN_DIR_PROBES))
    def test_resume_refuses_probe(self, finished_run, tmp_path, probe):
        artifact, edit, key = RUN_DIR_PROBES[probe]
        root, _ = _edited_copy(finished_run, tmp_path, artifact, edit)
        with pytest.raises(ArtifactError, match=re.escape(key)):
            Runner(run_spec(), store_root=str(root)).run()

    @pytest.mark.parametrize("probe", sorted(
        name for name, (artifact, _, _) in RUN_DIR_PROBES.items()
        if artifact == SEARCH))
    def test_serving_refuses_probe(self, finished_run, tmp_path, probe):
        artifact, edit, key = RUN_DIR_PROBES[probe]
        _, run_dir = _edited_copy(finished_run, tmp_path, artifact, edit)
        with pytest.raises(DeploymentError, match=re.escape(key)):
            Deployment.from_run(run_dir)

    @pytest.mark.parametrize("probe", sorted(CACHE_PROBES))
    def test_cache_probe_is_a_miss(self, finished_run, tmp_path, probe):
        # Every cached candidate edited, the search artifact gone: the
        # search recomputes each candidate and finds the same result.
        edit = CACHE_PROBES[probe]
        root, run_dir = _edited_copy(
            finished_run, tmp_path, SearchStage.CACHE,
            lambda entries: [edit(entry) for entry in entries])
        os.unlink(ArtifactStore(run_dir).path(SEARCH + ".json"))
        for path in (root / EVALUATION_CACHE_DIRNAME).glob("*/*.json"):
            document = json.loads(path.read_text())
            edit(document["payload"])
            path.write_text(json.dumps(document))
        result = Runner(run_spec(), store_root=str(root)).run()
        want = finished_run[1].search_results["Accuracy Optimal"]
        got = result.search_results["Accuracy Optimal"]
        assert got.to_dict() == want.to_dict()
        assert got.cache_misses == want.cache_misses > 0

    def test_async_run_serves_its_winner(self, finished_run):
        run_dir = ArtifactStore(str(finished_run[0])).subdir(
            run_spec().run_id).root
        want = finished_run[1].search_results["Accuracy Optimal"]
        assert isinstance(want, AsyncSearchResult)
        assert Deployment.from_run(run_dir).config == want.best_config

    @pytest.mark.parametrize("probe", sorted(SPECIFY_PROBES))
    def test_serving_refuses_specify_probe(self, finished_run, tmp_path,
                                           probe):
        edit, key = SPECIFY_PROBES[probe]
        _, run_dir = _edited_copy(finished_run, tmp_path,
                                  SpecifyStage.ARTIFACT, edit)
        with pytest.raises(DeploymentError, match=re.escape(key)):
            Deployment.from_run(run_dir)

    def test_cli_names_the_specify_field(self, finished_run, tmp_path,
                                         capsys):
        _, run_dir = _edited_copy(finished_run, tmp_path,
                                  SpecifyStage.ARTIFACT,
                                  _set("slots", 0, "choices", 5))
        assert main(["serve", "--run-dir", run_dir, "--smoke"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "specify.slots[0].choices must be a list" in err

    @pytest.mark.parametrize("probe", sorted(CHECKPOINT_META_PROBES))
    def test_checkpoint_probe_loads_as_none(self, tmp_path, probe):
        store = ArtifactStore(str(tmp_path))
        checkpointer = StoreTrainCheckpointer(store, "context")
        checkpointer.save(_checkpoint())
        arrays = store.load_state(StoreTrainCheckpointer.ARTIFACT)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        CHECKPOINT_META_PROBES[probe](meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                       dtype=np.uint8)
        store.save_state(StoreTrainCheckpointer.ARTIFACT, arrays)
        assert checkpointer.load() is None


@pytest.fixture(scope="module")
def compiled_dir(deployment, tmp_path_factory):
    """The deployment compiled: kernel, fidelity report, certificate."""
    store = ArtifactStore(str(tmp_path_factory.mktemp("compiled")))
    compile_and_report(deployment, store, calibration_rows=8,
                       fidelity_rows=8)
    return store.root


def _edited_report(compiled_dir, tmp_path, edit) -> ArtifactStore:
    """A copy of the compiled directory with its fidelity report edited."""
    shutil.copytree(compiled_dir, tmp_path / "compiled")
    store = ArtifactStore(str(tmp_path / "compiled"))
    record = store.load_json(FIDELITY_ARTIFACT)
    edit(record)
    store.save_json(FIDELITY_ARTIFACT, record)
    return store


class TestFidelityProbes:
    @pytest.mark.parametrize("probe", sorted(FIDELITY_PROBES))
    def test_resume_refuses_probe(self, deployment, compiled_dir, tmp_path,
                                  probe):
        edit, key = FIDELITY_PROBES[probe]
        store = _edited_report(compiled_dir, tmp_path, edit)
        with pytest.raises(CompileError, match=re.escape(key)):
            compile_and_report(deployment, store, calibration_rows=8,
                               fidelity_rows=8)

    def test_cli_names_the_fidelity_field(self, compiled_dir, tmp_path,
                                          capsys):
        store = _edited_report(compiled_dir, tmp_path,
                               _set("fixed_accuracy", "0.5"))
        assert main(["compile", "--deployment", store.root,
                     "--calibration-rows", "8", "--fidelity-rows", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "fidelity.fixed_accuracy must be a finite number" in err


def _checkpoint(**overrides) -> TrainCheckpoint:
    base = dict(epochs_done=1, epoch_losses=[1.5], steps=3,
                wall_seconds=0.25,
                rng_state={"bit_generator": "PCG64", "has_uint32": 0},
                model_state={"w": np.arange(3, dtype=np.float32)},
                optimizer_state={"t": np.asarray(1)},
                stochastic_state={"kind": "model", "state": []})
    base.update(overrides)
    return TrainCheckpoint(**base)


def _report(**overrides) -> AlgorithmicReport:
    base = dict(accuracy=0.5, ece=0.1, ape=1.2, nll=0.7, brier=0.3,
                num_mc_samples=3, extras={"mean_epistemic_id": 0.01})
    base.update(overrides)
    return AlgorithmicReport(**base)


def _text(record) -> str:
    """A record's JSON text, NaN and infinities written as such."""
    return json.dumps(record.to_dict(), sort_keys=True)


class TestWritersRoundTrip:
    """What each writer writes loads back equal."""

    def test_spec_to_dict(self):
        spec = full_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_deployment_save(self, deployment, tmp_path):
        saved = dataclasses.replace(deployment, aim="Latency Optimal",
                                    serve_seed=12345)
        loaded = Deployment.load(saved.save(str(tmp_path / "dep")))
        for key in ("spec", "config", "input_shape", "fixed_point", "aim",
                    "serve_seed"):
            assert getattr(loaded, key) == getattr(saved, key), key
        assert sorted(loaded.weights) == sorted(saved.weights)
        for name, array in saved.weights.items():
            assert np.array_equal(loaded.weights[name], array)
        assert loaded.fingerprint() == saved.fingerprint()

    def test_save_kernel(self, deployment, tmp_path):
        kernel = compile_deployment(deployment, calibration_rows=8)
        store = ArtifactStore(str(tmp_path / "kernel"))
        save_kernel(kernel, store)
        loaded = load_kernel(store)
        assert [plan.to_dict() for plan in loaded.plans] \
            == [plan.to_dict() for plan in kernel.plans]
        assert kernel_fingerprint(loaded) == kernel_fingerprint(kernel)

    @pytest.mark.parametrize("plan", [FaultPlan.standard_plan(),
                                      FaultPlan.generate(3)])
    def test_fault_plan_to_json(self, plan):
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_non_finite_measurements_load(self):
        # A diverged loss, score or metric is written as NaN or an
        # infinity, and reads back as the same float.
        nan, inf = float("nan"), float("inf")
        records = [
            TrainLog(epoch_losses=[2.3, nan, inf], wall_seconds=1.0,
                     steps=6),
            GenerationStats(generation=0, best_score=-inf, mean_score=nan,
                            best_config=("B", "K"), evaluations_so_far=4),
            CandidateResult(config=("B", "K"),
                            report=_report(nll=inf, extras={"x": nan}),
                            latency_ms=nan),
        ]
        for record in records:
            loaded = type(record).from_dict(
                json.loads(json.dumps(record.to_dict())))
            assert _text(loaded) == _text(record)
        assert math.isnan(TrainLog.from_dict(
            records[0].to_dict()).epoch_losses[1])

    @pytest.mark.parametrize("cls", [SearchResult, AsyncSearchResult])
    def test_pre_split_search_result_reads_misses_from_evaluations(
            self, cls):
        result = cls(best=CandidateResult(("M", "M"), _report(), 1.25),
                     best_score=0.5, num_evaluations=7, cache_hits=2,
                     cache_misses=7)
        record = result.to_dict()
        del record["cache_misses"]
        loaded = cls.from_dict(record)
        assert loaded.cache_misses == 7
        assert loaded == result

    def test_train_checkpoint_meta(self, tmp_path):
        checkpointer = StoreTrainCheckpointer(ArtifactStore(str(tmp_path)),
                                              "context")
        saved = _checkpoint(epoch_losses=[1.5, float("nan")])
        checkpointer.save(saved)
        loaded = checkpointer.load()
        for key in ("epochs_done", "steps", "wall_seconds", "rng_state",
                    "stochastic_state"):
            assert getattr(loaded, key) == getattr(saved, key), key
        assert json.dumps(loaded.epoch_losses) \
            == json.dumps(saved.epoch_losses)
        assert np.array_equal(loaded.model_state["w"], saved.model_state["w"])
