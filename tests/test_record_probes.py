"""Probe tables for the record loaders: specs, deployments, fault plans.

Each loader reads its JSON record by one field rule
(:mod:`repro.utils.fields`): an int field takes a JSON int, a number
field a finite JSON number, a bool field a JSON bool, a string field a
JSON string; unknown and missing keys are refused.  Every probe below
is a malformed edit that an earlier loader accepted (or let escape as a
raw ``AttributeError``); each must now be refused at load time with the
loader's own typed error.  The kernel record's probes are
``tests/test_hw_compile.py::RECORD_PROBES``.

The round-trip tests pin the other half of the contract: what each
writer writes loads back equal, so every key a writer emits is a
declared field.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.certify import kernel_fingerprint
from repro.api import (
    AcceleratorSpec,
    ArtifactStore,
    EvolutionSpec,
    ExperimentSpec,
    FidelityRungSpec,
    GenerateSpec,
    SearchSpec,
    SpecError,
    TrainSpec,
)
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.hw.compile import compile_deployment, load_kernel, save_kernel
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
