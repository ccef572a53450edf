"""Tests for the declarative ExperimentSpec (repro.api.spec)."""

import pytest

from repro.api import (
    AcceleratorSpec,
    EvolutionSpec,
    ExperimentSpec,
    GenerateSpec,
    SearchSpec,
    SpecError,
    TrainSpec,
)
from repro.api.spec import SCHEMA_VERSION
from repro.bayes.mc import MAX_MC_SAMPLES
from repro.hw.device import XCKU115


@pytest.fixture()
def full_spec():
    """A spec exercising every section, including the optional ones."""
    return ExperimentSpec(
        name="full",
        model="resnet18_slim",
        dataset="cifar_like",
        image_size=16,
        dataset_size=300,
        ood_size=60,
        mc_samples=2,
        dropout_p=0.2,
        seed=11,
        train=TrainSpec(epochs=3, batch_size=16, lr=1e-3,
                        optimizer="sgd"),
        search=SearchSpec(
            aims=("accuracy", "latency"),
            evolution=EvolutionSpec(population_size=5, generations=2),
            use_gp_cost_model=False),
        accelerator=AcceleratorSpec(device="XCKU115", pe=32,
                                    clock_mhz=150.0),
        generate=GenerateSpec(aim="latency", emit=True, outdir="out",
                              project_name="sweep"),
    )


class TestRoundTrip:
    def test_dict_round_trip(self, full_spec):
        rebuilt = ExperimentSpec.from_dict(full_spec.to_dict())
        assert rebuilt == full_spec
        assert rebuilt.to_dict() == full_spec.to_dict()

    def test_json_round_trip(self, full_spec):
        rebuilt = ExperimentSpec.from_json(full_spec.to_json())
        assert rebuilt == full_spec

    def test_file_round_trip(self, full_spec, tmp_path):
        path = str(tmp_path / "spec.json")
        full_spec.save(path)
        assert ExperimentSpec.load(path) == full_spec

    def test_defaults_round_trip(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert spec.schema_version == SCHEMA_VERSION

    def test_minimal_dict_fills_defaults(self):
        spec = ExperimentSpec.from_dict({"model": "lenet_slim"})
        assert spec.model == "lenet_slim"
        assert spec.train.epochs == TrainSpec().epochs
        assert spec.accelerator is None


class TestValidation:
    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SpecError, match="unknown field"):
            ExperimentSpec.from_dict({"model": "lenet", "modell": "x"})

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(SpecError, match="unknown field"):
            ExperimentSpec.from_dict(
                {"train": {"epochs": 2, "warmup": 1}})

    def test_unknown_evolution_field_rejected(self):
        with pytest.raises(SpecError, match="unknown field"):
            ExperimentSpec.from_dict(
                {"search": {"evolution": {"pop": 4}}})

    def test_invalid_values_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(dataset_size=0)
        with pytest.raises(SpecError):
            ExperimentSpec(dropout_p=1.5)
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"train": {"epochs": -1}})
        assert ExperimentSpec(mc_samples=MAX_MC_SAMPLES).mc_samples \
            == MAX_MC_SAMPLES
        with pytest.raises(SpecError, match="at most"):
            ExperimentSpec(mc_samples=MAX_MC_SAMPLES + 1)
        with pytest.raises(SpecError, match="at most"):
            ExperimentSpec.from_dict({"mc_samples": 10 ** 9})

    def test_unknown_aim_rejected(self):
        with pytest.raises(SpecError, match=r"aims\[1\] must be one of"):
            SearchSpec(aims=("accuracy", "speed"))

    def test_empty_aims_rejected(self):
        with pytest.raises(SpecError):
            SearchSpec(aims=())

    def test_unknown_device_rejected(self):
        with pytest.raises(SpecError,
                           match=r"accelerator\.device must be one of"):
            AcceleratorSpec(device="XC7Z999")

    def test_unsupported_schema_version_rejected(self):
        with pytest.raises(SpecError, match="schema_version"):
            ExperimentSpec.from_dict({"schema_version": 99})

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecError, match="must be a JSON object"):
            ExperimentSpec.from_dict(["model"])

    def test_type_invalid_values_raise_spec_error(self):
        # Wrong-typed values must surface as SpecError, never TypeError.
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"dropout_p": "0.5"})
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"masksembles_scale": "big"})
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"search": {"aims": 123}})

    def test_unknown_generate_config_letter_rejected(self):
        with pytest.raises(SpecError, match="generate.config"):
            GenerateSpec(config="Z-Z-Z")
        # Valid letters pass at spec level (slot count is checked
        # against the concrete space at generation time).
        assert GenerateSpec(config="B-K-M").config == "B-K-M"


class TestIdentity:
    def test_fingerprint_ignores_name(self):
        a = ExperimentSpec(name="a", seed=5)
        b = ExperimentSpec(name="b", seed=5)
        assert a.fingerprint() == b.fingerprint()
        assert a.run_id != b.run_id

    def test_fingerprint_tracks_content(self):
        assert (ExperimentSpec(seed=1).fingerprint()
                != ExperimentSpec(seed=2).fingerprint())

    def test_fingerprint_ignores_generate_section(self):
        # The generate section selects what to emit, not what to
        # compute — changing it must not invalidate resume.
        a = ExperimentSpec(generate=GenerateSpec())
        b = ExperimentSpec(generate=GenerateSpec(aim="latency", emit=True,
                                                 outdir="elsewhere"))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_ignores_num_workers(self):
        # The pooled evaluation path is bit-identical to serial, so a
        # worker-count change must still resume persisted artifacts.
        a = ExperimentSpec(seed=5, num_workers=1)
        b = ExperimentSpec(seed=5, num_workers=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.evaluation_fingerprint() == b.evaluation_fingerprint()

    def test_spec_refuses_retired_engine_key(self):
        # The engine switch is gone: a spec that still carries it is
        # refused naming the key, whatever value it once took.
        plain = ExperimentSpec(seed=5).to_dict()
        for value in ("batched", "looped", "warp", ["batched"]):
            with pytest.raises(SpecError,
                               match=r"unknown field\(s\) \['engine'\] "
                                     r"in spec;"):
                ExperimentSpec.from_dict(dict(plain, engine=value))
        with pytest.raises(TypeError):
            ExperimentSpec(engine="batched")

    def test_train_section_refuses_retired_train_mode_key(self):
        # So is the train section's train_mode switch.
        plain = ExperimentSpec(seed=5).to_dict()
        for value in ("fast", "reference", "turbo"):
            legacy = dict(plain, train=dict(plain["train"],
                                            train_mode=value))
            with pytest.raises(SpecError,
                               match=r"unknown field\(s\) \['train_mode'\] "
                                     r"in spec\.train;"):
                ExperimentSpec.from_dict(legacy)
        with pytest.raises(TypeError):
            TrainSpec(train_mode="fast")

    def test_golden_fingerprints(self):
        # Pinned at the last commit that still had the engine and
        # train_mode fields: removing them moved no identity.
        spec = ExperimentSpec()
        assert spec.fingerprint() == (
            "0ec7664b111f869daf6139aa2963d7a14a9ebc1937b67cace39d4638e0386c0d")
        assert spec.evaluation_fingerprint() == (
            "b2cb66065fd46a6db6753445d941567add747678dfaa6f9fffd1c4add3fcff20")

    def test_evaluation_fingerprint_ignores_search_plan(self):
        # Which candidates get evaluated is the search plan's business;
        # what one evaluation returns is not — budget sweeps share the
        # cross-run cache.
        a = ExperimentSpec(seed=5, search=SearchSpec(
            aims=("accuracy",),
            evolution=EvolutionSpec(population_size=4, generations=2)))
        b = ExperimentSpec(seed=5, search=SearchSpec(
            aims=("accuracy", "latency"),
            evolution=EvolutionSpec(population_size=16, generations=8)))
        assert a.fingerprint() != b.fingerprint()
        assert a.evaluation_fingerprint() == b.evaluation_fingerprint()

    def test_evaluation_fingerprint_tracks_latency_oracle(self):
        # use_gp_cost_model changes cached latencies, so it must split
        # the cache even though the rest of the search section does not.
        a = ExperimentSpec(seed=5, search=SearchSpec(
            use_gp_cost_model=True))
        b = ExperimentSpec(seed=5, search=SearchSpec(
            use_gp_cost_model=False))
        assert a.evaluation_fingerprint() != b.evaluation_fingerprint()

    def test_evaluation_fingerprint_tracks_content(self):
        assert (ExperimentSpec(seed=1).evaluation_fingerprint()
                != ExperimentSpec(seed=2).evaluation_fingerprint())

    def test_invalid_num_workers_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(num_workers=0)

    def test_with_updates(self):
        spec = ExperimentSpec(name="base", seed=0)
        other = spec.with_updates(seed=9)
        assert other.seed == 9
        assert spec.seed == 0


class TestDerivedConfigs:
    def test_accelerator_section_resolves(self, full_spec):
        config = full_spec.accelerator_config()
        assert config.pe == 32
        assert config.device is XCKU115
        assert config.mc_samples == full_spec.mc_samples
        assert config.effective_clock_mhz == 150.0

    def test_preset_fallback(self):
        config = ExperimentSpec(model="resnet18_slim").accelerator_config()
        assert config.pe == 552  # calibrated ResNet18 preset

    def test_train_section_resolves(self, full_spec):
        cfg = full_spec.train.to_config()
        assert cfg.epochs == 3
        assert cfg.optimizer == "sgd"

    def test_evolution_section_resolves(self, full_spec):
        cfg = full_spec.search.evolution.to_config()
        assert cfg.population_size == 5
        assert cfg.generations == 2
