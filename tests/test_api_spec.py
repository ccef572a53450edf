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

    def test_unknown_aim_rejected(self):
        with pytest.raises(SpecError, match="unknown aim"):
            SearchSpec(aims=("accuracy", "speed"))

    def test_empty_aims_rejected(self):
        with pytest.raises(SpecError):
            SearchSpec(aims=())

    def test_unknown_device_rejected(self):
        with pytest.raises(SpecError, match="unknown device"):
            AcceleratorSpec(device="XC7Z999")

    def test_unsupported_schema_version_rejected(self):
        with pytest.raises(SpecError, match="schema_version"):
            ExperimentSpec.from_dict({"schema_version": 99})

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecError, match="mapping"):
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

    def test_fingerprint_ignores_train_mode(self):
        # Spec files written while the train_mode/engine switches
        # existed keep their run ids and evaluation-cache keys: the
        # retired keys load with a deprecation notice and are dropped.
        plain = ExperimentSpec(seed=5).to_dict()
        legacy = dict(plain, engine="looped",
                      train=dict(plain["train"], train_mode="reference"))
        with pytest.warns(DeprecationWarning) as caught:
            loaded = ExperimentSpec.from_dict(legacy)
        messages = " ".join(str(w.message) for w in caught)
        assert "'engine'" in messages and "'train_mode'" in messages
        a = ExperimentSpec.from_dict(plain)
        assert loaded.fingerprint() == a.fingerprint()
        assert loaded.evaluation_fingerprint() == a.evaluation_fingerprint()
        # Other train fields still change identity.
        c = ExperimentSpec(seed=5, train=TrainSpec(epochs=9))
        assert a.fingerprint() != c.fingerprint()

    def test_train_mode_round_trips_and_validates(self):
        # Every value the retired keys ever accepted loads and is gone
        # from the round-tripped form; any other value is still refused.
        for value in ("fast", "reference"):
            with pytest.warns(DeprecationWarning, match="train_mode"):
                train = TrainSpec.from_dict({"epochs": 2,
                                             "train_mode": value})
            assert train == TrainSpec(epochs=2)
            assert "train_mode" not in train.to_dict()
        for value in ("batched", "looped"):
            with pytest.warns(DeprecationWarning, match="engine"):
                spec = ExperimentSpec.from_dict({"engine": value})
            assert "engine" not in spec.to_dict()
        with pytest.raises(SpecError, match="train_mode"):
            TrainSpec.from_dict({"train_mode": "turbo"})
        with pytest.raises(SpecError, match="engine"):
            ExperimentSpec.from_dict({"engine": "warp"})
        with pytest.raises(SpecError, match="engine"):
            ExperimentSpec.from_dict({"engine": ["batched"]})
        with pytest.raises(TypeError):
            TrainSpec(train_mode="fast")
        with pytest.raises(TypeError):
            ExperimentSpec(engine="batched")

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
