"""Declarative experiment specifications (``repro.api`` input layer).

An :class:`ExperimentSpec` captures *everything* an experiment needs —
model, dataset, dropout-design knobs, training/evolution
hyper-parameters, accelerator configuration and the generation target —
as one plain, JSON-round-trippable record with a versioned schema.

Design rules:

* **Declarative** — a spec contains only data, never live objects, so
  it can be stored, diffed, hashed and shipped between processes.
* **Strict** — :meth:`ExperimentSpec.from_dict` rejects unknown fields
  at every nesting level and validates values, so a typo in a spec file
  fails loudly instead of silently falling back to a default.
* **Stable identity** — :meth:`ExperimentSpec.fingerprint` hashes the
  canonical JSON form (minus the display name), giving every run a
  deterministic id that the artifact store keys resume on.

Retired keys: specs written before the ``engine`` and
``train.train_mode`` switches were removed still load.  Their valid
values (``batched``/``looped`` and ``fast``/``reference``) are dropped
with a :class:`DeprecationWarning` — inference always runs the fused MC
engine and training the fast path, both bit-identical to the values
they replace, and neither key ever entered a fingerprint.  Any other
value is still a :class:`SpecError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.hw.device import DEVICE_CATALOG, get_device
from repro.hw.fixed_point import FixedPointFormat
from repro.hw.perf import AcceleratorConfig
from repro.search.async_ea import AsyncEAConfig, FidelityRung
from repro.search.evolution import EvolutionConfig
from repro.search.objective import AIM_PRESETS
from repro.search.space import config_from_string
from repro.search.trainer import TrainConfig
from repro.utils.validation import check_positive_int

#: Current spec schema version; bump on incompatible changes.
SCHEMA_VERSION = 1

#: Retired execution switches and the values they used to accept (see
#: the module docstring).
_RETIRED_KEYS = {
    "engine": ("batched", "looped"),
    "train_mode": ("fast", "reference"),
}


class SpecError(ValueError):
    """A spec dict/file failed validation."""


def _require_mapping(data: Any, where: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise SpecError(f"{where} must be a mapping, got "
                        f"{type(data).__name__}")
    return data


def _check_unknown(data: Mapping, cls, where: str) -> None:
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise SpecError(f"unknown field(s) {sorted(unknown)} in {where}; "
                        f"allowed: {sorted(allowed)}")


def _drop_retired(data: Dict[str, Any], key: str, where: str) -> None:
    """Drop a retired key from ``data``, refusing values it never took."""
    if key not in data:
        return
    value = data.pop(key)
    accepted = _RETIRED_KEYS[key]
    if value not in accepted:
        raise SpecError(f"unknown {key} {value!r} in {where}; the key is "
                        f"retired (its old values {list(accepted)} load "
                        f"and are ignored)")
    warnings.warn(f"{key!r} in {where} is deprecated and ignored: every "
                  f"run now takes the {key}={accepted[0]!r} path",
                  DeprecationWarning, stacklevel=3)


def _from_flat_dict(cls, data: Any, where: str):
    """Build a flat (non-nested) spec dataclass strictly from a dict."""
    data = _require_mapping(data, where)
    _check_unknown(data, cls, where)
    try:
        return cls(**data)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid {where}: {exc}") from exc


@dataclass
class TrainSpec:
    """Supernet-training section (maps onto :class:`TrainConfig`)."""

    epochs: int = 8
    batch_size: int = 32
    lr: float = 2e-3
    weight_decay: float = 0.0
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        # Delegate range checks to the runtime config's validation.
        self.to_config()

    def to_config(self) -> TrainConfig:
        """The runtime :class:`TrainConfig` this section describes."""
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           lr=self.lr, weight_decay=self.weight_decay,
                           optimizer=self.optimizer)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "TrainSpec":
        data = dict(_require_mapping(data, "train spec"))
        _drop_retired(data, "train_mode", "train spec")
        return _from_flat_dict(cls, data, "train spec")


@dataclass
class EvolutionSpec:
    """Evolutionary-search section (maps onto :class:`EvolutionConfig`)."""

    population_size: int = 16
    generations: int = 8
    parent_fraction: float = 0.5
    mutation_fraction: float = 0.5
    mutation_prob: float = 0.25
    seed_uniform: bool = True

    def __post_init__(self) -> None:
        self.to_config()

    def to_config(self) -> EvolutionConfig:
        """The runtime :class:`EvolutionConfig` this section describes."""
        return EvolutionConfig(
            population_size=self.population_size,
            generations=self.generations,
            parent_fraction=self.parent_fraction,
            mutation_fraction=self.mutation_fraction,
            mutation_prob=self.mutation_prob,
            seed_uniform=self.seed_uniform)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "EvolutionSpec":
        return _from_flat_dict(cls, data, "evolution spec")


@dataclass
class FidelityRungSpec:
    """One screening rung of the asynchronous multi-fidelity ladder.

    Maps onto :class:`repro.search.async_ea.FidelityRung`: candidates
    are first scored with ``mc_samples`` Monte-Carlo passes (``null``
    keeps the experiment's full ``T``) on a ``data_fraction`` subset of
    the validation/OOD rows, and only the top ``keep_fraction`` advance
    toward the full-fidelity evaluation.
    """

    mc_samples: Optional[int] = None
    data_fraction: float = 1.0
    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        # Delegate range checks to the runtime config's validation.
        try:
            self.to_config()
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid fidelity rung: {exc}") from exc

    def to_config(self) -> FidelityRung:
        """The runtime :class:`FidelityRung` this section describes."""
        return FidelityRung(mc_samples=self.mc_samples,
                            data_fraction=self.data_fraction,
                            keep_fraction=self.keep_fraction)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "FidelityRungSpec":
        return _from_flat_dict(cls, data, "fidelity rung spec")


#: Search algorithms the ``search.algorithm`` field may select.
SEARCH_ALGORITHMS = ("lockstep", "async_ea")


@dataclass
class SearchSpec:
    """Search section: which aims to optimize and how.

    Attributes:
        aims: aim presets to search, one evolutionary run each; all
            runs share the trained supernet and the memoized evaluator.
        evolution: EA hyper-parameters shared by every aim.
        use_gp_cost_model: use the fast GP latency model inside the EA
            loop (paper default); False uses the exact analytic oracle.
        algorithm: ``"lockstep"`` (generation-synchronous EA, the
            default) or ``"async_ea"`` (steady-state asynchronous EA,
            :mod:`repro.search.async_ea`).
        fidelity_rungs: successive-halving screening ladder for
            ``async_ea``; empty evaluates every candidate at full
            fidelity.
        surrogate_promotion: let the ``async_ea`` GP surrogate rescue
            screened-out candidates it predicts to beat the incumbent.
    """

    aims: Tuple[str, ...] = ("accuracy", "ece", "ape", "latency")
    evolution: EvolutionSpec = field(default_factory=EvolutionSpec)
    use_gp_cost_model: bool = True
    algorithm: str = "lockstep"
    fidelity_rungs: Tuple[FidelityRungSpec, ...] = ()
    surrogate_promotion: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.aims, str):
            raise SpecError("search.aims must be a list of aim names")
        self.aims = tuple(self.aims)
        if not self.aims:
            raise SpecError("search.aims must name at least one aim")
        for aim in self.aims:
            if aim not in AIM_PRESETS:
                raise SpecError(f"unknown aim {aim!r}; "
                                f"presets: {sorted(AIM_PRESETS)}")
        if len(set(self.aims)) != len(self.aims):
            raise SpecError(f"duplicate aims in {list(self.aims)}")
        if self.algorithm not in SEARCH_ALGORITHMS:
            raise SpecError(f"unknown search.algorithm "
                            f"{self.algorithm!r}; choose from "
                            f"{list(SEARCH_ALGORITHMS)}")
        self.fidelity_rungs = tuple(self.fidelity_rungs)
        if self.algorithm == "lockstep":
            if self.fidelity_rungs:
                raise SpecError(
                    "search.fidelity_rungs requires "
                    "search.algorithm == 'async_ea'")
            if self.surrogate_promotion:
                raise SpecError(
                    "search.surrogate_promotion requires "
                    "search.algorithm == 'async_ea'")

    def to_async_config(self) -> AsyncEAConfig:
        """The runtime :class:`AsyncEAConfig` this section describes."""
        return AsyncEAConfig(
            evolution=self.evolution.to_config(),
            rungs=tuple(rung.to_config() for rung in self.fidelity_rungs),
            surrogate_promotion=self.surrogate_promotion)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "aims": list(self.aims),
            "evolution": self.evolution.to_dict(),
            "use_gp_cost_model": self.use_gp_cost_model,
            "algorithm": self.algorithm,
            "fidelity_rungs": [rung.to_dict()
                               for rung in self.fidelity_rungs],
            "surrogate_promotion": self.surrogate_promotion,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "SearchSpec":
        data = dict(_require_mapping(data, "search spec"))
        _check_unknown(data, cls, "search spec")
        if "evolution" in data:
            data["evolution"] = EvolutionSpec.from_dict(data["evolution"])
        if "fidelity_rungs" in data:
            rungs = data["fidelity_rungs"]
            if isinstance(rungs, (str, Mapping)):
                raise SpecError(
                    "search.fidelity_rungs must be a list of rung specs")
            data["fidelity_rungs"] = tuple(
                FidelityRungSpec.from_dict(rung) for rung in rungs)
        try:
            return cls(**data)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid search spec: {exc}") from exc


@dataclass
class AcceleratorSpec:
    """Accelerator section (maps onto :class:`AcceleratorConfig`).

    Omit the whole section to use the calibrated per-model preset
    (:func:`repro.hw.accelerator.recommended_config`).
    """

    device: str = "XCKU115"
    clock_mhz: Optional[float] = None
    pe: int = 64
    vector_lanes: int = 8
    dropout_lanes: int = 1
    weight_residency: float = 0.35
    weight_sparsity: float = 0.0
    total_bits: int = 16
    fraction_bits: int = 8

    def __post_init__(self) -> None:
        if self.device not in DEVICE_CATALOG:
            raise SpecError(f"unknown device {self.device!r}; "
                            f"catalog: {sorted(DEVICE_CATALOG)}")
        # mc_samples comes from the experiment level at to_config time;
        # validate the rest through the runtime config now.
        self.to_config(mc_samples=1)

    def to_config(self, *, mc_samples: int) -> AcceleratorConfig:
        """The runtime :class:`AcceleratorConfig` this section describes."""
        return AcceleratorConfig(
            device=get_device(self.device),
            clock_mhz=self.clock_mhz,
            pe=self.pe,
            vector_lanes=self.vector_lanes,
            dropout_lanes=self.dropout_lanes,
            weight_residency=self.weight_residency,
            weight_sparsity=self.weight_sparsity,
            mc_samples=mc_samples,
            fixed_point=FixedPointFormat(total_bits=self.total_bits,
                                         fraction_bits=self.fraction_bits))

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "AcceleratorSpec":
        return _from_flat_dict(cls, data, "accelerator spec")


@dataclass
class GenerateSpec:
    """Generation section: which configuration to characterize/emit.

    Attributes:
        aim: searched aim whose winner is generated; None uses the
            first entry of ``search.aims``.
        config: explicit Table-2 configuration string (e.g. ``"B-K-M"``)
            overriding ``aim`` — allows generation without a search.
        emit: write the HLS project to disk (otherwise only the
            synthesis report is produced).
        outdir: HLS project output directory (used when ``emit``).
        project_name: HLS top-level project name.
    """

    aim: Optional[str] = None
    config: Optional[str] = None
    emit: bool = False
    outdir: Optional[str] = None
    project_name: str = "accelerator"

    def __post_init__(self) -> None:
        if self.aim is not None and self.aim not in AIM_PRESETS:
            raise SpecError(f"unknown generate.aim {self.aim!r}; "
                            f"presets: {sorted(AIM_PRESETS)}")
        if self.config is not None:
            # Design letters are space-independent, so a typo fails at
            # spec load; slot count/admissibility is checked at
            # generation time against the concrete search space.
            try:
                config_from_string(self.config)
            except (KeyError, ValueError) as exc:
                raise SpecError(
                    f"invalid generate.config {self.config!r}: "
                    f"{exc.args[0] if exc.args else exc}") from exc
        if not self.project_name:
            raise SpecError("generate.project_name must be non-empty")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "GenerateSpec":
        return _from_flat_dict(cls, data, "generate spec")


@dataclass
class ExperimentSpec:
    """The fully declarative description of one experiment.

    Top-level fields mirror the paper's Phase-1 specification (model,
    dataset, dropout-design knobs, master seed); the nested sections
    configure the remaining phases.  See the module docstring for the
    design rules.
    """

    name: str = "experiment"
    model: str = "lenet"
    dataset: str = "mnist_like"
    image_size: Optional[int] = None
    dataset_size: int = 900
    ood_size: int = 200
    mc_samples: int = 3
    num_workers: int = 1
    dropout_p: float = 0.15
    masksembles_scale: float = 1.7
    num_masks: int = 4
    block_size: int = 3
    seed: int = 0
    train: TrainSpec = field(default_factory=TrainSpec)
    search: SearchSpec = field(default_factory=SearchSpec)
    accelerator: Optional[AcceleratorSpec] = None
    generate: GenerateSpec = field(default_factory=GenerateSpec)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise SpecError(
                f"unsupported schema_version {self.schema_version!r} "
                f"(this build supports {SCHEMA_VERSION})")
        if not self.name or not isinstance(self.name, str):
            raise SpecError("name must be a non-empty string")
        if not self.model or not isinstance(self.model, str):
            raise SpecError("model must be a non-empty string")
        if not self.dataset or not isinstance(self.dataset, str):
            raise SpecError("dataset must be a non-empty string")
        try:
            check_positive_int(self.dataset_size, "dataset_size")
            check_positive_int(self.ood_size, "ood_size")
            check_positive_int(self.mc_samples, "mc_samples")
            check_positive_int(self.num_workers, "num_workers")
            check_positive_int(self.num_masks, "num_masks")
            check_positive_int(self.block_size, "block_size")
            if self.image_size is not None:
                check_positive_int(self.image_size, "image_size")
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc)) from exc
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError(f"seed must be an int, got {self.seed!r}")
        if (not isinstance(self.dropout_p, (int, float))
                or isinstance(self.dropout_p, bool)
                or not 0.0 < self.dropout_p < 1.0):
            raise SpecError(
                f"dropout_p must be a number in (0, 1), "
                f"got {self.dropout_p!r}")
        if (not isinstance(self.masksembles_scale, (int, float))
                or isinstance(self.masksembles_scale, bool)
                or self.masksembles_scale <= 1.0):
            raise SpecError(f"masksembles_scale must be a number "
                            f"exceeding 1.0, got {self.masksembles_scale!r}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; ``from_dict`` inverts it exactly."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "model": self.model,
            "dataset": self.dataset,
            "image_size": self.image_size,
            "dataset_size": self.dataset_size,
            "ood_size": self.ood_size,
            "mc_samples": self.mc_samples,
            "num_workers": self.num_workers,
            "dropout_p": self.dropout_p,
            "masksembles_scale": self.masksembles_scale,
            "num_masks": self.num_masks,
            "block_size": self.block_size,
            "seed": self.seed,
            "train": self.train.to_dict(),
            "search": self.search.to_dict(),
            "accelerator": (self.accelerator.to_dict()
                            if self.accelerator is not None else None),
            "generate": self.generate.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentSpec":
        """Strictly parse a spec dict (see module docstring)."""
        data = dict(_require_mapping(data, "experiment spec"))
        _drop_retired(data, "engine", "experiment spec")
        _check_unknown(data, cls, "experiment spec")
        if "train" in data:
            data["train"] = TrainSpec.from_dict(data["train"])
        if "search" in data:
            data["search"] = SearchSpec.from_dict(data["search"])
        if "generate" in data:
            data["generate"] = GenerateSpec.from_dict(data["generate"])
        if data.get("accelerator") is not None:
            data["accelerator"] = AcceleratorSpec.from_dict(
                data["accelerator"])
        try:
            return cls(**data)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid experiment spec: {exc}") from exc

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a JSON spec produced by :meth:`to_json` (or by hand)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        """Write the spec as a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        """Read a JSON spec file.

        Raises :class:`SpecError` (not a raw ``OSError``/decode error)
        when the file is missing, unreadable or not valid UTF-8 — the
        CLI surfaces that as a clean usage error.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecError(f"cannot read spec file {path!r}: "
                            f"{exc}") from exc
        return cls.from_json(text)

    # ------------------------------------------------------------------
    # Identity / derived configuration
    # ------------------------------------------------------------------
    def _result_relevant_payload(self) -> Dict[str, Any]:
        """The spec fields that can influence computed results.

        Single source of truth for both identity hashes: drops the
        display ``name`` and the ``generate`` section (they select what
        to emit, not what to compute) and the ``num_workers`` execution
        knob (the process-pool evaluation path is bit-identical to the
        serial one — see :mod:`repro.search.parallel` — so it changes
        how results are computed, never what they are).
        A field excluded here must be excluded from *both* hashes;
        keeping one exclusion list prevents the resume key and the
        evaluation-cache key from silently desynchronizing.
        """
        payload = self.to_dict()
        payload.pop("name")
        payload.pop("generate")
        payload.pop("num_workers")
        return payload

    @staticmethod
    def _hash_payload(payload: Dict[str, Any]) -> str:
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def fingerprint(self) -> str:
        """SHA-256 over the result-relevant canonical JSON form.

        Hashes exactly :meth:`_result_relevant_payload` (see there for
        what is excluded and why), so a run may change its name,
        generation target or worker count and still resume its
        persisted train/search artifacts.  The fingerprint forms the
        tail of :attr:`run_id`, which keys resumable runs in the store.
        """
        return self._hash_payload(self._result_relevant_payload())

    def evaluation_fingerprint(self) -> str:
        """Content key of a single candidate evaluation's inputs.

        Keys the cross-run :class:`repro.api.artifacts.EvaluationCache`:
        two specs share cache entries exactly when every field that can
        influence an evaluated candidate's result agrees.  On top of
        the :meth:`_result_relevant_payload` exclusions, the ``search``
        section's aim list and EA hyper-parameters are dropped: they
        decide *which* candidates get evaluated, never what any one
        evaluation returns, so e.g. a budget sweep reuses one shared
        cache.  ``search.use_gp_cost_model`` *is* retained — it
        changes the latency oracle and therefore the cached numbers.
        """
        payload = self._result_relevant_payload()
        payload.pop("search")
        payload["use_gp_cost_model"] = self.search.use_gp_cost_model
        return self._hash_payload(payload)

    @property
    def run_id(self) -> str:
        """Filesystem-safe run identifier: ``<name>-<fingerprint12>``."""
        safe = "".join(c if c.isalnum() or c in "-_." else "_"
                       for c in self.name)
        return f"{safe}-{self.fingerprint()[:12]}"

    def accelerator_config(self) -> AcceleratorConfig:
        """Resolve the accelerator knobs (explicit section or preset)."""
        # Imported here to avoid a module-level repro.hw.accelerator
        # cycle (accelerator imports repro.search).
        from repro.hw.accelerator import recommended_config
        if self.accelerator is not None:
            return self.accelerator.to_config(mc_samples=self.mc_samples)
        return recommended_config(self.model, mc_samples=self.mc_samples)

    def with_updates(self, **changes: Any) -> "ExperimentSpec":
        """A copy of this spec with top-level fields replaced."""
        return dataclasses.replace(self, **changes)


__all__ = [
    "SCHEMA_VERSION",
    "SEARCH_ALGORITHMS",
    "AcceleratorSpec",
    "EvolutionSpec",
    "ExperimentSpec",
    "FidelityRungSpec",
    "GenerateSpec",
    "SearchSpec",
    "SpecError",
    "TrainSpec",
]
