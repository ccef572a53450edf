"""Declarative experiment specifications (``repro.api`` input layer).

An :class:`ExperimentSpec` captures *everything* an experiment needs —
model, dataset, dropout-design knobs, training/evolution
hyper-parameters, accelerator configuration and the generation target —
as one plain, JSON-round-trippable record with a versioned schema.

Design rules:

* **Declarative** — a spec contains only data, never live objects, so
  it can be stored, diffed, hashed and shipped between processes.
* **Strict** — every field is declared once and read by
  :mod:`repro.utils.fields`' rule, from JSON and in ``__post_init__``
  alike, so a typo in a spec file fails loudly instead of silently
  falling back to a default.
* **Stable identity** — :meth:`ExperimentSpec.fingerprint` hashes the
  canonical JSON form (minus the display name), giving every run a
  deterministic id that the artifact store keys resume on.

Inference always runs the fused MC engine and training the fast path:
the retired ``engine`` and ``train.train_mode`` keys are unknown fields
like any other, so a spec that carries either is a :class:`SpecError`
naming the key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.bayes.mc import check_mc_samples
from repro.hw.device import DEVICE_CATALOG, get_device
from repro.hw.fixed_point import FixedPointFormat
from repro.hw.perf import AcceleratorConfig
from repro.search.async_ea import AsyncEAConfig, FidelityRung
from repro.search.evolution import EvolutionConfig
from repro.search.objective import AIM_PRESETS
from repro.search.space import config_from_string
from repro.search.trainer import TrainConfig
from repro.utils.fields import (
    BOOL,
    INT,
    NAME,
    NUMBER,
    STR,
    Choice,
    Declared,
    Int,
    ListOf,
    Number,
    Record,
    check_fields,
    declare,
)

#: Current spec schema version; bump on incompatible changes.
SCHEMA_VERSION = 1

_COUNT = Int(least=1)
_AIM = Choice(*sorted(AIM_PRESETS))


class SpecError(ValueError):
    """A spec dict/file failed validation."""


def _check(section, where: str, delegate: Callable[[], object]) -> None:
    """The field rule on ``section`` (specs built in Python obey it
    too), then the range checks it delegates to its runtime config,
    refused as :class:`SpecError`."""
    check_fields(section, SpecError, where)
    try:
        delegate()
    except ValueError as exc:
        raise SpecError(f"invalid {where}: {exc}") from exc


@dataclass
class TrainSpec(Declared):
    """Supernet-training section (maps onto :class:`TrainConfig`)."""

    epochs: int = declare(INT, 8)
    batch_size: int = declare(INT, 32)
    lr: float = declare(NUMBER, 2e-3)
    weight_decay: float = declare(NUMBER, 0.0)
    optimizer: str = declare(STR, "adam")

    def __post_init__(self) -> None:
        _check(self, "spec.train", self.to_config)

    def to_config(self) -> TrainConfig:
        """The runtime :class:`TrainConfig` this section describes."""
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           lr=self.lr, weight_decay=self.weight_decay,
                           optimizer=self.optimizer)


@dataclass
class EvolutionSpec(Declared):
    """Evolutionary-search section (maps onto :class:`EvolutionConfig`)."""

    population_size: int = declare(INT, 16)
    generations: int = declare(INT, 8)
    parent_fraction: float = declare(NUMBER, 0.5)
    mutation_fraction: float = declare(NUMBER, 0.5)
    mutation_prob: float = declare(NUMBER, 0.25)
    seed_uniform: bool = declare(BOOL, True)

    def __post_init__(self) -> None:
        _check(self, "spec.search.evolution", self.to_config)

    def to_config(self) -> EvolutionConfig:
        """The runtime :class:`EvolutionConfig` this section describes."""
        return EvolutionConfig(
            population_size=self.population_size,
            generations=self.generations,
            parent_fraction=self.parent_fraction,
            mutation_fraction=self.mutation_fraction,
            mutation_prob=self.mutation_prob,
            seed_uniform=self.seed_uniform)


@dataclass
class FidelityRungSpec(Declared):
    """One screening rung of the asynchronous multi-fidelity ladder.

    Maps onto :class:`repro.search.async_ea.FidelityRung`: candidates
    are first scored with ``mc_samples`` Monte-Carlo passes (``null``
    keeps the experiment's full ``T``) on a ``data_fraction`` subset of
    the validation/OOD rows, and only the top ``keep_fraction`` advance
    toward the full-fidelity evaluation.
    """

    mc_samples: Optional[int] = declare(INT, None)
    data_fraction: float = declare(NUMBER, 1.0)
    keep_fraction: float = declare(NUMBER, 0.5)

    def __post_init__(self) -> None:
        _check(self, "spec.search.fidelity_rungs", self.to_config)

    def to_config(self) -> FidelityRung:
        """The runtime :class:`FidelityRung` this section describes."""
        return FidelityRung(mc_samples=self.mc_samples,
                            data_fraction=self.data_fraction,
                            keep_fraction=self.keep_fraction)


#: Search algorithms the ``search.algorithm`` field may select.
SEARCH_ALGORITHMS = ("lockstep", "async_ea")


@dataclass
class SearchSpec(Declared):
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

    aims: Tuple[str, ...] = declare(ListOf(_AIM, least=1),
                                    ("accuracy", "ece", "ape", "latency"))
    evolution: EvolutionSpec = declare(Record(EvolutionSpec),
                                       factory=EvolutionSpec)
    use_gp_cost_model: bool = declare(BOOL, True)
    algorithm: str = declare(Choice(*SEARCH_ALGORITHMS), "lockstep")
    fidelity_rungs: Tuple[FidelityRungSpec, ...] = declare(
        ListOf(Record(FidelityRungSpec)), ())
    surrogate_promotion: bool = declare(BOOL, False)

    def __post_init__(self) -> None:
        check_fields(self, SpecError, "spec.search")
        if len(set(self.aims)) != len(self.aims):
            raise SpecError(f"duplicate aims in {list(self.aims)}")
        for key in ("fidelity_rungs", "surrogate_promotion"):
            if self.algorithm == "lockstep" and getattr(self, key):
                raise SpecError(f"search.{key} requires "
                                f"search.algorithm == 'async_ea'")

    def to_async_config(self) -> AsyncEAConfig:
        """The runtime :class:`AsyncEAConfig` this section describes."""
        return AsyncEAConfig(
            evolution=self.evolution.to_config(),
            rungs=tuple(rung.to_config() for rung in self.fidelity_rungs),
            surrogate_promotion=self.surrogate_promotion)


@dataclass
class AcceleratorSpec(Declared):
    """Accelerator section (maps onto :class:`AcceleratorConfig`).

    Omit the whole section to use the calibrated per-model preset
    (:func:`repro.hw.accelerator.recommended_config`).
    """

    device: str = declare(Choice(*sorted(DEVICE_CATALOG)), "XCKU115")
    clock_mhz: Optional[float] = declare(Number(above=0), None)
    pe: int = declare(INT, 64)
    vector_lanes: int = declare(INT, 8)
    dropout_lanes: int = declare(INT, 1)
    weight_residency: float = declare(NUMBER, 0.35)
    weight_sparsity: float = declare(NUMBER, 0.0)
    total_bits: int = declare(INT, 16)
    fraction_bits: int = declare(INT, 8)

    def __post_init__(self) -> None:
        # mc_samples comes from the experiment level at to_config time;
        # validate the rest through the runtime config now.
        _check(self, "spec.accelerator",
               lambda: self.to_config(mc_samples=1))

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


@dataclass
class GenerateSpec(Declared):
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

    aim: Optional[str] = declare(_AIM, None)
    config: Optional[str] = declare(STR, None)
    emit: bool = declare(BOOL, False)
    outdir: Optional[str] = declare(STR, None)
    project_name: str = declare(NAME, "accelerator")

    def __post_init__(self) -> None:
        check_fields(self, SpecError, "spec.generate")
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


@dataclass
class ExperimentSpec(Declared):
    """The fully declarative description of one experiment.

    Top-level fields mirror the paper's Phase-1 specification (model,
    dataset, dropout-design knobs, master seed); the nested sections
    configure the remaining phases.  See the module docstring for the
    design rules.  ``mc_samples`` (here and in every fidelity rung) is
    at most :data:`repro.bayes.mc.MAX_MC_SAMPLES`.
    """

    name: str = declare(NAME, "experiment")
    model: str = declare(NAME, "lenet")
    dataset: str = declare(NAME, "mnist_like")
    image_size: Optional[int] = declare(_COUNT, None)
    dataset_size: int = declare(_COUNT, 900)
    ood_size: int = declare(_COUNT, 200)
    mc_samples: int = declare(INT, 3)
    num_workers: int = declare(_COUNT, 1)
    dropout_p: float = declare(Number(above=0, below=1), 0.15)
    masksembles_scale: float = declare(Number(above=1), 1.7)
    num_masks: int = declare(_COUNT, 4)
    block_size: int = declare(_COUNT, 3)
    seed: int = declare(INT, 0)
    train: TrainSpec = declare(Record(TrainSpec), factory=TrainSpec)
    search: SearchSpec = declare(Record(SearchSpec), factory=SearchSpec)
    accelerator: Optional[AcceleratorSpec] = declare(
        Record(AcceleratorSpec), None)
    generate: GenerateSpec = declare(Record(GenerateSpec),
                                     factory=GenerateSpec)
    schema_version: int = declare(Choice(SCHEMA_VERSION), SCHEMA_VERSION)

    def __post_init__(self) -> None:
        _check(self, "spec", lambda: check_mc_samples(self.mc_samples))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentSpec":
        """Strictly parse a spec dict (see module docstring)."""
        return Record(cls).read(data, SpecError, "spec")

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
