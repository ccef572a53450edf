"""Pipeline stages: the paper's four phases as composable units.

Each stage is a small object with a ``name``, typed inputs/outputs
documented on ``run``, and a uniform ``execute(ctx)`` entry point that
first tries to *resume* from persisted artifacts (when the context
carries an :class:`~repro.api.artifacts.ArtifactStore`) and only then
computes.  All runtime state lives in the :class:`PipelineContext`; the
stages themselves are stateless and reusable across runs.

Artifact layout of a run directory::

    spec.json                  # the experiment spec (Runner writes it)
    specify.json               # search space + dataset record
    train_log.json             # TrainLog round-trip
    supernet_weights.npz       # trained shared weights
    search_<aim>.json          # SearchResult round-trip + wall seconds
    design_<config>.json       # SynthesisReport.to_dict + emitted files

Evaluated candidates persist beside the run directories, in the store
root's cross-run ``eval_cache/`` (:class:`~repro.api.artifacts.
EvaluationCache`), which the :class:`~repro.api.runner.Runner`
installs whenever it has a store.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.api.artifacts import ArtifactError, ArtifactStore, EvaluationCache
from repro.api.spec import SEARCH_ALGORITHMS, ExperimentSpec
from repro.data import (
    DataSplits,
    Dataset,
    gaussian_noise_like,
    make_dataset,
    split_dataset,
)
from repro.hw.accelerator import (
    AcceleratorBuilder,
    AcceleratorDesign,
)
from repro.hw.codegen import EmittedProject, emit_hls_project
from repro.hw.cost_model import GPLatencyModel
from repro.hw.netlist import trace_network
from repro.hw.perf import AcceleratorConfig
from repro.models import build_model
from repro.nn.module import Module
from repro.search import (
    AsyncEvolutionarySearch,
    AsyncSearchResult,
    CandidateEvaluator,
    EvolutionConfig,
    EvolutionarySearch,
    SearchResult,
    SearchSpace,
    Supernet,
    TrainCheckpoint,
    TrainConfig,
    TrainLog,
    get_aim,
    train_supernet,
)
from repro.search.space import (
    DropoutConfig,
    SlotSpec,
    config_from_string,
    config_to_string,
)
from repro.utils.fields import (
    INT,
    MEASURED,
    NAME,
    OBJECT,
    Choice,
    Field,
    Int,
    ListOf,
    Record,
    read_fields,
    table_of,
    write_fields,
)
from repro.utils.rng import derive_seed
from repro.utils.timers import Timer


def _aim_slug(aim_name: str) -> str:
    """Filesystem-safe slug of an aim display name."""
    return "".join(c if c.isalnum() else "_" for c in aim_name.lower())


def build_supernet(spec: ExperimentSpec,
                   input_shape: Tuple[int, ...]) -> Supernet:
    """The canonical Phase-1 model + supernet construction.

    Deterministic in ``spec.seed`` (fixed derivation salts), so the
    choice-bank structure — and therefore the ``state_dict`` key set —
    is identical wherever it is rebuilt.  The single source of truth
    shared by :class:`SpecifyStage` and the serving layer
    (:meth:`repro.serve.Deployment.instantiate` must reconstruct
    exactly what a run trained before loading its weights).
    """
    in_channels, height = int(input_shape[0]), int(input_shape[1])
    model = build_model(spec.model, in_channels=in_channels,
                        image_size=height,
                        rng=derive_seed(spec.seed, 4))
    return Supernet(
        model, p=spec.dropout_p, num_masks=spec.num_masks,
        scale=spec.masksembles_scale, block_size=spec.block_size,
        rng=derive_seed(spec.seed, 5))


@dataclass
class PipelineContext:
    """All runtime state shared by the stages of one experiment run."""

    spec: ExperimentSpec = field(default_factory=ExperimentSpec)
    store: Optional[ArtifactStore] = None
    #: Cross-run candidate-evaluation cache shared by every run under
    #: one store root (set by the Runner; None disables disk reuse).
    eval_cache: Optional[EvaluationCache] = None

    dataset: Optional[Dataset] = None
    splits: Optional[DataSplits] = None
    ood: Optional[Dataset] = None
    model: Optional[Module] = None
    supernet: Optional[Supernet] = None
    space: Optional[SearchSpace] = None
    train_log: Optional[TrainLog] = None
    cost_model: Optional[GPLatencyModel] = None
    evaluator: Optional[CandidateEvaluator] = None
    search_results: Dict[str, SearchResult] = field(default_factory=dict)
    search_seconds: Dict[str, float] = field(default_factory=dict)
    designs: Dict[str, AcceleratorDesign] = field(default_factory=dict)
    projects: Dict[str, EmittedProject] = field(default_factory=dict)
    #: Stage records restored from the artifact store instead of
    #: computed, e.g. ``{"train", "search:Accuracy Optimal"}``.
    resumed: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.accel_config: AcceleratorConfig = self.spec.accelerator_config()
        self.builder = AcceleratorBuilder(self.accel_config)

    @property
    def input_shape(self) -> Tuple[int, ...]:
        """Per-image input shape of the specified dataset."""
        if self.dataset is None:
            raise RuntimeError("run the specify stage first")
        return self.dataset.image_shape


# ----------------------------------------------------------------------
# Context helpers shared by the stages, the CLI and the benchmarks
# ----------------------------------------------------------------------
def ensure_cost_model(ctx: PipelineContext) -> GPLatencyModel:
    """Build (once) the GP latency model over the traced netlist."""
    if ctx.cost_model is None:
        netlist = trace_network(ctx.supernet.model, ctx.input_shape)
        ctx.cost_model = GPLatencyModel(
            netlist, ctx.accel_config,
            rng=derive_seed(ctx.spec.seed, 7))
    return ctx.cost_model


def ensure_evaluator(ctx: PipelineContext,
                     use_gp_cost_model: bool) -> CandidateEvaluator:
    """Build (once) the memoizing, generation-batched evaluator.

    The evaluator scores whole EA generations through the shared
    supernet with the fused MC engine, sharded across
    ``spec.num_workers`` forked worker processes when more than one is
    requested.  Every candidate is evaluated under a deterministic
    per-candidate mask-plan seed derived from the spec seed, so
    results are independent of evaluation order, worker count and
    resume history.  When the Runner installed a cross-run
    :class:`~repro.api.artifacts.EvaluationCache` the evaluator reads
    and writes it keyed by the spec's evaluation fingerprint — so
    resumed, repeated or related runs skip re-evaluating candidates.
    """
    if ctx.evaluator is None:
        if use_gp_cost_model:
            latency_fn = ensure_cost_model(ctx)
        else:
            latency_fn = ctx.builder.latency_oracle(
                ctx.supernet, ctx.input_shape)
        ctx.evaluator = CandidateEvaluator(
            ctx.supernet, ctx.splits.val, ctx.ood,
            latency_fn=latency_fn,
            num_mc_samples=ctx.spec.mc_samples,
            eval_seed=derive_seed(ctx.spec.seed, 9),
            disk_cache=ctx.eval_cache,
            cache_context=ctx.spec.evaluation_fingerprint(),
            num_workers=ctx.spec.num_workers)
    return ctx.evaluator


def build_design(ctx: PipelineContext, config: DropoutConfig, *,
                 outdir: Optional[str] = None,
                 project_name: str = "accelerator"
                 ) -> Tuple[AcceleratorDesign, Optional[EmittedProject]]:
    """Characterize ``config``; with ``outdir``, emit its HLS project.

    Emission compiles ``config`` to fixed point first
    (:func:`repro.hw.compile.compile_deployment` on the context's
    deployment of it) and lowers the project from that kernel, which
    :func:`~repro.hw.codegen.emit_hls_project` refuses when its
    certificate is wrap-possible.
    """
    if ctx.supernet is None:
        raise RuntimeError("run the specify stage first")
    design = ctx.builder.build_for_config(
        ctx.supernet, ctx.input_shape, tuple(config), name=ctx.spec.model)
    project = None
    if outdir is not None:
        # Imported here: repro.serve builds on this module.
        from repro.hw.compile import compile_deployment
        from repro.serve.deployment import Deployment
        kernel = compile_deployment(
            Deployment.from_context(ctx, config=config))
        project = emit_hls_project(design, kernel, outdir, project_name)
    return design, project


class Stage:
    """Base class: resume from artifacts if possible, else compute."""

    #: Stage name (stable; used in ``ctx.resumed`` records).
    name: str = "stage"

    def execute(self, ctx: PipelineContext):
        """Run the stage, preferring persisted artifacts."""
        if ctx.store is not None and self.resume(ctx):
            return self.result(ctx)
        out = self.run(ctx)
        if ctx.store is not None:
            self.persist(ctx)
        return out

    # Subclass hooks -----------------------------------------------------
    def resume(self, ctx: PipelineContext) -> bool:
        """Restore state from the store; True when fully restored."""
        return False

    def run(self, ctx: PipelineContext):
        """Compute the stage outputs into ``ctx``."""
        raise NotImplementedError

    def persist(self, ctx: PipelineContext) -> None:
        """Write this stage's artifacts through ``ctx.store``."""

    def result(self, ctx: PipelineContext):
        """The stage's return value, read back from ``ctx``."""
        return None


class SpecifyStage(Stage):
    """Phase 1 — data, model, supernet and the dropout search space.

    Inputs: ``ctx.spec`` only.  Outputs: ``dataset``, ``splits``,
    ``ood``, ``model``, ``supernet``, ``space``.  Construction is
    deterministic in ``spec.seed``, so this stage always recomputes its
    live objects and persists a descriptive record rather than state.
    """

    name = "specify"
    ARTIFACT = "specify"
    #: The fields of the artifact; its slots build the run's space.
    RECORD = (
        Field("input_shape", ListOf(Int(least=1), least=3, most=3)),
        Field("dataset", NAME),
        Field("dataset_size", INT),
        Field("space_size", INT),
        Field("slots", ListOf(Record(SlotSpec), least=1,
                              build=SearchSpace,
                              unbuild=lambda space: space.slots)),
    )

    def run(self, ctx: PipelineContext) -> SearchSpace:
        if ctx.supernet is not None:
            return ctx.space
        spec = ctx.spec
        dataset = make_dataset(spec.dataset, spec.dataset_size,
                               image_size=spec.image_size,
                               rng=derive_seed(spec.seed, 1)).normalized()
        splits = split_dataset(dataset, rng=derive_seed(spec.seed, 2))
        ood = gaussian_noise_like(splits.train, spec.ood_size,
                                  rng=derive_seed(spec.seed, 3))
        supernet = build_supernet(spec, dataset.image_shape)
        ctx.dataset = dataset
        ctx.splits = splits
        ctx.ood = ood
        ctx.model = supernet.model
        ctx.supernet = supernet
        ctx.space = supernet.space
        return supernet.space

    def persist(self, ctx: PipelineContext) -> None:
        ctx.store.save_json(self.ARTIFACT, write_fields({
            "input_shape": ctx.input_shape, "dataset": ctx.spec.dataset,
            "dataset_size": len(ctx.dataset.images),
            "space_size": ctx.space.size, "slots": ctx.space}, self.RECORD))

    def result(self, ctx: PipelineContext) -> SearchSpace:
        return ctx.space


class StoreTrainCheckpointer:
    """Epoch-granular training checkpoints through an :class:`ArtifactStore`.

    Implements the checkpointer protocol of
    :func:`repro.search.trainer.train_supernet`.  Every save writes one
    *single* ``.npz`` artifact holding the model and optimizer arrays
    plus a ``meta`` entry (the JSON bookkeeping — epoch count, loss
    history, RNG state and a context key — encoded as a ``uint8``
    byte array), so the whole checkpoint is published by one atomic
    rename: a killed run can never leave a torn half-checkpoint, and
    any unreadable or context-mismatched file simply loads as ``None``
    (costing a fresh run, never a wrong resume).

    The context key binds a checkpoint to the spec fingerprint and the
    effective training hyper-parameters.
    """

    ARTIFACT = "train_checkpoint"
    _META = "meta"
    _MODEL = "model/"
    _OPTIM = "optim/"

    def __init__(self, store: ArtifactStore, context: str) -> None:
        self.store = store
        self.context = str(context)
        #: The fields of the meta: this context, then the checkpoint's.
        self.meta_fields = ((Field("context", Choice(self.context)),)
                            + table_of(TrainCheckpoint))

    @staticmethod
    def context_key(spec_fingerprint: str, config: TrainConfig) -> str:
        """Checkpoint validity key (fingerprint + training config)."""
        return spec_fingerprint + ":" + json.dumps(
            dataclasses.asdict(config), sort_keys=True)

    def save(self, checkpoint: TrainCheckpoint) -> None:
        meta = write_fields(dict(vars(checkpoint), context=self.context),
                            self.meta_fields)
        arrays = {self._META: np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"),
            dtype=np.uint8)}
        for prefix, state in ((self._MODEL, checkpoint.model_state),
                              (self._OPTIM, checkpoint.optimizer_state)):
            arrays.update((prefix + key, value)
                          for key, value in state.items())
        self.store.save_state(self.ARTIFACT, arrays)

    def load(self) -> Optional[TrainCheckpoint]:
        if not self.store.has_state(self.ARTIFACT):
            return None
        try:
            arrays = self.store.load_state(self.ARTIFACT)
            meta = read_fields(
                json.loads(bytes(arrays[self._META]).decode("utf-8")),
                self.meta_fields, ArtifactError, self.ARTIFACT)
        except Exception:  # torn, foreign or malformed file == no checkpoint
            return None
        del meta["context"]
        model_state, optimizer_state = (
            {key[len(prefix):]: value for key, value in arrays.items()
             if key.startswith(prefix)}
            for prefix in (self._MODEL, self._OPTIM))
        return TrainCheckpoint(model_state=model_state,
                               optimizer_state=optimizer_state, **meta)


class TrainStage(Stage):
    """Phase 2 — one-shot SPOS supernet training.

    Inputs: specify-stage outputs plus ``spec.train``.  Outputs:
    ``train_log`` and trained ``supernet`` weights.  Resumable at two
    granularities: a finished run restores weights and log from
    ``supernet_weights.npz``/``train_log.json``, and an *interrupted*
    run resumes from the epoch-granular ``train_checkpoint.npz``
    (written after every completed epoch, removed once the final
    artifacts are persisted) without re-paying any completed epoch.
    """

    name = "train"
    ARTIFACT = "train_log"
    WEIGHTS = "supernet_weights"

    def execute(self, ctx: PipelineContext,
                config: Optional[TrainConfig] = None) -> TrainLog:
        if ctx.supernet is None:
            SpecifyStage().execute(ctx)
        # An explicit override config bypasses resume: the persisted
        # weights were produced under the spec's training section.
        if config is not None:
            self._train(ctx, config)
            if ctx.store is not None:
                self.persist(ctx)
            return ctx.train_log
        return super().execute(ctx)

    def _checkpointer(self, ctx: PipelineContext,
                      config: TrainConfig) -> Optional[StoreTrainCheckpointer]:
        if ctx.store is None:
            return None
        return StoreTrainCheckpointer(
            ctx.store, StoreTrainCheckpointer.context_key(
                ctx.spec.fingerprint(), config))

    def _train(self, ctx: PipelineContext, config: TrainConfig) -> None:
        checkpointer = self._checkpointer(ctx, config)
        ctx.train_log = train_supernet(
            ctx.supernet, ctx.splits.train, config,
            rng=derive_seed(ctx.spec.seed, 6),
            checkpoint=checkpointer)

    def resume(self, ctx: PipelineContext) -> bool:
        store = ctx.store
        if not (store.has(self.ARTIFACT) and store.has_state(self.WEIGHTS)):
            return False
        # Tolerant reads: a torn weights or log artifact means "not
        # trained yet" — retrain rather than crash or load partial
        # state (both artifacts must load whole to resume).
        weights = store.try_load_state(self.WEIGHTS)
        log_payload = store.try_load_json(self.ARTIFACT)
        if weights is None or log_payload is None:
            return False
        ctx.train_log = Record(TrainLog).read(log_payload, ArtifactError,
                                              self.ARTIFACT)
        ctx.supernet.load_state_dict(weights)
        ctx.resumed.add(self.name)
        return True

    def run(self, ctx: PipelineContext) -> TrainLog:
        self._train(ctx, ctx.spec.train.to_config())
        return ctx.train_log

    def persist(self, ctx: PipelineContext) -> None:
        ctx.store.save_json(self.ARTIFACT, ctx.train_log.to_dict())
        ctx.store.save_state(self.WEIGHTS, ctx.supernet.state_dict())
        # The final artifacts supersede the in-progress checkpoint.
        ctx.store.delete_state(StoreTrainCheckpointer.ARTIFACT)

    def result(self, ctx: PipelineContext) -> TrainLog:
        return ctx.train_log


class SearchStage(Stage):
    """Phase 3 — evolutionary search, one run per spec'd aim.

    Inputs: trained supernet plus ``spec.search``.  Outputs:
    ``search_results``/``search_seconds`` keyed by aim display name.
    All aims share the supernet and the memoized evaluator, so a batch
    of N aims costs far fewer evaluations than N independent runs.
    Resumable per aim; a lost per-aim artifact re-searches from the
    evaluation cache.
    """

    name = "search"
    #: The fields of a per-aim artifact; ``algorithm`` picks the record
    #: that reads ``result`` (:attr:`RESULTS`).
    ENVELOPE = (
        Field("aim", NAME),
        Field("algorithm", Choice(*SEARCH_ALGORITHMS), "lockstep"),
        Field("seconds", MEASURED),
        Field("result", OBJECT),
    )
    RESULTS = {"lockstep": Record(SearchResult),
               "async_ea": Record(AsyncSearchResult)}

    @staticmethod
    def artifact_name(aim_name: str) -> str:
        """Per-aim artifact name, e.g. ``search_accuracy_optimal``."""
        return f"search_{_aim_slug(aim_name)}"

    @classmethod
    def read_artifact(cls, payload, error,
                      where: str) -> Tuple[SearchResult, float]:
        """A per-aim artifact's result and wall seconds; a value its
        fields refuse raises ``error`` naming ``where`` and the key."""
        envelope = read_fields(payload, cls.ENVELOPE, error, where)
        result = cls.RESULTS[envelope["algorithm"]].read(
            envelope["result"], error, f"{where}.result")
        return result, envelope["seconds"]

    def execute(self, ctx: PipelineContext) -> Dict[str, SearchResult]:
        if ctx.train_log is None:
            TrainStage().execute(ctx)
        for aim in ctx.spec.search.aims:
            self.search_one(
                ctx, aim,
                evolution=ctx.spec.search.evolution.to_config(),
                use_gp_cost_model=ctx.spec.search.use_gp_cost_model)
        return ctx.search_results

    def search_one(self, ctx: PipelineContext, aim, *,
                   evolution: Optional[EvolutionConfig] = None,
                   use_gp_cost_model: bool = True) -> SearchResult:
        """Search a single aim, resuming from its artifact when present.

        ``spec.search.algorithm`` selects the loop: the lock-step
        :class:`~repro.search.evolution.EvolutionarySearch` (default)
        or the steady-state
        :class:`~repro.search.async_ea.AsyncEvolutionarySearch` with
        its successive-halving rungs.  Both derive the proposal RNG
        identically, and persisted artifacts record which algorithm
        produced them so a resumed run restores the matching result
        type.
        """
        aim_obj = get_aim(aim)
        algorithm = ctx.spec.search.algorithm
        if ctx.store is not None:
            name = self.artifact_name(aim_obj.name)
            # Tolerant read: an absent or torn search artifact
            # re-searches (the evaluation cache makes the redo cheap).
            payload = ctx.store.try_load_json(name)
            if payload is not None:
                result, seconds = self.read_artifact(payload,
                                                     ArtifactError, name)
                ctx.search_results[aim_obj.name] = result
                ctx.search_seconds[aim_obj.name] = seconds
                ctx.resumed.add(f"search:{aim_obj.name}")
                return result
        evaluator = ensure_evaluator(ctx, use_gp_cost_model)
        # zlib.crc32 is stable across processes (unlike hash(str)).
        aim_salt = zlib.crc32(aim_obj.name.encode())
        with Timer() as timer:
            rng = derive_seed(ctx.spec.seed, 8, aim_salt)
            if algorithm == "async_ea":
                async_config = ctx.spec.search.to_async_config()
                if evolution is not None:
                    async_config = dataclasses.replace(
                        async_config, evolution=evolution)
                search = AsyncEvolutionarySearch(
                    evaluator, aim_obj, config=async_config, rng=rng,
                    num_workers=ctx.spec.num_workers)
            else:
                search = EvolutionarySearch(
                    evaluator, aim_obj, config=evolution, rng=rng)
            result = search.run()
        ctx.search_results[aim_obj.name] = result
        ctx.search_seconds[aim_obj.name] = timer.elapsed
        if ctx.store is not None:
            ctx.store.save_json(self.artifact_name(aim_obj.name),
                                write_fields({"aim": aim_obj.name,
                                              "algorithm": algorithm,
                                              "seconds": timer.elapsed,
                                              "result": result},
                                             self.ENVELOPE))
        return result


class GenerateStage(Stage):
    """Phase 4 — characterize the winning configuration, optionally emit.

    Inputs: ``spec.generate`` plus (unless an explicit config is given)
    the search results.  Outputs: ``designs``/``projects`` keyed by the
    Table-2 config string, with a ``design_<config>.json`` report
    artifact.  The analytic characterization is cheap and deterministic,
    so this stage recomputes the live design and (re)writes its record.
    """

    name = "generate"

    @staticmethod
    def artifact_name(config_string: str) -> str:
        """Per-config artifact name, e.g. ``design_B-K-M``."""
        return f"design_{config_string}"

    def target_config(self, ctx: PipelineContext) -> DropoutConfig:
        """Resolve which configuration to generate."""
        gen = ctx.spec.generate
        if gen.config is not None:
            return ctx.space.validate(config_from_string(gen.config))
        aim_name = get_aim(gen.aim or ctx.spec.search.aims[0]).name
        if aim_name not in ctx.search_results:
            raise RuntimeError(
                f"no search result for aim {aim_name!r}; "
                f"searched: {sorted(ctx.search_results)}")
        return ctx.search_results[aim_name].best_config

    def execute(self, ctx: PipelineContext
                ) -> Tuple[AcceleratorDesign, Optional[EmittedProject]]:
        gen = ctx.spec.generate
        config = self.target_config(ctx)
        outdir = None
        if gen.emit:
            outdir = gen.outdir or "generated_accelerator"
        design, project = build_design(ctx, config, outdir=outdir,
                                       project_name=gen.project_name)
        key = config_to_string(config)
        ctx.designs[key] = design
        if project is not None:
            ctx.projects[key] = project
        if ctx.store is not None:
            ctx.store.save_json(self.artifact_name(key), {
                "report": design.report.to_dict(),
                "emitted_files": (sorted(project.relative_files())
                                  if project is not None else []),
                "outdir": outdir,
            })
        return design, project


def export_deployment(ctx: PipelineContext, path: str, *,
                      aim: Optional[str] = None,
                      config: Optional[DropoutConfig] = None):
    """Persist a serving :class:`~repro.serve.Deployment` from ``ctx``.

    Bridges the experiment layer to the serving layer: the context's
    trained supernet, the resolved target configuration (explicit
    ``config``, else the ``aim`` winner, else the spec's generation
    target) and the accelerator's fixed-point metadata are frozen into
    a deployment directory at ``path``.  Returns the
    :class:`~repro.serve.Deployment`.
    """
    # Imported here: repro.serve builds on this module.
    from repro.serve.deployment import Deployment
    deployment = Deployment.from_context(ctx, aim=aim, config=config)
    deployment.save(path)
    return deployment


#: The canonical four-phase pipeline order.
DEFAULT_STAGES = (SpecifyStage, TrainStage, SearchStage, GenerateStage)

__all__ = [
    "DEFAULT_STAGES",
    "GenerateStage",
    "PipelineContext",
    "SearchStage",
    "SpecifyStage",
    "Stage",
    "StoreTrainCheckpointer",
    "TrainStage",
    "build_design",
    "build_supernet",
    "ensure_cost_model",
    "ensure_evaluator",
    "export_deployment",
]
