"""``repro.api`` — the composable experiment layer.

The official way to drive the four-phase dropout-search system:

* :class:`ExperimentSpec` — declarative, JSON-round-trippable
  description of an experiment (model, dataset, aims, training and
  accelerator knobs) with strict validation and a versioned schema;
* :class:`ArtifactStore` — on-disk JSON/npz persistence keyed by the
  spec fingerprint, making every run resumable and machine-readable;
* :class:`Pipeline` and the four stages — the paper's phases as
  composable, individually resumable units over a shared
  :class:`PipelineContext`;
* :class:`Runner` / :func:`run_experiments` — one-call execution of a
  spec (multi-aim batch search shares the trained supernet and the
  memoized evaluator) or a sweep of specs.

Quickstart::

    from repro.api import ExperimentSpec, Runner

    spec = ExperimentSpec(model="lenet_slim", dataset="mnist_like",
                          image_size=16, seed=7)
    result = Runner(spec, store_root="runs").run()
    for row in result.summary():
        print(row)

Scripts that need finer control drive the stages one at a time over a
:class:`PipelineContext` — e.g. ``TrainStage().execute(ctx)`` (which
runs the specify stage first), ``SearchStage().search_one(ctx, aim)``
and :func:`build_design` — with
:func:`repro.api.stages.ensure_evaluator` for ad-hoc candidate
evaluation.
"""

from repro.api.artifacts import (
    ARTIFACT_VERSION,
    ArtifactError,
    ArtifactStore,
    EvaluationCache,
)
from repro.api.pipeline import Pipeline
from repro.api.runner import (
    ExperimentResult,
    Runner,
    run_experiments,
)
from repro.api.spec import (
    SCHEMA_VERSION,
    SEARCH_ALGORITHMS,
    AcceleratorSpec,
    EvolutionSpec,
    ExperimentSpec,
    FidelityRungSpec,
    GenerateSpec,
    SearchSpec,
    SpecError,
    TrainSpec,
)
from repro.api.stages import (
    GenerateStage,
    PipelineContext,
    SearchStage,
    SpecifyStage,
    Stage,
    StoreTrainCheckpointer,
    TrainStage,
    build_design,
    export_deployment,
)

__all__ = [
    "ARTIFACT_VERSION",
    "SCHEMA_VERSION",
    "AcceleratorSpec",
    "ArtifactError",
    "ArtifactStore",
    "EvaluationCache",
    "EvolutionSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "FidelityRungSpec",
    "GenerateSpec",
    "GenerateStage",
    "Pipeline",
    "PipelineContext",
    "Runner",
    "SEARCH_ALGORITHMS",
    "SearchSpec",
    "SearchStage",
    "SpecError",
    "SpecifyStage",
    "Stage",
    "StoreTrainCheckpointer",
    "TrainSpec",
    "TrainStage",
    "build_design",
    "export_deployment",
    "run_experiments",
]
