"""The serving artifact: a searched model frozen for deployment.

A :class:`Deployment` bundles everything an inference service needs to
answer uncertainty queries — the experiment spec, the chosen dropout
configuration, the trained supernet weights, the input shape and the
accelerator's fixed-point format metadata — into one record that is

* buildable from a live :class:`~repro.api.stages.PipelineContext`
  (:meth:`Deployment.from_context`) or straight from a finished run's
  artifact directory (:meth:`Deployment.from_run`), and
* round-trippable to disk (:meth:`save` / :meth:`load`) through the
  same atomic :class:`~repro.api.artifacts.ArtifactStore` machinery
  every other artifact uses.

Serving determinism contract
----------------------------

:meth:`Deployment.predict` reseeds every active dropout layer from
:attr:`serve_seed` before each fused Monte-Carlo prediction, so a
prediction is a **pure function of (deployment, fused input rows)** —
the serving analogue of the evaluator's per-candidate ``eval_seed``
contract (:mod:`repro.search.evaluator`).  That purity is what makes
the micro-batching service provably bit-identical to direct
``mc_predict`` calls (``tests/test_serve_equivalence.py``): any party
holding the deployment can recompute exactly what the service answered
for a given fused batch, no serving history required.

Because the plan of a fused batch is a pure function of its key — the
serve seed, ``T``, the fused input shape and the model's active dropout
layers — each executing model keeps the plans it drew in its own
:class:`~repro.nn.inference.MaskPlanCache` (bounded by
:data:`~repro.nn.inference.MASK_PLAN_BUDGET` bytes) and passes them to
the engine as its ``plans`` argument for every later batch of that key:
a hit neither reseeds nor draws.  The cache belongs to the model
instance, never to the deployment, so a freshly instantiated model
(the reference every equivalence check builds) draws its own plans.
Since a hit does not touch the layers' random streams, their state
after a prediction is unspecified; nothing in serving reads it,
because every miss reseeds first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.api.artifacts import ArtifactError, ArtifactStore
from repro.api.runner import SPEC_ARTIFACT
from repro.api.spec import ExperimentSpec
from repro.api.stages import (
    SearchStage,
    SpecifyStage,
    TrainStage,
    build_supernet,
)
from repro.bayes.mc import MCPrediction, mc_predict, mc_predict_span
from repro.dropout.base import DropoutLayer
from repro.hw.fixed_point import FixedPointFormat
from repro.nn.inference import MaskPlanCache
from repro.search import Supernet, get_aim
from repro.search.space import (
    DropoutConfig,
    SearchSpace,
    config_from_string,
    config_to_string,
)
from repro.utils.fields import (
    INT,
    MISSING,
    STR,
    Choice,
    Field,
    Int,
    Kind,
    ListOf,
    Record,
    declare,
    read_fields,
    table_of,
    write_fields,
)
from repro.utils.rng import derive_seed

#: Version stamped into every persisted deployment record.
DEPLOYMENT_VERSION = 1

#: JSON artifact name inside a deployment directory.
DEPLOYMENT_ARTIFACT = "deployment"

#: Array artifact name inside a deployment directory.
WEIGHTS_ARTIFACT = "weights"

#: Salt deriving the default serving mask seed from the spec seed.
_SERVE_SEED_SALT = 11


class DeploymentError(ArtifactError):
    """A deployment record is missing, malformed or inconsistent."""


#: A configuration as a deployment record holds it: Table-2 notation.
_CONFIG = Kind(STR.want, STR.test, config_from_string, config_to_string)


def _validate_config(space: SearchSpace,
                     config: DropoutConfig) -> DropoutConfig:
    """Normalize ``config`` against ``space``; DeploymentError if bad.

    Folds the space's ``ValueError``/``KeyError`` (wrong arity, unknown
    design letter, inadmissible slot choice) into the deployment error
    taxonomy so builders fail loudly at build time with a one-line
    message instead of surfacing a generic error at first predict.
    """
    try:
        return space.validate(tuple(config))
    except (KeyError, ValueError) as exc:
        raise DeploymentError(
            f"configuration {tuple(config)!r} is not admissible: "
            f"{exc.args[0] if exc.args else exc}") from exc


@dataclass
class Deployment:
    """Model weights + dropout configuration, frozen for serving.

    Attributes:
        spec: the producing experiment's spec (model, dropout knobs,
            ``mc_samples`` — the serving default).
        config: the chosen dropout configuration (e.g. a search
            winner).
        input_shape: per-request image shape ``(C, H, W)``.
        weights: supernet ``state_dict`` arrays.
        fixed_point: the accelerator's numeric format — metadata for
            parity with the generated FPGA design (software serving
            runs in float; the format records what the hardware twin
            uses).
        aim: searched aim the config came from, if any (provenance).
        serve_seed: seed of the per-batch mask-reseed contract (see
            the module docstring).
    """

    spec: ExperimentSpec = declare(Record(ExperimentSpec))
    config: DropoutConfig = declare(_CONFIG)
    input_shape: Tuple[int, int, int] = declare(
        ListOf(Int(least=1), least=3, most=3))
    weights: Dict[str, np.ndarray]
    fixed_point: FixedPointFormat = declare(Record(FixedPointFormat),
                                            factory=FixedPointFormat)
    aim: Optional[str] = declare(STR, None)
    serve_seed: int = declare(INT, 0)

    def __post_init__(self) -> None:
        self.config = tuple(self.config)
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if len(self.input_shape) != 3:
            raise DeploymentError(
                f"input_shape must be (C, H, W), got {self.input_shape}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_context(cls, ctx, *, aim: Optional[str] = None,
                     config: Optional[DropoutConfig] = None) -> "Deployment":
        """Build from a pipeline context whose train stage has run.

        Precedence: an explicit ``config`` wins, then an explicit
        ``aim`` (its search winner), then the spec's generation target
        (``generate.config`` or ``generate.aim``/first searched aim).

        Args:
            ctx: a :class:`~repro.api.stages.PipelineContext` with a
                (trained or restored) supernet.
            aim: searched aim whose winner to deploy.
            config: explicit configuration overriding ``aim``.
        """
        if ctx.supernet is None:
            raise DeploymentError(
                "context has no supernet; run the specify/train stages "
                "before exporting a deployment")
        aim_name = None
        if config is not None:
            config = _validate_config(ctx.supernet.space, config)
        elif aim is None and ctx.spec.generate.config is not None:
            config = _validate_config(
                ctx.supernet.space,
                config_from_string(ctx.spec.generate.config))
        else:
            aim_name = get_aim(
                aim or ctx.spec.generate.aim
                or ctx.spec.search.aims[0]).name
            if aim_name not in ctx.search_results:
                raise DeploymentError(
                    f"no search result for aim {aim_name!r}; "
                    f"searched: {sorted(ctx.search_results)}")
            config = ctx.search_results[aim_name].best_config
        return cls(
            spec=ctx.spec,
            config=config,
            input_shape=ctx.input_shape,
            weights=ctx.supernet.state_dict(),
            fixed_point=ctx.accel_config.fixed_point,
            aim=aim_name,
            serve_seed=derive_seed(ctx.spec.seed, _SERVE_SEED_SALT),
        )

    @classmethod
    def from_run(cls, run_dir: str, *, aim: Optional[str] = None,
                 config: Optional[DropoutConfig] = None) -> "Deployment":
        """Build from a finished run's artifact directory.

        Reads ``spec.json``, ``specify.json``, the trained supernet
        weights and (when no explicit ``config`` is given) the per-aim
        search artifact — no pipeline execution, so a serving process
        can load a deployment without the training data or the search
        machinery ever running.  Target precedence matches
        :meth:`from_context`: ``config``, then ``aim``, then the
        spec's generation target.  The records are read by the stages'
        declared fields; a value they refuse is a
        :class:`DeploymentError` naming the artifact and the key.
        """
        store = ArtifactStore(run_dir)
        spec = ExperimentSpec.from_dict(store.load_json(SPEC_ARTIFACT))
        # The persisted slot record rebuilds the search space, so
        # configs are normalized and checked at build time exactly as
        # from_context does against the live supernet's space.
        record = read_fields(store.load_json(SpecifyStage.ARTIFACT),
                             SpecifyStage.RECORD, DeploymentError,
                             SpecifyStage.ARTIFACT)
        weights = store.load_state(TrainStage.WEIGHTS)
        aim_name = None
        if config is None:
            if aim is None and spec.generate.config is not None:
                config = config_from_string(spec.generate.config)
            else:
                aim_name = get_aim(
                    aim or spec.generate.aim or spec.search.aims[0]).name
                name = SearchStage.artifact_name(aim_name)
                result, _ = SearchStage.read_artifact(
                    store.load_json(name), DeploymentError, name)
                config = result.best_config
        return cls(
            spec=spec,
            config=_validate_config(record["slots"], config),
            input_shape=record["input_shape"],
            weights=weights,
            fixed_point=spec.accelerator_config().fixed_point,
            aim=aim_name,
            serve_seed=derive_seed(spec.seed, _SERVE_SEED_SALT),
        )

    @classmethod
    def from_spec(cls, spec: ExperimentSpec,
                  input_shape: Tuple[int, int, int], *,
                  config: DropoutConfig) -> "Deployment":
        """A deployment with freshly initialized (untrained) weights.

        Load generators and scheduler tests need a real forward path,
        not good predictions, so they build deployments directly from a
        spec instead of paying for a pipeline run.  Production
        deployments come from :meth:`from_context`/:meth:`from_run`.
        """
        supernet = build_supernet(spec, tuple(input_shape))
        config = _validate_config(supernet.space, config)
        return cls(
            spec=spec,
            config=config,
            input_shape=tuple(input_shape),
            weights=supernet.state_dict(),
            fixed_point=spec.accelerator_config().fixed_point,
            serve_seed=derive_seed(spec.seed, _SERVE_SEED_SALT),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Persist the deployment under directory ``path``.

        Writes ``deployment.json`` (:data:`_RECORD`) plus
        ``weights.npz``, both atomically.  Returns ``path``.
        """
        store = ArtifactStore(path)
        store.save_json(DEPLOYMENT_ARTIFACT, self._record())
        store.save_state(WEIGHTS_ARTIFACT, self.weights)
        return store.root

    def _record(self) -> Dict[str, object]:
        """The JSON record :meth:`load` reads back (:data:`_RECORD`)."""
        return write_fields(dict(vars(self),
                                 deployment_version=DEPLOYMENT_VERSION),
                            _RECORD)

    @classmethod
    def load(cls, path: str) -> "Deployment":
        """Load a deployment persisted by :meth:`save`, its record read
        by :mod:`repro.utils.fields`' rule, so a loaded deployment is the
        one that was saved.  Nothing builds a model."""
        store = ArtifactStore(path)
        try:
            record = store.load_json(DEPLOYMENT_ARTIFACT)
            weights = store.load_state(WEIGHTS_ARTIFACT)
        except ArtifactError as exc:
            raise DeploymentError(
                f"{path!r} is not a deployment directory: {exc}") from exc
        values = read_fields(record, _RECORD, DeploymentError, "deployment")
        del values["deployment_version"]
        return cls(weights=weights, **values)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of everything that determines predictions.

        Two deployments with equal fingerprints answer every request
        identically: the hash covers the written record (the spec, the
        chosen config, the input shape, the serve seed, the fixed-point
        format) and every weight array byte.  The provenance-only
        ``aim`` is excluded — where a config came from cannot change
        what it computes.  This is the equality that pairs
        independently loaded artifacts (a stored kernel record carries
        it), where object identity is meaningless.
        """
        record = self._record()
        del record["aim"]
        digest = hashlib.sha256()
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        for name in sorted(self.weights):
            array = np.ascontiguousarray(self.weights[name])
            digest.update(name.encode("utf-8"))
            digest.update(str(array.dtype).encode("utf-8"))
            digest.update(str(array.shape).encode("utf-8"))
            digest.update(array.tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def instantiate(self) -> Supernet:
        """A ready-to-serve supernet: weights loaded, config active."""
        supernet = build_supernet(self.spec, self.input_shape)
        supernet.load_state_dict(self.weights)
        supernet.set_config(self.config)
        supernet.eval()
        return supernet

    def reseed(self, layers: Iterable[DropoutLayer]) -> None:
        """Apply the serving mask-seed contract to a model's active
        dropout ``layers``, given in slot order.

        Slot ``index``'s layer gets its canonical stream derived from
        ``(serve_seed, index)`` — config-independent, exactly like the
        evaluator's static-design streams, so the regenerated
        Masksembles families are identical no matter which batch (or
        process) triggers them.  This is the one place a slot's serving
        stream is derived: the float path, the fixed kernel and the HLS
        emitter all reseed through it.
        """
        for index, layer in enumerate(layers):
            layer.reseed(derive_seed(self.serve_seed, index))

    def _planned(self, engine, model: Supernet, images: np.ndarray,
                 num_samples: Optional[int], **span):
        """``engine(model, images, T, plans=..., **span)`` on ``model``'s
        stored plans for this key; on a miss, reseed and store the plans
        it drew once it has returned."""
        num_samples = (self.spec.mc_samples if num_samples is None
                       else num_samples)
        cache = getattr(model, "_mask_plans", None)
        if cache is None:
            # The executing model owns its cache: a fresh one draws.
            cache = model._mask_plans = MaskPlanCache()
        layers = model.active_dropout_layers()
        key = (self.serve_seed, num_samples, np.shape(images),
               tuple(map(id, layers)))
        plans = cache.get(key)
        if plans is not None:
            return engine(model, images, num_samples, plans=plans, **span)
        self.reseed(layers)
        plans = {}
        result = engine(model, images, num_samples, plans=plans, **span)
        cache.put(key, plans)
        return result

    def predict(self, model: Supernet, images: np.ndarray, *,
                num_samples: Optional[int] = None) -> MCPrediction:
        """One fused Monte-Carlo prediction under the serving contract.

        Runs :func:`repro.bayes.mc.mc_predict` on the canonical mask
        plan of ``(serve_seed, T, images.shape)``: reused from
        ``model``'s own plan cache when ``model`` has served that key
        before, otherwise drawn after :meth:`reseed` and stored (see the
        module docstring).  Either way the result is a pure function of
        the deployment and ``images`` — bit-reproducible by any holder
        of the deployment.  The layers' random streams after the call
        are unspecified: a reused plan leaves them as they were.
        ``model`` must come from :meth:`instantiate` (the caller keeps
        it across requests; instantiation is the expensive part,
        prediction is the hot path).
        """
        return self._planned(mc_predict, model, images, num_samples)

    def predict_span(self, model: Supernet, images: np.ndarray, *,
                     pass_start: int, pass_stop: int,
                     num_samples: Optional[int] = None) -> np.ndarray:
        """Passes ``[pass_start, pass_stop)`` of the fused prediction.

        Plans exactly like :meth:`predict` (the same key, so a span and
        a full prediction of one shape share one stored plan), then runs
        the fused engine over only the requested Monte-Carlo passes
        (:func:`repro.bayes.mc.mc_predict_span`: the prefix once, the
        span's passes in one sweep) — the mask plan is still the
        canonical full-batch ``(T, N, ...)`` draw, so the returned
        probabilities are bit-identical to
        ``self.predict(model, images).probs[pass_start:pass_stop]``.
        This is the float backend's sharding primitive: a replica pool
        splits one fused batch across processes along the pass axis
        (each pass keeps the single-process GEMM row count) and
        reassembles the byte-exact posterior.  A replica's plan of all
        ``T`` passes is drawn on its first batch of a shape only.
        """
        return self._planned(mc_predict_span, model, images, num_samples,
                             pass_start=pass_start, pass_stop=pass_stop)


#: A deployment record: its version and :class:`Deployment`'s declared
#: fields, ``serve_seed`` required although the constructor defaults it.
_RECORD = (Field("deployment_version", Choice(DEPLOYMENT_VERSION)),) + tuple(
    field._replace(default=MISSING) if field.key == "serve_seed" else field
    for field in table_of(Deployment))

__all__ = [
    "DEPLOYMENT_ARTIFACT",
    "DEPLOYMENT_VERSION",
    "Deployment",
    "DeploymentError",
    "WEIGHTS_ARTIFACT",
]
