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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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
from repro.hw.fixed_point import FixedPointFormat
from repro.search import SearchResult, Supernet, get_aim
from repro.search.space import (
    DropoutConfig,
    SearchSpace,
    SlotSpec,
    config_from_string,
    config_to_string,
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

    spec: ExperimentSpec
    config: DropoutConfig
    input_shape: Tuple[int, int, int]
    weights: Dict[str, np.ndarray]
    fixed_point: FixedPointFormat = field(default_factory=FixedPointFormat)
    aim: Optional[str] = None
    serve_seed: int = 0

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
        spec's generation target.
        """
        store = ArtifactStore(run_dir)
        spec = ExperimentSpec.from_dict(store.load_json(SPEC_ARTIFACT))
        record = store.load_json(SpecifyStage.ARTIFACT)
        input_shape = tuple(record["input_shape"])
        # The persisted slot record rebuilds the search space, so
        # configs are normalized and checked at build time exactly as
        # from_context does against the live supernet's space.
        space = SearchSpace([
            SlotSpec(name=slot["name"], placement=slot["placement"],
                     choices=tuple(slot["choices"]))
            for slot in record["slots"]
        ])
        weights = store.load_state(TrainStage.WEIGHTS)
        aim_name = None
        if config is None:
            if aim is None and spec.generate.config is not None:
                config = config_from_string(spec.generate.config)
            else:
                aim_name = get_aim(
                    aim or spec.generate.aim or spec.search.aims[0]).name
                payload = store.load_json(
                    SearchStage.artifact_name(aim_name))
                config = SearchResult.from_dict(
                    payload["result"]).best_config
        return cls(
            spec=spec,
            config=_validate_config(space, config),
            input_shape=input_shape,
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

        Writes ``deployment.json`` (spec, config, metadata) plus
        ``weights.npz``, both atomically.  Returns ``path``.
        """
        store = ArtifactStore(path)
        store.save_json(DEPLOYMENT_ARTIFACT, {
            "deployment_version": DEPLOYMENT_VERSION,
            "spec": self.spec.to_dict(),
            "config": config_to_string(self.config),
            "input_shape": list(self.input_shape),
            "aim": self.aim,
            "serve_seed": int(self.serve_seed),
            "fixed_point": {
                "total_bits": self.fixed_point.total_bits,
                "fraction_bits": self.fixed_point.fraction_bits,
            },
        })
        store.save_state(WEIGHTS_ARTIFACT, self.weights)
        return store.root

    @classmethod
    def load(cls, path: str) -> "Deployment":
        """Load a deployment persisted by :meth:`save`."""
        store = ArtifactStore(path)
        try:
            record = store.load_json(DEPLOYMENT_ARTIFACT)
            weights = store.load_state(WEIGHTS_ARTIFACT)
        except ArtifactError as exc:
            raise DeploymentError(
                f"{path!r} is not a deployment directory: {exc}") from exc
        if (not isinstance(record, dict)
                or record.get("deployment_version") != DEPLOYMENT_VERSION):
            raise DeploymentError(
                f"unsupported deployment record in {path!r}")
        fmt = record.get("fixed_point") or {}
        try:
            return cls(
                spec=ExperimentSpec.from_dict(record["spec"]),
                config=config_from_string(record["config"]),
                input_shape=tuple(record["input_shape"]),
                weights=weights,
                fixed_point=FixedPointFormat(
                    total_bits=int(fmt.get("total_bits", 16)),
                    fraction_bits=int(fmt.get("fraction_bits", 8))),
                aim=record.get("aim"),
                serve_seed=int(record["serve_seed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DeploymentError(
                f"malformed deployment record in {path!r}: "
                f"{exc}") from exc

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of everything that determines predictions.

        Two deployments with equal fingerprints answer every request
        identically: the hash covers the spec, the chosen config, the
        input shape, the serve seed, the fixed-point format and every
        weight array byte.  Provenance-only fields (``aim``) are
        excluded — where a config came from cannot change what it
        computes.  This is the equality the serving stack uses to pair
        independently loaded artifacts (e.g. a ``repro compile`` kernel
        with a re-loaded deployment of the same run), where object
        identity is meaningless.
        """
        digest = hashlib.sha256()
        digest.update(json.dumps({
            "spec": self.spec.to_dict(),
            "config": config_to_string(self.config),
            "input_shape": list(self.input_shape),
            "serve_seed": int(self.serve_seed),
            "fixed_point": [self.fixed_point.total_bits,
                            self.fixed_point.fraction_bits],
        }, sort_keys=True).encode("utf-8"))
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

    def reseed(self, model: Supernet) -> None:
        """Apply the serving mask-seed contract to ``model``.

        Every active dropout layer gets its canonical stream derived
        from ``(serve_seed, slot index)`` — config-independent, exactly
        like the evaluator's static-design streams, so the regenerated
        Masksembles families are identical no matter which batch (or
        process) triggers them.
        """
        for index, layer in enumerate(model.active_dropout_layers()):
            layer.reseed(derive_seed(self.serve_seed, index))

    def predict(self, model: Supernet, images: np.ndarray, *,
                num_samples: Optional[int] = None,
                batch_size: Optional[int] = None) -> MCPrediction:
        """One fused Monte-Carlo prediction under the serving contract.

        Reseeds (:meth:`reseed`) and runs :func:`repro.bayes.mc.
        mc_predict`, so the result is a pure function of the deployment
        and ``images`` — bit-reproducible by any holder of the
        deployment.  ``model`` must come from :meth:`instantiate` (the
        caller keeps it across requests; instantiation is the expensive
        part, prediction is the hot path).
        """
        self.reseed(model)
        return mc_predict(
            model, images,
            self.spec.mc_samples if num_samples is None else num_samples,
            batch_size=batch_size)

    def predict_span(self, model: Supernet, images: np.ndarray, *,
                     pass_start: int, pass_stop: int,
                     num_samples: Optional[int] = None) -> np.ndarray:
        """Passes ``[pass_start, pass_stop)`` of the fused prediction.

        Reseeds exactly like :meth:`predict`, then evaluates only the
        requested Monte-Carlo passes through
        :func:`repro.bayes.mc.mc_predict_span` — the mask plan is still
        the canonical full-batch ``(T, N, ...)`` draw, so the returned
        probabilities are bit-identical to
        ``self.predict(model, images).probs[pass_start:pass_stop]``.
        This is the float backend's sharding primitive: a replica pool
        splits one fused batch across processes along the pass axis
        (each pass keeps the single-process GEMM row count) and
        reassembles the byte-exact posterior.
        """
        self.reseed(model)
        return mc_predict_span(
            model, images,
            self.spec.mc_samples if num_samples is None else num_samples,
            pass_start=pass_start, pass_stop=pass_stop)


__all__ = [
    "DEPLOYMENT_ARTIFACT",
    "DEPLOYMENT_VERSION",
    "Deployment",
    "DeploymentError",
    "WEIGHTS_ARTIFACT",
]
