"""The ``Runner`` facade: spec in, persisted experiment result out.

``Runner`` wires an :class:`ExperimentSpec` to the default pipeline and
an optional :class:`ArtifactStore`; :func:`run_experiments` sweeps many
specs in one call.  A run with a store is resumable: invoking the same
spec against the same store root skips training and per-aim searches
whose artifacts already exist.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.artifacts import (
    EVALUATION_CACHE_DIRNAME,
    ArtifactStore,
    EvaluationCache,
)
from repro.api.pipeline import Pipeline
from repro.api.spec import ExperimentSpec
from repro.api.stages import PipelineContext
from repro.bayes.evaluate import AlgorithmicReport
from repro.hw.accelerator import AcceleratorDesign
from repro.search import SearchResult, TrainLog, get_aim
from repro.search.space import config_to_string

#: Artifact name of the spec record written into every run directory.
SPEC_ARTIFACT = "spec"


def summary_rows(search_results: Dict[str, SearchResult],
                 search_seconds: Dict[str, float]
                 ) -> List[Dict[str, object]]:
    """One row per searched aim: config, metrics, latency, cost.

    The cost columns split the evaluator's work: ``evaluations``
    (fresh computations, an alias of ``cache_misses``) plus
    ``cache_hits`` (requests answered from the memo or disk caches),
    so resumed and cache-warmed runs report their true budget instead
    of under-counting.  Backs :meth:`ExperimentResult.summary`, and
    takes a stage-driven :class:`~repro.api.stages.PipelineContext`'s
    ``search_results``/``search_seconds`` just as well.
    """
    rows: List[Dict[str, object]] = []
    for aim_name, result in search_results.items():
        report: AlgorithmicReport = result.best.report
        rows.append({
            "aim": aim_name,
            "config": config_to_string(result.best_config),
            "accuracy_pct": report.accuracy_percent,
            "ece_pct": report.ece_percent,
            "ape_nats": report.ape,
            "latency_ms": result.best.latency_ms,
            "search_seconds": search_seconds.get(aim_name),
            "evaluations": result.num_evaluations,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
        })
    return rows


@dataclass
class ExperimentResult:
    """Everything one experiment run produced.

    Attributes:
        spec: the executed spec.
        run_id: the spec's deterministic run identifier.
        train_log: supernet training record.
        search_results: :class:`SearchResult` per aim display name.
        search_seconds: wall-clock search cost per aim (Table 2).
        designs: generated accelerator designs per config string.
        resumed: stage records restored from artifacts, e.g.
            ``{"train", "search:Accuracy Optimal"}`` (empty for a
            cold run).
        store_root: run directory when persisted, else None.
    """

    spec: ExperimentSpec
    run_id: str
    train_log: Optional[TrainLog] = None
    search_results: Dict[str, SearchResult] = field(default_factory=dict)
    search_seconds: Dict[str, float] = field(default_factory=dict)
    designs: Dict[str, AcceleratorDesign] = field(default_factory=dict)
    resumed: frozenset = frozenset()
    store_root: Optional[str] = None

    def best(self, aim) -> SearchResult:
        """The search result for ``aim`` (preset name or aim object)."""
        name = get_aim(aim).name
        if name not in self.search_results:
            raise KeyError(f"aim {name!r} was not searched; "
                           f"available: {sorted(self.search_results)}")
        return self.search_results[name]

    def summary(self) -> List[Dict[str, object]]:
        """One row per searched aim: config, metrics, latency, cost."""
        return summary_rows(self.search_results, self.search_seconds)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready digest of the run (spec, results, reports)."""
        return {
            "run_id": self.run_id,
            "spec": self.spec.to_dict(),
            "resumed": sorted(self.resumed),
            "train_log": (self.train_log.to_dict()
                          if self.train_log else None),
            "search": {
                aim: {
                    "seconds": self.search_seconds.get(aim),
                    "result": result.to_dict(),
                }
                for aim, result in self.search_results.items()
            },
            "designs": {
                key: design.report.to_dict()
                for key, design in self.designs.items()
            },
        }


class Runner:
    """Facade running one spec through the default pipeline.

    Args:
        spec: the experiment to run.
        store: artifact store *root* shared by many runs; each run
            writes under ``<root>/<spec.run_id>/``.
        store_root: convenience — directory path from which a store is
            built.  Omit both for a purely in-memory run.
        pipeline: stage sequence to drive; defaults to the full
            four-phase pipeline.
    """

    def __init__(self, spec: ExperimentSpec, *,
                 store: Optional[ArtifactStore] = None,
                 store_root: Optional[str] = None,
                 pipeline: Optional[Pipeline] = None) -> None:
        if store is None and store_root is not None:
            store = ArtifactStore(store_root)
        self.spec = spec
        run_store = store.subdir(spec.run_id) if store is not None else None
        # The evaluation cache lives at the store *root*, beside the
        # per-run directories, so every run sharing the root — across
        # names, sweeps and processes — reuses one evaluation pool.
        eval_cache = (EvaluationCache(os.path.join(
            store.root, EVALUATION_CACHE_DIRNAME))
            if store is not None else None)
        self.ctx = PipelineContext(spec=spec, store=run_store,
                                   eval_cache=eval_cache)
        self.pipeline = pipeline or Pipeline.default()

    def export_deployment(self, path: str, *, aim: Optional[str] = None,
                          config=None):
        """Persist a serving deployment from this runner's context.

        Call after :meth:`run` (the context must hold the trained
        supernet and, unless ``config`` is explicit, the search
        results).  Returns the :class:`~repro.serve.Deployment`.
        """
        from repro.api.stages import export_deployment
        return export_deployment(self.ctx, path, aim=aim, config=config)

    def run(self) -> ExperimentResult:
        """Execute (or resume) the full pipeline and collect the result."""
        ctx = self.ctx
        if ctx.store is not None:
            ctx.store.save_json(SPEC_ARTIFACT, self.spec.to_dict())
        self.pipeline.run(ctx)
        return ExperimentResult(
            spec=self.spec,
            run_id=self.spec.run_id,
            train_log=ctx.train_log,
            search_results=dict(ctx.search_results),
            search_seconds=dict(ctx.search_seconds),
            designs=dict(ctx.designs),
            resumed=frozenset(ctx.resumed),
            store_root=ctx.store.root if ctx.store is not None else None,
        )


def run_experiments(specs: Sequence[ExperimentSpec], *,
                    store: Optional[ArtifactStore] = None,
                    store_root: Optional[str] = None
                    ) -> List[ExperimentResult]:
    """Run a batch of specs sequentially, sharing one store root.

    Specs with identical run ids (same name *and* fingerprint) share a
    run directory, so duplicate entries in a sweep resume instead of
    recomputing.
    """
    if store is None and store_root is not None:
        store = ArtifactStore(store_root)
    return [Runner(spec, store=store).run() for spec in specs]


__all__ = [
    "ExperimentResult",
    "Runner",
    "SPEC_ARTIFACT",
    "run_experiments",
    "summary_rows",
]
