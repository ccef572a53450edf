"""The search workload: ``search_resnet``.

The paper's dropout search on its ResNet space (256 configurations;
LeNet's 32 would all be visited by the search itself), run through
:class:`repro.api.Runner` on a fresh store: ``resnet18_slim`` on
``cifar_like`` 16x16 with 1,200 images and 3 training epochs, then a
lock-step EA with population 12 for 6 generations for the accuracy and
latency aims, GP cost model on, two evaluation workers.  The run is
dominated by per-candidate Monte-Carlo evaluation in forked workers, so
it uses ``bayes.mc`` and the process pool in large, coarse tasks, where
``serve_float_pool`` uses them in small latency-bound shards.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
from typing import Dict, List, Optional

import repro.hw.gp as gp
import repro.search.evaluator as evaluator_module
import repro.search.trainer as trainer
from repro.api import ArtifactStore, EvaluationCache, ExperimentSpec, Runner
from repro.api.stages import (
    GenerateStage,
    PipelineContext,
    SearchStage,
    SpecifyStage,
    TrainStage,
    ensure_evaluator,
)
from repro.hw.cost_model import GPLatencyModel
from repro.search import BatchedEvaluator
from repro.search.parallel import ParallelEvaluator

from perfbench.catalog import Outcome
from perfbench.measure import interquartile_mean, median, tail
from perfbench.tracing import Span, Tracer, mean_ms

SPEC = {
    "name": "perfbench-search",
    "model": "resnet18_slim",
    "dataset": "cifar_like",
    "image_size": 16,
    "dataset_size": 1200,
    "num_workers": 2,
    "train": {"epochs": 3},
    "search": {
        "aims": ["accuracy", "latency"],
        "evolution": {"population_size": 12, "generations": 6},
        "use_gp_cost_model": True,
    },
}

#: Cold set-ups (specify stage + evaluator with its GP fit) per run:
#: four before the job and three after it, so that they draw on more
#: than one stretch of the host's speed.
SETUP_REPS = 7
#: Spec seed of the timed set-ups, whatever ``--seed`` is.  The GP fit's
#: cost depends on the seed-drawn data (0.45 s to 1.0 s across seeds on a
#: 2-core host), so every run times the same set-up work.
SETUP_SEED = 1

#: Pipeline stages, timed as ``api.stages.<name>`` spans.
STAGES = {"specify": SpecifyStage, "train": TrainStage,
          "search": SearchStage, "generate": GenerateStage}

#: Spans that make up one candidate's worker-side time.
CANDIDATE_SPANS = ("bayes.candidate", "hw.cost_model.predict")


def spec_for(seed: int) -> ExperimentSpec:
    """The workload's spec; the seed drives data, weights and the search."""
    return ExperimentSpec.from_dict(dict(SPEC, seed=seed))


def set_up(spec: ExperimentSpec) -> None:
    """The search's set-up: specify stage plus evaluator and GP fit."""
    ctx = PipelineContext(spec=spec)
    SpecifyStage().execute(ctx)
    ensure_evaluator(ctx, spec.search.use_gp_cost_model)


def timed_set_up() -> float:
    """Seconds one cold set-up of the ``SETUP_SEED`` spec takes."""
    start = time.perf_counter()
    set_up(spec_for(SETUP_SEED))
    seconds = time.perf_counter() - start
    # Free the discarded context now, so peak memory does not depend on
    # when the cycle collector happens to run.
    gc.collect()
    return seconds


def recheck_incumbents(runner: Runner, result) -> List[str]:
    """Re-evaluate each aim's incumbent on a fresh serial evaluator.

    The new evaluator shares the trained supernet, data and fitted cost
    model but has one worker and no caches, so it recomputes from
    scratch; the reports must be identical to the search's.
    """
    ctx = runner.ctx
    serial = dataclasses.replace(
        ctx, spec=dataclasses.replace(ctx.spec, num_workers=1),
        evaluator=None, eval_cache=None, store=None)
    fresh = ensure_evaluator(serial, ctx.spec.search.use_gp_cost_model)
    problems = []
    for aim, searched in result.search_results.items():
        again = fresh.evaluate(searched.best_config)
        if again.to_dict() != searched.best.to_dict():
            problems.append(f"{aim}: incumbent {searched.best.config_string} "
                            f"re-evaluates differently on a serial evaluator")
    return problems


def install_probes(tracer: Tracer) -> None:
    """Wrap the search stack's public calls (traced pass only)."""
    def count(_self, configs, *args, **kwargs):
        return len(configs)

    for name, stage in STAGES.items():
        tracer.wrap(stage, "execute", f"api.stages.{name}")
    tracer.wrap(trainer, "_supernet_step", "search.trainer.step")
    tracer.wrap(BatchedEvaluator, "evaluate_generation",
                "search.evaluator.generation", rows=count)
    tracer.wrap(ParallelEvaluator, "compute", "search.parallel.compute",
                rows=count)
    tracer.wrap(evaluator_module, "evaluate_bayesnn", "bayes.candidate")
    tracer.wrap(GPLatencyModel, "predict_latency_ms", "hw.cost_model.predict")
    tracer.wrap(gp.GaussianProcessRegressor, "fit", "hw.cost_model.fit")
    tracer.wrap(EvaluationCache, "get", "api.artifacts.cache_get")
    tracer.wrap(EvaluationCache, "put", "api.artifacts.cache_put")
    tracer.wrap(ArtifactStore, "save_json", "api.artifacts.save")
    tracer.wrap(ArtifactStore, "save_state", "api.artifacts.save")


def run(seed: int, seconds: int, workdir: str,
        tracer: Optional[Tracer] = None) -> Outcome:
    """One pass of ``search_resnet``; traced when ``tracer`` is set.

    ``seconds`` does not shorten the search: the job is one full search,
    whatever the run budget.  An untraced run still times one call,
    each fresh candidate's ``evaluate_bayesnn`` (mostly in forked
    workers), which gives the per-operation latencies.
    """
    spec = spec_for(seed)
    probe = tracer or Tracer(os.path.join(workdir, "candidates"))
    if tracer is None:
        probe.wrap(evaluator_module, "evaluate_bayesnn", "bayes.candidate")
    else:
        install_probes(tracer)
    try:
        setups = [timed_set_up() for _ in range(SETUP_REPS // 2 + 1)]
        runner = Runner(spec, store_root=os.path.join(workdir, "store"))
        start = time.perf_counter()
        result = runner.run()
        end = time.perf_counter()
        setups += [timed_set_up() for _ in range(SETUP_REPS - len(setups))]
    finally:
        probe.restore()
    probe.mark("job", start, end)
    candidates = [s.duration for s in probe.collect()
                  if s.name == "bayes.candidate" and start <= s.start <= end]

    searches = result.search_results.values()
    fresh = sum(r.cache_misses for r in searches)
    requests = sum(r.cache_hits + r.cache_misses for r in searches)
    budget = (spec.search.evolution.population_size
              * spec.search.evolution.generations * len(spec.search.aims))
    search_seconds = sum(result.search_seconds.values())
    candidate_tail = tail(candidates)
    outcome = Outcome(
        attempted=budget, failed=budget - requests,
        problems=recheck_incumbents(runner, result),
        metrics={
            "setup_s": interquartile_mean(setups),
            "wall_s": end - start,
            "ops_per_s": fresh / search_seconds,
            "p50_ms": median(candidates) * 1e3,
            "tail_ms": candidate_tail.value * 1e3,
        },
        notes={
            "setup_s": f"interquartile mean of {len(setups)} cold "
                       f"set-ups, spec seed {SETUP_SEED}",
            "wall_s": "spec to results and design, cold store",
            "ops_per_s": f"evals_per_s: {fresh} fresh of {requests} "
                         f"evaluation requests",
            "p50_ms": f"median of {len(candidates)} fresh candidate "
                      f"evaluations",
            "tail_ms": f"p{candidate_tail.percentile:.4g} of "
                       f"{candidate_tail.samples} evaluations",
        },
        ungated={
            "train_steps_per_s": (result.train_log.steps
                                  / result.train_log.wall_seconds, "1/s",
                                  f"{result.train_log.steps} SPOS steps"),
        })
    if tracer is not None:
        outcome.layers = layer_metrics(tracer, runner)
    return outcome


# ----------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ----------------------------------------------------------------------

def parallel_overhead(spans: List[Span]) -> float:
    """Pooled wall time minus the busiest worker's candidate time, in s.

    Summed over every pooled ``ParallelEvaluator.compute`` call: what
    fork, pickling and stragglers cost beyond the longest shard.
    """
    computes = [s for s in spans if s.name == "search.parallel.compute"]
    candidates = [s for s in spans if s.name in CANDIDATE_SPANS]
    overhead = 0.0
    for call in computes:
        per_process: Dict[int, float] = {}
        for span in candidates:
            if call.start <= span.start and span.end <= call.end:
                per_process[span.pid] = (per_process.get(span.pid, 0.0)
                                         + span.duration)
        overhead += call.duration - max(per_process.values(), default=0.0)
    return overhead


def layer_metrics(tracer: Tracer, runner: Runner) -> Dict[str, float]:
    """The search layers' metrics; see ``README.md`` for each definition."""
    spans = tracer.collect()
    (job_start, job_end), = tracer.marks["job"]
    in_job = [s for s in spans if job_start <= s.start <= job_end]

    def named(name: str, pool: List[Span] = in_job) -> List[Span]:
        return [s for s in pool if s.name == name]

    stages = {name: sum(s.duration for s in named(f"api.stages.{name}"))
              for name in STAGES}
    evaluator = runner.ctx.evaluator
    hits, fresh = evaluator.cache_hits, evaluator.cache_misses
    computes = named("search.parallel.compute")
    layers = {f"api.stages.{name}_ms": seconds * 1e3
              for name, seconds in stages.items()}
    layers.update({
        "api.stages.coverage": sum(stages.values()) / (job_end - job_start),
        "search.trainer.step_ms": mean_ms(named("search.trainer.step")),
        "search.evaluator.generation_ms": mean_ms(
            named("search.evaluator.generation")),
        "search.evaluator.fresh": fresh,
        "search.evaluator.hits": hits,
        "search.evaluator.hit_ratio": hits / (hits + fresh),
        "search.parallel.compute_ms": sum(s.duration for s in computes) * 1e3,
        "search.parallel.overhead_ms": parallel_overhead(in_job) * 1e3,
        "bayes.candidate_ms": mean_ms(named("bayes.candidate")),
        "hw.cost_model.fit_ms": mean_ms(named("hw.cost_model.fit", spans)),
        "hw.cost_model.predict_ms": mean_ms(named("hw.cost_model.predict")),
    })
    for name in ("cache_get", "cache_put", "save"):
        chosen = named(f"api.artifacts.{name}")
        layers[f"api.artifacts.{name}_ms"] = mean_ms(chosen)
        layers[f"api.artifacts.{name}s"] = len(chosen)
    return layers
