"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; a test
keeps the two in step.  Each workload reports every metric: end-to-end
metrics are defined for all three workloads (``README.md`` gives the
per-workload definitions), and a per-layer metric of a layer that a
workload never calls reads 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Outcome:
    """What one pass of a workload reports.

    Attributes:
        attempted / failed: timed operations sent and not answered
            (requests for serving, evaluation requests for search).
        problems: failed output checks; empty when every check passed.
        metrics: the gated end-to-end metrics, by :data:`END_TO_END` name.
        notes: how each gated metric was taken on this workload, with the
            name ``README.md`` gives it there (``throughput_rps``, ...).
        ungated: end-to-end figures that are printed and recorded but
            not gated, each as ``(value, unit, how it was taken)``.
        layers: per-layer metrics (traced pass only).
        health: run-health fields for the envelope.
        self_times: the traced pass's self-time table.
    """

    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    ungated: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    health: Dict[str, object] = field(default_factory=dict)
    self_times: List[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


#: Gated end-to-end metrics: name -> (unit, better, bound).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "wall_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
    "tail_ms": ("ms", "lower", 0.25),
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    # serving
    "serve.deployment.load_ms": ("ms", "lower"),
    "serve.scheduler.queue_wait_ms.p50": ("ms", "lower"),
    "serve.scheduler.queue_wait_ms.tail": ("ms", "lower"),
    "serve.scheduler.queue_wait_ms.low_p50": ("ms", "lower"),
    "serve.scheduler.rows_per_batch": ("rows", "higher"),
    "serve.scheduler.batches": ("count", "lower"),
    "serve.scheduler.shed": ("count", "lower"),
    "serve.service.respond_ms": ("ms", "lower"),
    "serve.service.loop_busy_share": ("share", "lower"),
    "serve.service.loop_busy_share_low": ("share", "lower"),
    "serve.service.loop_coverage": ("share", "higher"),
    "hw.compile.compile_ms": ("ms", "lower"),
    "hw.compile.kernel_predict_ms": ("ms", "lower"),
    "hw.compile.kernel_ms_per_row": ("ms", "lower"),
    "serve.replicas.start_ms": ("ms", "lower"),
    "serve.replicas.predict_ms": ("ms", "lower"),
    "serve.replicas.shard_ms": ("ms", "lower"),
    "serve.replicas.compute_ms": ("ms", "lower"),
    "serve.replicas.dispatches": ("count", "lower"),
    "serve.replicas.redispatches": ("count", "lower"),
    "serve.replicas.fallbacks": ("count", "lower"),
    # search
    "api.stages.specify_ms": ("ms", "lower"),
    "api.stages.train_ms": ("ms", "lower"),
    "api.stages.search_ms": ("ms", "lower"),
    "api.stages.generate_ms": ("ms", "lower"),
    "api.stages.coverage": ("share", "higher"),
    "search.trainer.step_ms": ("ms", "lower"),
    "search.evaluator.generation_ms": ("ms", "lower"),
    "search.evaluator.fresh": ("count", "lower"),
    "search.evaluator.hits": ("count", "higher"),
    "search.evaluator.hit_ratio": ("share", "higher"),
    "search.parallel.compute_ms": ("ms", "lower"),
    "search.parallel.overhead_ms": ("ms", "lower"),
    "bayes.candidate_ms": ("ms", "lower"),
    "hw.cost_model.fit_ms": ("ms", "lower"),
    "hw.cost_model.predict_ms": ("ms", "lower"),
    "api.artifacts.cache_get_ms": ("ms", "lower"),
    "api.artifacts.cache_gets": ("count", "lower"),
    "api.artifacts.cache_put_ms": ("ms", "lower"),
    "api.artifacts.cache_puts": ("count", "lower"),
    "api.artifacts.save_ms": ("ms", "lower"),
    "api.artifacts.saves": ("count", "lower"),
    # the tracer itself
    "trace.spans": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}
