"""Process-parallel candidate evaluation (the search-phase fast path).

The paper's search cost is dominated by candidate evaluation; the
batched MC engine made each candidate cheap, and this module removes
the remaining serialization *across* a generation: the cache-miss
candidates of one EA generation are sharded over ``num_workers``
forked worker processes, mirroring how FPGA BNN accelerators amortize
Monte-Carlo cost over parallel hardware lanes.

Design notes:

* **One worker pool per call.**  :meth:`ParallelEvaluator.compute`
  forks a :class:`repro.workers.WorkerPool` when it starts and reaps it
  when it returns, one task per shard.  Workers inherit the parent's
  trained supernet weights, datasets and fitted latency model
  copy-on-write — nothing is pickled on the way in, only the small
  :class:`~repro.search.evaluator.CandidateResult` records travel back.
  A worker that dies mid-shard is respawned and the shard sent once
  more, or computed inline if that fails too; the call never hangs on
  a lost worker.  Where ``fork`` does not exist, the shards run inline.
* **Bit-identical by construction.**  The evaluator's per-candidate
  ``eval_seed`` reseeding makes every evaluation a pure function of
  the configuration, so shard boundaries, worker count, completion
  order and recovery cannot change a single bit of any result — the
  property the equivalence suite (``tests/test_parallel_eval.py``)
  enforces.
* **Caches stay in the parent.**  Workers only *compute*; the parent
  merges results into the memo cache and writes the disk cache, so
  there are no concurrent writers.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence

from repro.faults.runtime import SITE_PARALLEL_EVAL, fire
from repro.search.evaluator import CandidateEvaluator, CandidateResult
from repro.search.space import DropoutConfig
from repro.utils.validation import check_positive_int
from repro.workers import WorkerPool, split_spans


class ParallelEvaluator:
    """Shards cache-miss candidates across forked worker processes.

    Args:
        evaluator: the parent evaluator whose ``_compute`` the workers
            run; its ``eval_seed`` makes every shard's results equal the
            serial path's.
        num_workers: maximum worker processes; the pool never spawns
            more workers than it has candidates.
    """

    def __init__(self, evaluator: CandidateEvaluator, *,
                 num_workers: int) -> None:
        check_positive_int(num_workers, "num_workers")
        self.evaluator = evaluator
        self.num_workers = int(num_workers)

    def shard(self, configs: Sequence[DropoutConfig]
              ) -> List[List[DropoutConfig]]:
        """Split ``configs`` into contiguous, near-equal worker shards."""
        return [list(configs[start:stop])
                for start, stop in split_spans(len(configs),
                                               self.num_workers)]

    def compute(self, configs: Sequence[DropoutConfig]
                ) -> List[CandidateResult]:
        """Compute ``configs`` across the pool, preserving input order.

        Pure computation: no cache lookups, stores or counter updates
        happen here — the caller (normally
        :meth:`~repro.search.evaluator.CandidateEvaluator.evaluate_batch`)
        owns those.  Duplicate configurations are deduplicated *before*
        sharding, so each distinct candidate is evaluated exactly once
        no matter how often it occurs, and the results fan back out to
        every occurrence.  A single shard (one distinct candidate, or
        one worker) runs inline, where forking would only add overhead.

        Resilience: :data:`SITE_PARALLEL_EVAL` fires once per distinct
        candidate, parent-side; an ``error`` event there fails that
        candidate's shard in its worker, and the pool recomputes the
        shard inline.  Evaluation is a pure function of the
        configuration, so the retried result is bit-identical.
        """
        configs = [tuple(config) for config in configs]
        unique = list(dict.fromkeys(configs))
        events = {config: fire(SITE_PARALLEL_EVAL) for config in unique}
        shards = self.shard(unique)
        faults = [next((events[config] for config in shard
                        if events[config] is not None), None)
                  for shard in shards]
        workers = len(shards) if len(shards) > 1 else 0
        with WorkerPool(self._compute_shard, workers=workers,
                        deadline_s=None) as pool:
            results = pool.map(shards, faults=faults)
        by_config = dict(zip(unique, chain.from_iterable(results)))
        return [by_config[config] for config in configs]

    def _compute_shard(self, shard: List[DropoutConfig]
                       ) -> List[CandidateResult]:
        return [self.evaluator._compute(config) for config in shard]

    def evaluate(self, configs: Sequence[DropoutConfig]
                 ) -> List[CandidateResult]:
        """Cached evaluation of ``configs``, preserving input order.

        Routed through the parent evaluator's
        :meth:`~repro.search.evaluator.CandidateEvaluator.evaluate_batch`
        store-and-count helper, so every path — pooled, inline
        fallback, single-candidate degenerate case — updates the memo
        and disk caches and the hit/miss counters identically to
        per-candidate :meth:`~repro.search.evaluator.CandidateEvaluator.
        evaluate` calls.
        """
        return self.evaluator.evaluate_batch(configs, compute=self.compute)


__all__ = ["ParallelEvaluator"]
