"""Candidate evaluation shared by the EA and the exhaustive sweep.

Each candidate configuration is evaluated on the validation split with
the shared supernet weights (accuracy / ECE), on the OOD noise set
(aPE), and on the hardware cost model (latency) — exactly the four
signals the paper's Eq. (2) consumes.  Results are memoized because the
evolutionary algorithm revisits configurations across generations.

Three layers of reuse stack on top of the raw computation:

1. **Memo cache** — an in-process dict; every revisit of a
   configuration is a lookup.
2. **Disk cache** — an optional content-addressed store (the
   ``EvaluationCache`` protocol of :mod:`repro.api.artifacts`) keyed by
   ``(cache_context, config string)``, so evaluations survive the
   process and are shared *across* runs.
3. **Process pool** — :class:`BatchedEvaluator.evaluate_generation`
   shards a generation's cache misses across the forked workers of a
   :class:`repro.workers.WorkerPool` that lives for that one call
   (:class:`repro.search.parallel.ParallelEvaluator`); a worker lost
   mid-shard costs a retry, never a result.

Determinism contract: every evaluation is a pure function of
``(supernet weights, config, data, eval_seed)`` — the
active dropout layers are reseeded per candidate through
:meth:`repro.dropout.base.DropoutLayer.reseed` before the Monte-Carlo
passes, so results do not depend on evaluation order, on which worker
process computed them, or on how a resumed run interleaves cache hits
with fresh work.  That purity is what makes layers 2 and 3 sound (and
is enforced by ``tests/test_parallel_eval.py``).

Accounting: the evaluator tracks ``cache_hits`` (memo or disk lookups
that produced a result) and ``cache_misses`` (fresh computations)
separately; ``num_evaluations`` remains an alias of ``cache_misses``
for backward compatibility, and ``num_requests`` is their sum — the
honest evaluation budget a search consumed, which stays meaningful on
resumed and cache-warmed runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.bayes.evaluate import AlgorithmicReport, evaluate_bayesnn
from repro.data.dataset import Dataset
from repro.search.objective import SearchAim
from repro.search.space import CONFIG, DropoutConfig, config_to_string
from repro.search.supernet import Supernet
from repro.utils.fields import MEASURED, Declared, Record, declare
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive_int

#: Signature of a hardware latency oracle: config -> latency in ms.
LatencyFn = Callable[[DropoutConfig], float]


@dataclass
class CandidateResult(Declared):
    """Everything measured about one evaluated configuration."""

    config: DropoutConfig = declare(CONFIG)
    report: AlgorithmicReport = declare(Record(AlgorithmicReport))
    latency_ms: float = declare(MEASURED)

    @property
    def config_string(self) -> str:
        """Table-2 notation of the configuration."""
        return config_to_string(self.config)

    def aim_score(self, aim: SearchAim) -> float:
        """Scalarized Eq. (2) value under ``aim``."""
        return aim.score(self.report, self.latency_ms)

    def as_row(self) -> Dict[str, float]:
        """Flat dict for table rendering."""
        row = {"config": self.config_string,
               "latency_ms": self.latency_ms}
        row.update(self.report.as_dict())
        return row


class CandidateEvaluator:
    """Memoizing evaluator of dropout configurations.

    Args:
        supernet: trained weight-sharing supernet.
        val_data: validation split for accuracy/ECE (the paper
            evaluates algorithmic metrics on the validation set).
        ood_data: Gaussian-noise OOD set for aPE.
        latency_fn: hardware latency oracle (GP cost model or the
            analytic simulator); None fixes latency to 0 for
            algorithm-only studies.
        num_mc_samples: Monte-Carlo passes per evaluation (paper: 3).
        eval_seed: every candidate's mask-plan streams are reseeded
            deterministically from ``(eval_seed, slot, config)`` before
            evaluation, making each result a pure function of the
            configuration (see the module docstring).
        disk_cache: optional cross-run evaluation cache — any object
            with the ``get(context, name)`` / ``put(context, name,
            payload)`` protocol of
            :class:`repro.api.artifacts.EvaluationCache`.
        cache_context: content key scoping disk-cache entries, normally
            :meth:`repro.api.spec.ExperimentSpec.evaluation_fingerprint`.
    """

    def __init__(self, supernet: Supernet, val_data: Dataset,
                 ood_data: Dataset, *,
                 latency_fn: Optional[LatencyFn] = None,
                 num_mc_samples: int = 3,
                 eval_seed: int,
                 disk_cache=None,
                 cache_context: str = "") -> None:
        self.supernet = supernet
        self.val_data = val_data
        self.ood_data = ood_data
        self.latency_fn = latency_fn
        self.num_mc_samples = int(num_mc_samples)
        self.eval_seed = int(eval_seed)
        self.disk_cache = disk_cache
        self.cache_context = str(cache_context)
        self._cache: Dict[DropoutConfig, CandidateResult] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.disk_hits = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def num_evaluations(self) -> int:
        """Fresh (non-cached) evaluations computed — ``cache_misses``."""
        return self.cache_misses

    @property
    def num_requests(self) -> int:
        """Total evaluation requests served: hits plus misses.

        This is the budget-accounting view: a request answered from the
        memo or disk cache still consumed one unit of a search's
        evaluation budget, so trajectories and Table-2 cost rows report
        this number rather than the miss count alone.
        """
        return self.cache_hits + self.cache_misses

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _reseed_for(self, config: DropoutConfig) -> None:
        """Give the active layers their canonical per-candidate streams.

        Dynamic designs are salted with the configuration (each
        candidate draws its own masks); static designs (Masksembles)
        get a config-*independent* stream so the regenerated mask
        family is identical no matter which candidate — or which worker
        process — triggers the generation.
        """
        salt = zlib.crc32(config_to_string(config).encode("utf-8"))
        for index, layer in enumerate(
                self.supernet.active_dropout_layers()):
            if layer.dynamic:
                layer.reseed(derive_seed(self.eval_seed, index, salt))
            else:
                layer.reseed(derive_seed(self.eval_seed, index))

    def _compute(self, config: DropoutConfig) -> CandidateResult:
        """Evaluate ``config`` from scratch (no caches involved)."""
        self.supernet.set_config(config)
        self._reseed_for(config)
        report = evaluate_bayesnn(
            self.supernet, self.val_data, self.ood_data,
            num_samples=self.num_mc_samples)
        latency = float(self.latency_fn(config)) if self.latency_fn else 0.0
        return CandidateResult(config=config, report=report,
                               latency_ms=latency)

    def _load_from_disk(self, config: DropoutConfig
                        ) -> Optional[CandidateResult]:
        """Restore ``config`` from the disk cache into the memo cache.

        Any unreadable, torn or mismatched entry is treated as a miss
        (the cache's crash-recovery contract), so a half-written file
        from a killed run costs one re-evaluation, never a crash.
        """
        if self.disk_cache is None:
            return None
        payload = self.disk_cache.get(self.cache_context,
                                      config_to_string(config))
        if payload is None:
            return None
        try:
            result = CandidateResult.from_dict(payload)
        except ValueError:
            return None
        if tuple(result.config) != tuple(config):
            return None
        self._cache[config] = result
        self.disk_hits += 1
        return result

    def _store(self, config: DropoutConfig,
               result: CandidateResult) -> None:
        """Commit a freshly computed result to the memo and disk caches."""
        self._cache[config] = result
        if self.disk_cache is not None:
            self.disk_cache.put(self.cache_context,
                                config_to_string(config), result.to_dict())

    def evaluate(self, config: DropoutConfig) -> CandidateResult:
        """Evaluate ``config`` (memo- and disk-cached after first call)."""
        config = self.supernet.space.validate(tuple(config))
        cached = self._cache.get(config)
        if cached is not None:
            self.cache_hits += 1
            return cached
        restored = self._load_from_disk(config)
        if restored is not None:
            self.cache_hits += 1
            return restored
        self.cache_misses += 1
        result = self._compute(config)
        self._store(config, result)
        return result

    def evaluate_batch(self, configs: Sequence[DropoutConfig], *,
                       compute: Optional[Callable[
                           [List[DropoutConfig]],
                           List[CandidateResult]]] = None
                       ) -> List[CandidateResult]:
        """Evaluate many configs through one store-and-count path.

        The single choke point every batch evaluation goes through —
        per-candidate :meth:`evaluate` calls, generation batches and
        the process pool all produce identical caching and accounting
        because this method owns both.  Bookkeeping walks ``configs``
        positionally: memoized, disk-cached and within-batch duplicate
        occurrences count as hits; first occurrences of unknown
        configurations count as misses and are deduplicated into a
        pending list.  The pending configs are computed by ``compute``
        (a callable mapping the unique miss list to results in order —
        e.g. a fork pool) or inline via :meth:`_compute`, then stored
        into the memo and disk caches.  Returns results matching
        ``configs`` positionally.
        """
        normalized = [self.supernet.space.validate(tuple(config))
                      for config in configs]
        pending: List[DropoutConfig] = []
        pending_set = set()
        for config in normalized:
            if config in self._cache or config in pending_set:
                self.cache_hits += 1
            elif self._load_from_disk(config) is not None:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
                pending.append(config)
                pending_set.add(config)
        if pending:
            if compute is not None:
                results = compute(pending)
            else:
                results = [self._compute(config) for config in pending]
            for config, result in zip(pending, results):
                self._store(config, result)
        return [self._cache[config] for config in normalized]

    @property
    def cache(self) -> Dict[DropoutConfig, CandidateResult]:
        """All evaluated candidates so far."""
        return dict(self._cache)

    def preload(self, results) -> int:
        """Warm the memo cache with previously evaluated candidates.

        Used by the ``repro.api`` pipeline to reuse persisted
        evaluations across process restarts; preloaded entries do not
        count toward any counter until they are actually requested, at
        which point they register as :attr:`cache_hits`.  Returns the
        number of entries added (configs outside the space are
        skipped).
        """
        added = 0
        for result in results:
            try:
                config = self.supernet.space.validate(tuple(result.config))
            except (ValueError, KeyError):
                continue
            if config not in self._cache:
                self._cache[config] = result
                added += 1
        return added


class BatchedEvaluator(CandidateEvaluator):
    """Generation-level evaluator driving the fused MC engine.

    Extends :class:`CandidateEvaluator` with
    :meth:`evaluate_generation`, the entry point the evolutionary
    search uses to score a whole population at once.  Per candidate,
    the ``T`` Monte-Carlo samples are fused into one forward pass by
    :func:`repro.bayes.mc.mc_predict`; across candidates (and across
    the aims sharing this evaluator), the memo cache makes every
    revisit a dictionary lookup, so duplicates within a generation are
    evaluated once.

    With ``num_workers > 1`` the generation's cache-miss candidates
    are sharded across forked worker processes
    (:class:`repro.search.parallel.ParallelEvaluator`); the per-
    candidate determinism contract (``eval_seed``) makes the pooled
    results — and every counter — bit-identical to the serial path for
    any worker count and shard order.  On platforms without ``fork``
    the pool silently degrades to the serial path.

    ``generations_evaluated`` counts the generations that required at
    least one fresh evaluation; generations answered entirely from the
    caches do not inflate the per-generation amortized-cost reports.
    """

    def __init__(self, supernet: Supernet, val_data: Dataset,
                 ood_data: Dataset, *,
                 latency_fn: Optional[LatencyFn] = None,
                 num_mc_samples: int = 3,
                 eval_seed: int,
                 disk_cache=None,
                 cache_context: str = "",
                 num_workers: int = 1) -> None:
        super().__init__(supernet, val_data, ood_data,
                         latency_fn=latency_fn,
                         num_mc_samples=num_mc_samples,
                         eval_seed=eval_seed, disk_cache=disk_cache,
                         cache_context=cache_context)
        check_positive_int(num_workers, "num_workers")
        self.num_workers = int(num_workers)
        self.generations_evaluated = 0

    def evaluate_generation(self, configs: Sequence[DropoutConfig]
                            ) -> List[CandidateResult]:
        """Score every candidate of one EA generation, in order.

        A thin wrapper over :meth:`CandidateEvaluator.evaluate_batch`
        (which owns all cache bookkeeping) that injects the pooled
        computation path for the deduplicated cache misses and counts
        the generations that required fresh work.  The returned list
        matches ``configs`` positionally, so callers can zip it against
        their population.
        """
        misses_before = self.cache_misses
        results = self.evaluate_batch(configs,
                                      compute=self._compute_pending)
        if self.cache_misses > misses_before:
            self.generations_evaluated += 1
        return results

    def _compute_pending(self, pending: Sequence[DropoutConfig]
                         ) -> List[CandidateResult]:
        """Compute a batch's cache misses, pooled when possible."""
        if self.num_workers > 1 and len(pending) > 1:
            # Imported here: repro.search.parallel imports this module.
            from repro.search.parallel import ParallelEvaluator
            return ParallelEvaluator(
                self, num_workers=self.num_workers).compute(pending)
        return [self._compute(config) for config in pending]
