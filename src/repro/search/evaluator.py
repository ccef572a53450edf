"""Candidate evaluation shared by the EA and the exhaustive sweep.

Each candidate configuration is evaluated on the validation split with
the shared supernet weights (accuracy / ECE), on the OOD noise set
(aPE), and on the hardware cost model (latency) — exactly the four
signals the paper's Eq. (2) consumes.  Results are memoized because the
evolutionary algorithm revisits configurations across generations.

Two layers of reuse sit on top of the raw computation:

1. **Memo cache** — an in-process dict; every revisit of a
   configuration is a lookup.
2. **Disk cache** — an optional content-addressed store (the
   ``EvaluationCache`` protocol of :mod:`repro.api.artifacts`) keyed by
   ``(cache_context, config string)``, so evaluations survive the
   process and are shared *across* runs.  The
   :class:`~repro.api.runner.Runner` keeps it at ``<store>/eval_cache/``
   and every fresh evaluation is written there, so a resumed run is
   answered from it.

One store-and-count path: :meth:`CandidateEvaluator.evaluate_batch`
looks each candidate up (memo, then disk), counts the hit or the miss,
computes the distinct misses (across forked workers when ``num_workers
> 1``, :mod:`repro.search.parallel`) and stores them in both caches;
``evaluate`` and ``evaluate_generation`` go through it.  The
steady-state search (:mod:`repro.search.async_ea`) computes out of
order, so it calls the same ``lookup`` and ``store`` itself.

Determinism contract: every evaluation is a pure function of
``(supernet weights, config, data, eval_seed)`` — the
active dropout layers are reseeded per candidate through
:meth:`repro.dropout.base.DropoutLayer.reseed` before the Monte-Carlo
passes, so results do not depend on evaluation order, on which worker
process computed them, or on how a resumed run interleaves cache hits
with fresh work.  That purity is what makes the disk cache and the
process pool sound (and is enforced by ``tests/test_parallel_eval.py``).

Accounting: the evaluator tracks ``cache_hits`` (memo or disk lookups
that produced a result, and repeats of a candidate already pending)
and ``cache_misses`` (fresh computations) separately;
``num_evaluations`` remains an alias of ``cache_misses`` for backward
compatibility, and ``num_requests`` is their sum — the honest
evaluation budget a search consumed, which stays meaningful on resumed
and cache-warmed runs.
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
        num_workers: with more than one, a batch's distinct misses are
            sharded across that many forked workers; the per-candidate
            ``eval_seed`` makes the results, and every counter,
            bit-identical to the inline path for any worker count.
            Where ``fork`` does not exist the shards run inline.

    ``generations_evaluated`` counts the :meth:`evaluate_generation`
    calls that required at least one fresh evaluation; generations
    answered entirely from the caches do not inflate the
    per-generation amortized-cost reports.
    """

    def __init__(self, supernet: Supernet, val_data: Dataset,
                 ood_data: Dataset, *,
                 latency_fn: Optional[LatencyFn] = None,
                 num_mc_samples: int = 3,
                 eval_seed: int,
                 disk_cache=None,
                 cache_context: str = "",
                 num_workers: int = 1) -> None:
        check_positive_int(num_workers, "num_workers")
        self.supernet = supernet
        self.val_data = val_data
        self.ood_data = ood_data
        self.latency_fn = latency_fn
        self.num_mc_samples = int(num_mc_samples)
        self.eval_seed = int(eval_seed)
        self.disk_cache = disk_cache
        self.cache_context = str(cache_context)
        self.num_workers = int(num_workers)
        self._cache: Dict[DropoutConfig, CandidateResult] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.generations_evaluated = 0

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

    def compute(self, config: DropoutConfig) -> CandidateResult:
        """Evaluate ``config`` from scratch: no cache, no counter."""
        self.supernet.set_config(config)
        self._reseed_for(config)
        report = evaluate_bayesnn(
            self.supernet, self.val_data, self.ood_data,
            num_samples=self.num_mc_samples)
        latency = float(self.latency_fn(config)) if self.latency_fn else 0.0
        return CandidateResult(config=config, report=report,
                               latency_ms=latency)

    def lookup(self, config: DropoutConfig) -> Optional[CandidateResult]:
        """The cached result of a validated ``config``, counted.

        Reads the memo cache, then the disk cache (a disk entry lands
        in the memo).  A result counts one hit; ``None`` counts one
        miss, which the caller computes and hands to :meth:`store`.
        Any unreadable, torn or mismatched disk entry is a miss (the
        cache's crash-recovery contract), so a half-written file from a
        killed run costs one re-evaluation, never a crash.
        """
        result = self._cache.get(config)
        if result is None and self.disk_cache is not None:
            payload = self.disk_cache.get(self.cache_context,
                                          config_to_string(config))
            try:
                restored = (None if payload is None
                            else CandidateResult.from_dict(payload))
            except ValueError:
                restored = None
            if restored is not None and tuple(restored.config) == config:
                self._cache[config] = result = restored
        if result is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        return result

    def store(self, config: DropoutConfig,
              result: CandidateResult) -> None:
        """Commit a freshly computed result to the memo and disk caches."""
        self._cache[config] = result
        if self.disk_cache is not None:
            self.disk_cache.put(self.cache_context,
                                config_to_string(config), result.to_dict())

    def evaluate(self, config: DropoutConfig) -> CandidateResult:
        """Evaluate ``config`` (memo- and disk-cached after first call)."""
        return self.evaluate_batch([config])[0]

    def evaluate_batch(self, configs: Sequence[DropoutConfig]
                       ) -> List[CandidateResult]:
        """Evaluate many configs through the one store-and-count path.

        Each config is validated and looked up in order
        (:meth:`lookup`); a repeat of a config already pending in this
        batch counts as a hit.  The distinct misses are computed —
        pooled when ``num_workers > 1`` and more than one is pending,
        inline otherwise — and stored.  Returns results matching
        ``configs`` positionally.
        """
        normalized = [self.supernet.space.validate(tuple(config))
                      for config in configs]
        pending: Dict[DropoutConfig, None] = {}
        for config in normalized:
            if config in pending:
                self.cache_hits += 1
            elif self.lookup(config) is None:
                pending[config] = None
        if self.num_workers > 1 and len(pending) > 1:
            # Imported here: repro.search.parallel imports this module.
            from repro.search.parallel import ParallelEvaluator
            results = ParallelEvaluator(
                self, num_workers=self.num_workers).compute(list(pending))
        else:
            results = [self.compute(config) for config in pending]
        for config, result in zip(pending, results):
            self.store(config, result)
        return [self._cache[config] for config in normalized]

    @property
    def cache(self) -> Dict[DropoutConfig, CandidateResult]:
        """All evaluated candidates so far."""
        return dict(self._cache)

    def evaluate_generation(self, configs: Sequence[DropoutConfig]
                            ) -> List[CandidateResult]:
        """Score every candidate of one EA generation, in order.

        :meth:`evaluate_batch`, counting the generation in
        ``generations_evaluated`` when it needed fresh work.
        """
        misses_before = self.cache_misses
        results = self.evaluate_batch(configs)
        if self.cache_misses > misses_before:
            self.generations_evaluated += 1
        return results
