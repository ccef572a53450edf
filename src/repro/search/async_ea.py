"""Steady-state asynchronous multi-fidelity evolutionary search.

The lock-step loop (:mod:`repro.search.evolution`) evaluates one
generation, waits for its slowest shard, then breeds the next — a
barrier that wastes exactly the parallelism the fork pool provides.
This module removes the barrier: persistent forked workers pull
candidate tasks from the parent as they free up, and the parent folds
results back into the evolutionary state as they complete.  The
content-addressed :class:`~repro.api.artifacts.EvaluationCache` remains
the cross-run coordination substrate — every result the parent folds is
stored through the same store-and-count path the lock-step loop uses.

**Multi-fidelity successive halving.**  Candidates are optionally
screened through a ladder of cheap fidelities before the full-priced
evaluation: each :class:`FidelityRung` evaluates with fewer Monte-Carlo
passes (low ``T``) and/or a validation-row subset, and only candidates
ranking inside the rung's ``keep_fraction`` at fold time are promoted
to the next rung (ASHA-style: early candidates promote against the
scores seen *so far*, so the pipeline never stalls waiting for a full
cohort).  The last rung is always the caller's own full-fidelity
evaluator.  Fidelity is part of the evaluator purity contract: each
rung owns a private evaluator whose ``cache_context`` appends the
fidelity (``T`` and data fraction), so every evaluation stays a pure
function of ``(weights, config, data, eval_seed, fidelity)`` with
distinct cache keys per fidelity — a low-fidelity score can never be
served for a full-fidelity request.

**Determinism contract.**  Tasks get monotonically increasing ids at
enqueue time, and the parent folds results *strictly in task-id order*
(out-of-order completions buffer until their turn).  Every evolutionary
decision — promotion, population update, the next proposal — happens at
a fold point, so the whole trajectory is a pure function of the seed
and the caches: bit-identical for any worker count, for the inline
fallback, and for cold-vs-warm caches (a warm rerun replays the same
trajectory with the hit/miss split honestly shifted toward hits).

**Worker-death recovery.**  The workers are a
:class:`repro.workers.WorkerPool`: a worker that dies mid-task (crash,
OOM-kill) or stays silent past the pool's deadline is killed and
respawned, and its task is sent once more, or computed inline if that
fails too.  Misses are counted once at enqueue and each task id
completes exactly once, so a death can neither drop nor double-count a
candidate.
"""

from __future__ import annotations

import bisect
import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.bayes.mc import check_mc_samples
from repro.data.dataset import Dataset
from repro.faults.runtime import SITE_ASYNC_DISPATCH
from repro.search.evaluator import CandidateEvaluator, CandidateResult
from repro.search.evolution import (
    EvolutionConfig,
    GenerationStats,
    SearchResult,
    _cache_counts,
    crossover_configs,
    initial_population,
    mutate_config,
    propose_novel,
)
from repro.search.objective import SearchAim
from repro.search.space import DropoutConfig, SearchSpace
from repro.utils.fields import INT, MEASURED, Declared, ListOf, Record, declare
from repro.utils.rng import SeedLike, derive_seed, new_rng
from repro.utils.validation import check_fraction, check_positive_int
from repro.workers import WorkerPool


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FidelityRung:
    """One screening fidelity of the successive-halving ladder.

    Attributes:
        mc_samples: Monte-Carlo passes at this rung; ``None`` keeps the
            full-fidelity evaluator's ``T``.
        data_fraction: fraction of the validation/OOD rows evaluated
            (a deterministic, seed-derived row subset) in ``(0, 1]``.
        keep_fraction: fraction of candidates promoted to the next rung
            (rank-based at fold time, ASHA-style) in ``(0, 1]``.
    """

    mc_samples: Optional[int] = None
    data_fraction: float = 1.0
    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.mc_samples is not None:
            check_mc_samples(self.mc_samples)
        check_fraction(self.data_fraction, "data_fraction",
                       inclusive_low=False, inclusive_high=True)
        check_fraction(self.keep_fraction, "keep_fraction",
                       inclusive_low=False, inclusive_high=True)


@dataclass
class AsyncEAConfig:
    """Hyper-parameters of the steady-state asynchronous search.

    The genetic operators and the proposal budget
    (``population_size * generations`` candidates) reuse the lock-step
    :class:`~repro.search.evolution.EvolutionConfig`, so the two
    algorithms are compared under identical budgets; ``rungs`` adds the
    successive-halving screening ladder (empty = every candidate is
    evaluated at full fidelity) and ``surrogate_promotion`` lets a GP
    surrogate fitted on full-fidelity scores rescue screened-out
    candidates it predicts to beat the incumbent.
    """

    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    rungs: Tuple[FidelityRung, ...] = ()
    surrogate_promotion: bool = False

    def __post_init__(self) -> None:
        self.rungs = tuple(self.rungs)

    @property
    def budget(self) -> int:
        """Total distinct-candidate proposals the run makes."""
        return (self.evolution.population_size
                * self.evolution.generations)


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
@dataclass
class RungStats(Declared):
    """Per-rung accounting of one asynchronous search run.

    ``requests``/``hits``/``misses`` are deltas of the rung evaluator's
    counters over the run — the honest per-fidelity budget, meaningful
    on cache-warmed reruns.  The final entry is always the
    full-fidelity rung (``keep_fraction`` is ``None`` there: nothing is
    promoted past it).
    """

    rung: int = declare(INT)
    mc_samples: int = declare(INT)
    val_rows: int = declare(INT)
    ood_rows: int = declare(INT)
    data_fraction: float = declare(MEASURED)
    keep_fraction: Optional[float] = declare(MEASURED, None)
    requests: int = declare(INT, 0)
    hits: int = declare(INT, 0)
    misses: int = declare(INT, 0)
    promoted: int = declare(INT, 0)
    surrogate_promotions: int = declare(INT, 0)


@dataclass
class AsyncSearchResult(SearchResult):
    """A :class:`SearchResult` with per-rung fidelity accounting.

    The inherited counters aggregate over *all* rungs;
    ``rungs[-1].misses`` is the number of full-fidelity evaluations the
    run actually paid — the successive-halving savings headline.  The
    ``history`` records one entry per full-fidelity fold (the
    steady-state analogue of a generation).  Worker telemetry is
    deliberately absent: the serialized result is identical for every
    worker count.
    """

    rungs: List[RungStats] = declare(ListOf(Record(RungStats), build=list),
                                     factory=list)


# ----------------------------------------------------------------------
# Fidelity plumbing
# ----------------------------------------------------------------------
def fidelity_subset(data: Dataset, fraction: float, seed: int) -> Dataset:
    """Deterministic row subset of ``data`` for a screening rung.

    The rows are drawn from a permutation seeded by ``(seed, fraction)``
    only — independent of rung position, so two rungs with the same
    fraction share rows (and therefore cache keys) — and returned in
    ascending order.
    """
    if fraction >= 1.0:
        return data
    n = len(data.images)
    keep = max(1, int(round(fraction * n)))
    salt = zlib.crc32(repr(float(fraction)).encode("utf-8"))
    rows = np.random.default_rng(
        derive_seed(seed, 23, salt)).permutation(n)[:keep]
    return data.subset(np.sort(rows))


def rung_evaluator(base: CandidateEvaluator,
                   rung: FidelityRung) -> CandidateEvaluator:
    """A private evaluator scoring candidates at ``rung``'s fidelity.

    Shares the base evaluator's supernet weights, latency oracle, seed
    and disk cache, but evaluates with the rung's ``T`` over the rung's
    deterministic row subset — and scopes its disk-cache entries with a
    fidelity-tagged ``cache_context`` so low- and full-fidelity results
    can never be confused (the purity contract's ``fidelity``
    dimension).
    """
    mc_samples = (base.num_mc_samples if rung.mc_samples is None
                  else int(rung.mc_samples))
    fraction = float(rung.data_fraction)
    context = (f"{base.cache_context}"
               f"|fidelity:T={mc_samples}:frac={fraction!r}")
    return CandidateEvaluator(
        base.supernet,
        fidelity_subset(base.val_data, fraction, base.eval_seed),
        fidelity_subset(base.ood_data, fraction, base.eval_seed),
        latency_fn=base.latency_fn,
        num_mc_samples=mc_samples,
        eval_seed=base.eval_seed,
        disk_cache=base.disk_cache,
        cache_context=context)


# ----------------------------------------------------------------------
# The steady-state search
# ----------------------------------------------------------------------
class AsyncEvolutionarySearch:
    """Steady-state asynchronous EA with successive-halving screening.

    Args:
        evaluator: the *full-fidelity* memoizing evaluator (normally a
            :class:`~repro.search.evaluator.BatchedEvaluator` — its
            caches, counters and disk-cache context are shared with the
            lock-step loop, so full-fidelity results are bit-identical
            and reusable across algorithms).
        aim: scalarized search aim (applied at every fidelity).
        config: steady-state hyper-parameters and the rung ladder.
        rng: seed or generator driving proposals.
        num_workers: worker processes; ``None`` adopts the evaluator's
            ``num_workers`` (1 where absent).  With one worker — or
            without ``fork`` — tasks run inline, bit-identically.

    Every send of a task to a worker, and every inline task, is one
    visit of :data:`~repro.faults.runtime.SITE_ASYNC_DISPATCH`.
    """

    def __init__(self, evaluator: CandidateEvaluator, aim: SearchAim, *,
                 config: Optional[AsyncEAConfig] = None,
                 rng: SeedLike = None,
                 num_workers: Optional[int] = None) -> None:
        self.evaluator = evaluator
        self.aim = aim
        self.config = config or AsyncEAConfig()
        self.rng = new_rng(rng)
        self.space: SearchSpace = evaluator.supernet.space
        if num_workers is None:
            num_workers = int(getattr(evaluator, "num_workers", 1))
        check_positive_int(num_workers, "num_workers")
        self.num_workers = int(num_workers)
        #: Evaluator ladder: one private evaluator per screening rung,
        #: then the caller's full-fidelity evaluator.
        self.rung_evaluators: List[CandidateEvaluator] = [
            rung_evaluator(evaluator, rung) for rung in self.config.rungs
        ] + [evaluator]

    # ------------------------------------------------------------------
    # Proposal stream (all decisions happen at fold points)
    # ------------------------------------------------------------------
    def _parents(self) -> List[DropoutConfig]:
        evo = self.config.evolution
        if not self._population:
            return []
        count = max(1, int(round(
            evo.parent_fraction * len(self._population))))
        return [entry[2].config for entry in self._population[:count]]

    def _propose_next(self) -> None:
        """Propose and enqueue one new candidate, budget permitting."""
        if self._proposals >= self.config.budget:
            return
        evo = self.config.evolution
        parents = self._parents()
        pool = {entry[2].config for entry in self._population}
        if parents:
            def produce() -> DropoutConfig:
                if self.rng.random() < evo.mutation_fraction:
                    parent = parents[self.rng.integers(len(parents))]
                    return mutate_config(self.space, self.rng, parent,
                                         evo.mutation_prob)
                return crossover_configs(
                    self.space, self.rng,
                    parents[self.rng.integers(len(parents))],
                    parents[self.rng.integers(len(parents))])
        else:
            # No full-fidelity results yet: explore uniformly.
            def produce() -> DropoutConfig:
                return self.space.sample(self.rng)
        child = propose_novel(self.space, self.rng, produce, pool,
                              self._proposed)
        self._proposed.add(child)
        self._proposals += 1
        self._enqueue(child, 0)

    # ------------------------------------------------------------------
    # Task queue plumbing
    # ------------------------------------------------------------------
    def _enqueue(self, config: DropoutConfig, rung: int) -> None:
        """Assign the next task id to ``(config, rung)`` and admit it.

        Cache lookups happen here, in deterministic enqueue order: a
        memo or disk hit is counted on the rung's evaluator and its
        result buffered for the in-order fold; a miss is counted once
        and the computation dispatched.  A config whose identical miss
        is already in flight at the same rung counts as a hit (exactly
        like a within-batch duplicate in ``evaluate_batch``) and waits
        for the original's fold instead of computing twice.
        """
        evaluator = self.rung_evaluators[rung]
        config = self.space.validate(tuple(config))
        task_id = self._next_task
        self._next_task += 1
        self._tasks[task_id] = (config, rung)
        key = (config, rung)
        cached = evaluator._cache.get(config)
        if cached is None and key not in self._inflight:
            cached = evaluator._load_from_disk(config)
        if cached is not None:
            evaluator.cache_hits += 1
            self._done[task_id] = cached
        elif key in self._inflight:
            evaluator.cache_hits += 1
            self._waiting.setdefault(key, []).append(task_id)
        else:
            evaluator.cache_misses += 1
            self._miss_tasks.add(task_id)
            self._inflight[key] = task_id
            self._pool_tasks[self._pool.submit((rung, config))] = task_id

    # ------------------------------------------------------------------
    # Fold logic
    # ------------------------------------------------------------------
    def _promoted_by_rank(self, rung: int, score: float) -> bool:
        """ASHA promotion: rank the score against this rung so far."""
        scores = self._rung_scores[rung]
        bisect.insort(scores, score)
        n = len(scores)
        better = n - bisect.bisect_right(scores, score)
        keep = max(1, math.ceil(self.config.rungs[rung].keep_fraction * n))
        return better < keep

    def _surrogate_rescue(self, config: DropoutConfig) -> bool:
        """GP-predicted rescue of a rank-rejected candidate."""
        if not self.config.surrogate_promotion or self._gp is None:
            return False
        if not self._gp.is_fitted or self._best is None:
            return False
        predicted = float(self._gp.predict(
            np.asarray([self._one_hot(config)]))[0])
        return predicted > self._best[0]

    def _one_hot(self, config: DropoutConfig) -> List[float]:
        bits: List[float] = []
        for slot, gene in zip(self.space.slots, config):
            for choice in slot.choices:
                bits.append(1.0 if choice == gene else 0.0)
        return bits

    def _refit_surrogate(self) -> None:
        """Deterministic refit cadence over the full-fidelity archive."""
        if self._gp is None or len(self._surrogate_y) < 4:
            return
        if len(self._surrogate_y) % 4 != 0:
            return
        self._gp.fit(np.asarray(self._surrogate_x),
                     np.asarray(self._surrogate_y))

    def _observe_full(self, result: CandidateResult,
                      score: float) -> None:
        """Fold one full-fidelity result into the evolutionary state."""
        self._full_folds += 1
        evo = self.config.evolution
        self._population.append((score, self._full_folds, result))
        # Highest score first; fold order breaks ties deterministically.
        self._population.sort(key=lambda entry: (-entry[0], entry[1]))
        del self._population[evo.population_size:]
        if self._best is None or score > self._best[0]:
            self._best = (score, result)
        self._history.append(GenerationStats(
            generation=self._full_folds - 1,
            best_score=self._best[0],
            mean_score=float(np.mean(
                [entry[0] for entry in self._population])),
            best_config=self._best[1].config,
            evaluations_so_far=self._requests_delta(),
        ))
        if self.config.surrogate_promotion:
            self._surrogate_x.append(self._one_hot(result.config))
            self._surrogate_y.append(score)
            self._refit_surrogate()

    def _fold_one(self, task_id: int) -> None:
        """Fold the next in-order task result; may enqueue/propose."""
        result = self._done.pop(task_id)
        config, rung = self._tasks.pop(task_id)
        evaluator = self.rung_evaluators[rung]
        if task_id in self._miss_tasks:
            # The parent owns all cache writes: computed results are
            # committed to the memo and disk caches at fold time, and
            # duplicate tasks that waited on this computation resolve.
            self._miss_tasks.discard(task_id)
            evaluator._store(config, result)
            key = (config, rung)
            self._inflight.pop(key, None)
            for waiting_id in self._waiting.pop(key, ()):
                self._done[waiting_id] = result
        stats = self._stats[rung]
        if rung < len(self.config.rungs):
            score = result.aim_score(self.aim)
            if self._promoted_by_rank(rung, score):
                stats.promoted += 1
                self._enqueue(config, rung + 1)
                return
            if self._surrogate_rescue(config):
                stats.promoted += 1
                stats.surrogate_promotions += 1
                self._enqueue(config, rung + 1)
                return
        else:
            self._observe_full(result, result.aim_score(self.aim))
        # The candidate's chain ended (screened out, or fully
        # evaluated): its steady-state slot proposes a successor.
        self._propose_next()

    def _requests_delta(self) -> int:
        total = 0
        for evaluator, (hits0, misses0) in zip(self.rung_evaluators,
                                               self._start_counts):
            hits, misses = _cache_counts(evaluator)
            total += (hits - hits0) + (misses - misses0)
        return total

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _compute_task(self, task: Tuple[int, DropoutConfig]
                      ) -> CandidateResult:
        rung, config = task
        return self.rung_evaluators[rung]._compute(config)

    def run(self) -> AsyncSearchResult:
        """Execute the asynchronous search; returns the best candidate."""
        evo = self.config.evolution
        self._start_counts = [_cache_counts(ev)
                              for ev in self.rung_evaluators]
        self._stats = self._initial_stats()
        self._tasks: Dict[int, Tuple[DropoutConfig, int]] = {}
        self._done: Dict[int, CandidateResult] = {}
        self._miss_tasks: Set[int] = set()
        self._inflight: Dict[Tuple[DropoutConfig, int], int] = {}
        self._waiting: Dict[Tuple[DropoutConfig, int], List[int]] = {}
        self._next_task = 0
        self._next_fold = 0
        self._rung_scores: List[List[float]] = [
            [] for _ in self.config.rungs]
        self._population: List[Tuple[float, int, CandidateResult]] = []
        self._best: Optional[Tuple[float, CandidateResult]] = None
        self._history: List[GenerationStats] = []
        self._full_folds = 0
        self._gp = None
        self._surrogate_x: List[List[float]] = []
        self._surrogate_y: List[float] = []
        if self.config.surrogate_promotion:
            # Imported here to avoid a module-level repro.hw cycle
            # (repro.hw.accelerator imports repro.search).
            from repro.hw.gp import GaussianProcessRegressor
            self._gp = GaussianProcessRegressor(
                kernel="matern52",
                rng=derive_seed(self.evaluator.eval_seed, 29))

        seeds = initial_population(
            self.space, self.rng,
            population_size=evo.population_size,
            seed_uniform=evo.seed_uniform)
        self._proposed = set(seeds)
        self._proposals = len(seeds)

        self._pool = WorkerPool(
            self._compute_task,
            workers=self.num_workers if self.num_workers > 1 else 0,
            site=SITE_ASYNC_DISPATCH)
        # Pool task id -> search task id, for the tasks computing misses.
        self._pool_tasks: Dict[int, int] = {}
        with self._pool:
            for config in seeds:
                self._enqueue(config, 0)
            while self._next_fold < self._next_task:
                if self._next_fold in self._done:
                    task_id = self._next_fold
                    self._next_fold += 1
                    self._fold_one(task_id)
                    continue
                pool_id, result = self._pool.next_result()
                self._done[self._pool_tasks.pop(pool_id)] = result

        assert self._best is not None  # budget >= population_size >= 1
        hits_delta = 0
        misses_delta = 0
        for stats, evaluator, (hits0, misses0) in zip(
                self._stats, self.rung_evaluators, self._start_counts):
            hits, misses = _cache_counts(evaluator)
            stats.hits = hits - hits0
            stats.misses = misses - misses0
            stats.requests = stats.hits + stats.misses
            hits_delta += stats.hits
            misses_delta += stats.misses
        return AsyncSearchResult(
            best=self._best[1],
            best_score=self._best[0],
            history=self._history,
            num_evaluations=misses_delta,
            cache_hits=hits_delta,
            cache_misses=misses_delta,
            rungs=self._stats,
        )

    def _initial_stats(self) -> List[RungStats]:
        stats = []
        for index, (rung, evaluator) in enumerate(
                zip(self.config.rungs, self.rung_evaluators)):
            stats.append(RungStats(
                rung=index,
                mc_samples=evaluator.num_mc_samples,
                val_rows=len(evaluator.val_data.images),
                ood_rows=len(evaluator.ood_data.images),
                data_fraction=float(rung.data_fraction),
                keep_fraction=float(rung.keep_fraction),
            ))
        stats.append(RungStats(
            rung=len(self.config.rungs),
            mc_samples=self.evaluator.num_mc_samples,
            val_rows=len(self.evaluator.val_data.images),
            ood_rows=len(self.evaluator.ood_data.images),
            data_fraction=1.0,
            keep_fraction=None,
        ))
        return stats


__all__ = [
    "AsyncEAConfig",
    "AsyncEvolutionarySearch",
    "AsyncSearchResult",
    "FidelityRung",
    "RungStats",
    "fidelity_subset",
    "rung_evaluator",
]
