"""Evolutionary dropout search — paper Sec. 3.4 and Fig. 3.

Four stages per generation:

1. **Population** — random configurations fill the initial pool;
2. **Evaluation** — every candidate is scored on the validation set
   (and the hardware cost model) under the scalarized aim, Eq. (2);
3. **Selection** — the top-scoring candidates become the parents;
4. **Crossover & mutation** — a fraction of the parents mutate (each
   gene flips to a random admissible design with probability
   ``mutation_prob``); the rest produce children by uniform crossover
   (each gene swaps between a random parent pair).

The loop repeats for a fixed number of generations, tracking the best
configuration seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.search.evaluator import CandidateEvaluator, CandidateResult
from repro.search.objective import SearchAim
from repro.search.space import CONFIG, DropoutConfig, SearchSpace
from repro.utils.fields import INT, MEASURED, Declared, ListOf, Record, declare
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_fraction, check_positive_int


@dataclass
class EvolutionConfig:
    """Hyper-parameters of the evolutionary search.

    ``seed_uniform`` injects the uniform (single-design) configurations
    into the initial population: the paper's manual baselines are then
    guaranteed to be evaluated, so the searched result can never fall
    behind them under any aim.
    """

    population_size: int = 16
    generations: int = 8
    parent_fraction: float = 0.5
    mutation_fraction: float = 0.5
    mutation_prob: float = 0.25
    seed_uniform: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.population_size, "population_size")
        check_positive_int(self.generations, "generations")
        check_fraction(self.parent_fraction, "parent_fraction",
                       inclusive_low=False, inclusive_high=True)
        check_fraction(self.mutation_fraction, "mutation_fraction",
                       inclusive_high=True)
        check_fraction(self.mutation_prob, "mutation_prob",
                       inclusive_high=True)


def mutate_config(space: SearchSpace, rng, parent: DropoutConfig,
                  mutation_prob: float) -> DropoutConfig:
    """Flip each gene to a random admissible design with prob ``p``.

    The genetic mutation operator, shared by the lock-step and
    steady-state loops; draws exactly one uniform per slot (plus one
    index per flipped gene), so factoring it out preserves historic
    RNG streams bit-for-bit.
    """
    genes = list(parent)
    for i, slot in enumerate(space.slots):
        if rng.random() < mutation_prob:
            genes[i] = slot.choices[rng.integers(len(slot.choices))]
    return tuple(genes)


def crossover_configs(space: SearchSpace, rng, a: DropoutConfig,
                      b: DropoutConfig) -> DropoutConfig:
    """Uniform crossover: each gene comes from a random parent."""
    return tuple(
        a[i] if rng.random() < 0.5 else b[i]
        for i in range(space.num_slots)
    )


def initial_population(space: SearchSpace, rng, *, population_size: int,
                       seed_uniform: bool) -> List[DropoutConfig]:
    """Random initial population; deduplicated when the space allows it.

    When ``seed_uniform`` is set, the uniform (single-design) baseline
    configurations occupy the first population slots — the paper's
    manual baselines are then guaranteed to be evaluated, so a searched
    result can never fall behind them under any aim.
    """
    population: List[DropoutConfig] = []
    seen = set()
    if seed_uniform:
        for config in space.uniform_configs():
            if len(population) >= population_size:
                break
            population.append(config)
            seen.add(config)
    target = min(population_size, space.size)
    attempts = 0
    while len(population) < target and attempts < 50 * target:
        candidate = space.sample(rng)
        attempts += 1
        if candidate not in seen:
            seen.add(candidate)
            population.append(candidate)
    while len(population) < population_size:
        population.append(space.sample(rng))
    return population


#: Spaces up to this size get the deterministic coverage fallback.
_ENUMERABLE_SIZE = 4096


def propose_novel(space: SearchSpace, rng, produce, pool: set,
                  proposed: set) -> DropoutConfig:
    """Draw a candidate from ``produce``, retrying to escape duplicates.

    Prefers configurations the calling run has never proposed; falls
    back to avoiding the current ``pool``, and on small spaces sweeps
    the remaining unproposed configurations deterministically so that a
    budget exceeding the space size guarantees full coverage.  The
    paper's sampling stage keeps drawing "until the candidate pool
    reaches the predefined size" — this is the de-duplicated version of
    that loop, shared by the lock-step :class:`EvolutionarySearch` and
    the steady-state :mod:`repro.search.async_ea` proposal stream.
    """
    for attempt in range(24):
        child = produce()
        if child in pool:
            continue
        if child in proposed and attempt < 12:
            continue
        return child
    fallback = None
    for _ in range(24):
        child = space.sample(rng)
        if child in pool:
            continue
        if child not in proposed:
            return child
        if fallback is None:
            fallback = child
    if space.size <= _ENUMERABLE_SIZE:
        for child in space.enumerate():
            if child not in proposed and child not in pool:
                return child
    return fallback if fallback is not None else space.sample(rng)


@dataclass
class GenerationStats(Declared):
    """Per-generation progress record.

    ``evaluations_so_far`` counts evaluation *requests* (cache hits
    plus fresh computations) made by this search since it started —
    the budget it consumed, which stays truthful when caches answer
    part of the work and when the evaluator is shared across runs.
    """

    generation: int = declare(INT)
    best_score: float = declare(MEASURED)
    mean_score: float = declare(MEASURED)
    best_config: DropoutConfig = declare(CONFIG)
    evaluations_so_far: int = declare(INT)


@dataclass
class SearchResult(Declared):
    """Outcome of one evolutionary search run.

    ``num_evaluations`` counts fresh computations (an alias of
    ``cache_misses``, kept for backward compatibility);
    ``cache_hits``/``cache_misses`` split *this run's* evaluation
    requests between cache-served and freshly computed, so resumed or
    cache-warmed runs report their true cost.  All three are deltas
    over the run — evaluators shared across searches (multi-aim specs)
    do not leak one aim's cost into another's result.
    """

    best: CandidateResult = declare(Record(CandidateResult))
    best_score: float = declare(MEASURED)
    history: List[GenerationStats] = declare(
        ListOf(Record(GenerationStats), build=list), factory=list)
    num_evaluations: int = declare(INT, 0)
    cache_hits: int = declare(INT, 0)
    cache_misses: Optional[int] = declare(INT, None)

    def __post_init__(self) -> None:
        # Pre-split records carry only num_evaluations, which counted
        # exactly the misses: default to it, so the num_evaluations ==
        # cache_misses invariant survives reading old records.
        if self.cache_misses is None:
            self.cache_misses = self.num_evaluations

    @property
    def best_config(self) -> DropoutConfig:
        """The winning configuration."""
        return self.best.config


class EvolutionarySearch:
    """SPOS-style evolutionary search over dropout configurations.

    Args:
        evaluator: memoizing candidate evaluator (supplies Eq.-2
            inputs).
        aim: scalarized search aim.
        config: EA hyper-parameters.
        rng: seed or generator.
    """

    def __init__(self, evaluator: CandidateEvaluator, aim: SearchAim, *,
                 config: Optional[EvolutionConfig] = None,
                 rng: SeedLike = None) -> None:
        self.evaluator = evaluator
        self.aim = aim
        self.config = config or EvolutionConfig()
        self.rng = new_rng(rng)
        self.space: SearchSpace = evaluator.supernet.space

    # ------------------------------------------------------------------
    # Genetic operators
    # ------------------------------------------------------------------
    def _mutate(self, parent: DropoutConfig) -> DropoutConfig:
        """Flip each gene to a random admissible design with prob p."""
        return mutate_config(self.space, self.rng, parent,
                             self.config.mutation_prob)

    def _crossover(self, a: DropoutConfig, b: DropoutConfig) -> DropoutConfig:
        """Uniform crossover: each gene comes from a random parent."""
        return crossover_configs(self.space, self.rng, a, b)

    def _initial_population(self) -> List[DropoutConfig]:
        """Random population via the shared :func:`initial_population`."""
        return initial_population(
            self.space, self.rng,
            population_size=self.config.population_size,
            seed_uniform=self.config.seed_uniform)

    def _novel_child(self, produce, pool: set,
                     proposed: set) -> DropoutConfig:
        """Draw a child, retrying to escape duplicates.

        Delegates to the shared :func:`propose_novel` helper (also used
        by the steady-state :mod:`repro.search.async_ea` loop).
        """
        return propose_novel(self.space, self.rng, produce, pool, proposed)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Execute the evolutionary search and return the best candidate."""
        cfg = self.config
        population = self._initial_population()
        proposed = set(population)
        history: List[GenerationStats] = []
        best: Optional[Tuple[float, CandidateResult]] = None
        # Counter snapshots: evaluators are shared across searches (all
        # aims of a spec reuse one memoized evaluator), so this run's
        # cost is the *delta* over the run, not the cumulative totals.
        evaluator = self.evaluator
        start_hits = evaluator.cache_hits
        start_misses = evaluator.cache_misses

        for generation in range(cfg.generations):
            results = evaluator.evaluate_generation(population)
            scored: List[Tuple[float, CandidateResult]] = [
                (result.aim_score(self.aim), result) for result in results]
            scored.sort(key=lambda item: item[0], reverse=True)
            if best is None or scored[0][0] > best[0]:
                best = scored[0]
            history.append(GenerationStats(
                generation=generation,
                best_score=scored[0][0],
                mean_score=float(np.mean([s for s, _ in scored])),
                best_config=scored[0][1].config,
                evaluations_so_far=(evaluator.num_requests
                                    - start_hits - start_misses),
            ))

            num_parents = max(1, int(round(
                cfg.parent_fraction * len(scored))))
            parents = [result.config for _, result in scored[:num_parents]]

            next_population: List[DropoutConfig] = list(parents)
            pool = set(parents)
            num_children = cfg.population_size - len(next_population)
            num_mutants = int(round(cfg.mutation_fraction * num_children))
            for _ in range(num_mutants):
                child = self._novel_child(
                    lambda: self._mutate(
                        parents[self.rng.integers(len(parents))]),
                    pool, proposed)
                next_population.append(child)
                pool.add(child)
                proposed.add(child)
            while len(next_population) < cfg.population_size:
                child = self._novel_child(
                    lambda: self._crossover(
                        parents[self.rng.integers(len(parents))],
                        parents[self.rng.integers(len(parents))]),
                    pool, proposed)
                next_population.append(child)
                pool.add(child)
                proposed.add(child)
            population = next_population

        assert best is not None  # generations >= 1
        misses = evaluator.cache_misses - start_misses
        return SearchResult(
            best=best[1],
            best_score=best[0],
            history=history,
            num_evaluations=misses,
            cache_hits=evaluator.cache_hits - start_hits,
            cache_misses=misses,
        )


def random_search(evaluator: CandidateEvaluator, aim: SearchAim, *,
                  num_evaluations: int, rng: SeedLike = None) -> SearchResult:
    """Random-sampling baseline with the same evaluation budget.

    Used by the EA-vs-random ablation (bench A3).
    """
    check_positive_int(num_evaluations, "num_evaluations")
    rng = new_rng(rng)
    space = evaluator.supernet.space
    best: Optional[Tuple[float, CandidateResult]] = None
    history: List[GenerationStats] = []
    score_sum = 0.0
    start_hits, start_misses = evaluator.cache_hits, evaluator.cache_misses
    for i in range(num_evaluations):
        result = evaluator.evaluate(space.sample(rng))
        score = result.aim_score(aim)
        score_sum += score
        if best is None or score > best[0]:
            best = (score, result)
        history.append(GenerationStats(
            generation=i,
            best_score=best[0],
            # The running mean over the evaluation window so far — the
            # population-mean analogue the EA records, making the
            # EA-vs-random trajectories (ablation A3) comparable.  A
            # point sample here would pit the EA's population mean
            # against single-candidate noise.
            mean_score=score_sum / (i + 1),
            best_config=best[1].config,
            evaluations_so_far=(evaluator.num_requests
                                - start_hits - start_misses),
        ))
    assert best is not None
    misses = evaluator.cache_misses - start_misses
    return SearchResult(best=best[1], best_score=best[0], history=history,
                        num_evaluations=misses,
                        cache_hits=evaluator.cache_hits - start_hits,
                        cache_misses=misses)
