"""Tests for the evolutionary algorithm.

A deterministic stub evaluator (known score landscape, no NN involved)
lets these tests assert optimality and operator behaviour exactly.
"""

import numpy as np
import pytest

from repro.bayes.evaluate import AlgorithmicReport
from repro.search import (
    ACCURACY_OPTIMAL,
    EvolutionConfig,
    EvolutionarySearch,
    SearchSpace,
    SlotSpec,
    get_aim,
    random_search,
)
from repro.search.evaluator import CandidateResult


class StubSupernet:
    """Just enough supernet surface for the EA: a space attribute."""

    def __init__(self, space):
        self.space = space


class StubEvaluator:
    """Deterministic evaluator with a known optimum.

    Score = number of 'M' genes + 0.1 * number of 'B' genes, so the
    unique accuracy-optimal configuration is all-M.
    """

    def __init__(self, space):
        self.supernet = StubSupernet(space)
        self.num_evaluations = 0
        self.cache_hits = 0
        self._cache = {}

    @property
    def cache_misses(self):
        return self.num_evaluations

    @property
    def num_requests(self):
        return self.cache_hits + self.cache_misses

    def evaluate_generation(self, configs):
        return [self.evaluate(config) for config in configs]

    def evaluate(self, config):
        config = self.supernet.space.validate(tuple(config))
        if config in self._cache:
            self.cache_hits += 1
            return self._cache[config]
        self.num_evaluations += 1
        score = (sum(1.0 for g in config if g == "M")
                 + sum(0.1 for g in config if g == "B"))
        report = AlgorithmicReport(
            accuracy=score, ece=0.0, ape=0.0, nll=0.0, brier=0.0,
            num_mc_samples=1)
        result = CandidateResult(config=config, report=report,
                                 latency_ms=0.0)
        self._cache[config] = result
        return result


def space4():
    return SearchSpace([
        SlotSpec(f"s{i}", "conv", ("B", "R", "K", "M")) for i in range(4)
    ])


class TestEvolutionConfig:
    def test_defaults_valid(self):
        EvolutionConfig()

    def test_invalid_population(self):
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=0)

    def test_invalid_parent_fraction(self):
        with pytest.raises(ValueError):
            EvolutionConfig(parent_fraction=0.0)

    def test_invalid_mutation_prob(self):
        with pytest.raises(ValueError):
            EvolutionConfig(mutation_prob=1.5)


class TestOperators:
    def test_mutation_stays_in_space(self):
        ev = StubEvaluator(space4())
        search = EvolutionarySearch(ev, ACCURACY_OPTIMAL, rng=0)
        parent = ("B", "B", "B", "B")
        for _ in range(30):
            child = search._mutate(parent)
            assert child in ev.supernet.space

    def test_mutation_prob_zero_is_identity(self):
        ev = StubEvaluator(space4())
        search = EvolutionarySearch(
            ev, ACCURACY_OPTIMAL,
            config=EvolutionConfig(mutation_prob=0.0), rng=0)
        assert search._mutate(("B", "R", "K", "M")) == ("B", "R", "K", "M")

    def test_crossover_genes_from_parents(self):
        ev = StubEvaluator(space4())
        search = EvolutionarySearch(ev, ACCURACY_OPTIMAL, rng=1)
        a = ("B", "B", "B", "B")
        b = ("M", "M", "M", "M")
        for _ in range(20):
            child = search._crossover(a, b)
            assert all(g in ("B", "M") for g in child)

    def test_initial_population_deduplicated(self):
        ev = StubEvaluator(space4())
        search = EvolutionarySearch(
            ev, ACCURACY_OPTIMAL,
            config=EvolutionConfig(population_size=16), rng=2)
        population = search._initial_population()
        assert len(population) == 16
        assert len(set(population)) == 16


class TestSearchRuns:
    def test_finds_global_optimum(self):
        ev = StubEvaluator(space4())
        search = EvolutionarySearch(
            ev, ACCURACY_OPTIMAL,
            config=EvolutionConfig(population_size=16, generations=10),
            rng=3)
        result = search.run()
        assert result.best_config == ("M", "M", "M", "M")
        assert result.best_score == pytest.approx(4.0)

    def test_history_best_is_monotone(self):
        ev = StubEvaluator(space4())
        search = EvolutionarySearch(
            ev, ACCURACY_OPTIMAL,
            config=EvolutionConfig(population_size=8, generations=8),
            rng=4)
        result = search.run()
        bests = [h.best_score for h in result.history]
        running = np.maximum.accumulate(bests)
        # The recorded best-per-generation never exceeds the running max
        # by definition; the final result equals the overall best.
        assert result.best_score == pytest.approx(float(running[-1]))

    def test_evaluation_budget_bounded_by_unique_configs(self):
        ev = StubEvaluator(space4())
        search = EvolutionarySearch(
            ev, ACCURACY_OPTIMAL,
            config=EvolutionConfig(population_size=32, generations=20),
            rng=5)
        search.run()
        assert ev.num_evaluations <= ev.supernet.space.size

    def test_deterministic_with_seed(self):
        def run(seed):
            ev = StubEvaluator(space4())
            search = EvolutionarySearch(
                ev, ACCURACY_OPTIMAL,
                config=EvolutionConfig(population_size=8, generations=4),
                rng=seed)
            return search.run().best_config
        assert run(7) == run(7)

    def test_latency_aim_uses_latency(self):
        ev = StubEvaluator(space4())

        # Wrap evaluate to add config-dependent latency: 'K' genes slow.
        original = ev.evaluate

        def with_latency(config):
            result = original(config)
            object.__setattr__  # no-op, documents intent
            result.latency_ms = sum(10.0 for g in result.config if g == "K")
            return result

        ev.evaluate = with_latency
        search = EvolutionarySearch(
            ev, get_aim("latency"),
            config=EvolutionConfig(population_size=16, generations=8),
            rng=8)
        result = search.run()
        assert "K" not in result.best_config


class TestRandomSearch:
    def test_respects_budget(self):
        ev = StubEvaluator(space4())
        result = random_search(ev, ACCURACY_OPTIMAL, num_evaluations=20,
                               rng=9)
        assert ev.num_evaluations <= 20
        assert len(result.history) == 20

    def test_mean_score_is_running_mean(self):
        """Regression (ISSUE 3): ``mean_score`` must be the running mean
        over the evaluation window, not the latest point sample — the
        EA-vs-random ablation compares it against the EA's population
        mean."""
        ev = StubEvaluator(space4())
        aim = ACCURACY_OPTIMAL
        result = random_search(ev, aim, num_evaluations=25, rng=11)

        # Replay the identical candidate stream to recover the
        # per-evaluation scores (the stub memoizes, so replays are free
        # and deterministic).
        replay_rng = np.random.default_rng(11)
        scores = []
        for _ in range(25):
            candidate = ev.supernet.space.sample(replay_rng)
            scores.append(ev.evaluate(candidate).aim_score(aim))
        for i, stats in enumerate(result.history):
            assert stats.mean_score == pytest.approx(
                float(np.mean(scores[:i + 1])))

    def test_mean_score_differs_from_point_sample(self):
        """The old bug recorded history[i].mean_score == scores[i]; with
        a varied landscape the running mean cannot track every sample."""
        ev = StubEvaluator(space4())
        result = random_search(ev, ACCURACY_OPTIMAL, num_evaluations=30,
                               rng=12)
        means = [h.mean_score for h in result.history]
        # A running mean over i.i.d. draws contracts: consecutive
        # deltas shrink as 1/i, so late entries move far less than the
        # raw score spread.  The buggy point-sample version jumps by
        # whole score units arbitrarily late.
        late_deltas = [abs(means[i] - means[i - 1])
                       for i in range(20, len(means))]
        assert max(late_deltas) < 0.5

    def test_history_tracks_requests_not_just_misses(self):
        """Duplicate draws served by the memo cache still consume
        budget: the trajectory x-axis must advance every evaluation."""
        space = SearchSpace([SlotSpec("s0", "conv", ("B", "M"))])
        ev = StubEvaluator(space)
        result = random_search(ev, ACCURACY_OPTIMAL, num_evaluations=12,
                               rng=13)
        # Two configurations exist, so the stub computes at most twice…
        assert ev.num_evaluations <= 2
        # …while the trajectory counts requests, which must at least
        # be non-decreasing and match the final record.
        xs = [h.evaluations_so_far for h in result.history]
        assert xs == sorted(xs)

    def test_best_never_decreases(self):
        ev = StubEvaluator(space4())
        result = random_search(ev, ACCURACY_OPTIMAL, num_evaluations=30,
                               rng=10)
        bests = [h.best_score for h in result.history]
        assert all(bests[i] <= bests[i + 1] for i in range(len(bests) - 1))

    def test_invalid_budget(self):
        ev = StubEvaluator(space4())
        with pytest.raises(ValueError):
            random_search(ev, ACCURACY_OPTIMAL, num_evaluations=0)
