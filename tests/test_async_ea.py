"""Determinism suite for the steady-state asynchronous EA.

The asynchronous loop (:mod:`repro.search.async_ea`) promises the same
contract the lock-step pool does, under harsher conditions: results are
folded strictly in task-id order, so the search trajectory — incumbent,
history, every promotion decision — is bit-identical for any worker
count, for the inline fallback, for cold-vs-warm caches, and across
worker deaths mid-queue.  Fidelity rungs must keep distinct cache keys
(a low-``T`` screening score can never be served for a full-fidelity
request), and the final result must always be a full-fidelity
evaluation.
"""

import pytest

from repro.api import (
    EvaluationCache,
    ExperimentSpec,
    FidelityRungSpec,
    SearchSpec,
    SpecError,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.runtime import SITE_ASYNC_DISPATCH, injected
from repro.search import (
    AsyncEAConfig,
    AsyncEvolutionarySearch,
    AsyncSearchResult,
    BatchedEvaluator,
    EvolutionConfig,
    FidelityRung,
    RungStats,
    get_aim,
)
from repro.search.async_ea import fidelity_subset, rung_evaluator

AIM = get_aim("accuracy")

SMALL_EVOLUTION = EvolutionConfig(population_size=4, generations=2)
RUNG_CONFIG = AsyncEAConfig(
    evolution=SMALL_EVOLUTION,
    rungs=(FidelityRung(mc_samples=1, data_fraction=0.5,
                        keep_fraction=0.5),))


def make_evaluator(trained_supernet, mnist_splits, ood_small, *,
                   num_workers=1, disk_cache=None, cache_context=""):
    return BatchedEvaluator(
        trained_supernet, mnist_splits.val, ood_small,
        num_mc_samples=2, eval_seed=5, num_workers=num_workers,
        disk_cache=disk_cache, cache_context=cache_context)


def run_search(evaluator, *, config=RUNG_CONFIG, rng=42, num_workers=None):
    return AsyncEvolutionarySearch(
        evaluator, AIM, config=config, rng=rng,
        num_workers=num_workers).run()


def kill_plan(dispatch):
    """A plan SIGKILLing the worker of the ``dispatch``-th send (1-based)."""
    return FaultPlan(events=(
        FaultEvent(SITE_ASYNC_DISPATCH, dispatch - 1, "kill"),))


class TestTrajectoryDeterminism:
    """Worker count, caches and reruns cannot move a single bit."""

    @pytest.mark.parametrize("workers", (2, 3))
    def test_pooled_bit_identical_to_inline(self, trained_supernet,
                                            mnist_splits, ood_small,
                                            workers):
        inline = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small), num_workers=1)
        pooled = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small),
            num_workers=workers)
        assert pooled.to_dict() == inline.to_dict()

    def test_same_seed_rerun_is_byte_identical(self, trained_supernet,
                                               mnist_splits, ood_small):
        first = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small))
        second = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small))
        assert second.to_dict() == first.to_dict()

    def test_warm_cache_rerun_reproduces_incumbent(self, trained_supernet,
                                                   mnist_splits, ood_small,
                                                   tmp_path):
        """A disk-warmed rerun replays the same trajectory as pure
        hits: identical incumbent and history, zero misses, and the
        same total request budget."""
        cache = EvaluationCache(str(tmp_path / "cache"))
        cold = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small, disk_cache=cache,
            cache_context="ctx"))
        warm = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small, disk_cache=cache,
            cache_context="ctx"))
        assert warm.best.to_dict() == cold.best.to_dict()
        assert warm.best_score == cold.best_score
        assert [h.to_dict() for h in warm.history] \
            == [h.to_dict() for h in cold.history]
        assert warm.cache_misses == 0
        assert all(stats.misses == 0 for stats in warm.rungs)
        assert (warm.cache_hits + warm.cache_misses
                == cold.cache_hits + cold.cache_misses)
        # Per-rung request budgets replay exactly too.
        assert [s.requests for s in warm.rungs] \
            == [s.requests for s in cold.rungs]

    def test_warm_reruns_are_byte_identical(self, trained_supernet,
                                            mnist_splits, ood_small,
                                            tmp_path):
        cache = EvaluationCache(str(tmp_path / "cache"))
        run_search(make_evaluator(trained_supernet, mnist_splits,
                                  ood_small, disk_cache=cache,
                                  cache_context="ctx"))
        warm_a = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small, disk_cache=cache,
            cache_context="ctx"))
        warm_b = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small, disk_cache=cache,
            cache_context="ctx"))
        assert warm_a.to_dict() == warm_b.to_dict()

    def test_counters_are_consistent(self, trained_supernet, mnist_splits,
                                     ood_small):
        result = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small))
        assert result.num_evaluations == result.cache_misses
        assert result.cache_hits == sum(s.hits for s in result.rungs)
        assert result.cache_misses == sum(s.misses for s in result.rungs)
        for stats in result.rungs:
            assert stats.requests == stats.hits + stats.misses


class TestFidelityRungs:
    """Per-fidelity purity: distinct cache keys, full-fidelity winner."""

    def test_rung_evaluator_scopes_cache_context(self, trained_supernet,
                                                 mnist_splits, ood_small):
        base = make_evaluator(trained_supernet, mnist_splits, ood_small,
                              cache_context="base-ctx")
        screened = rung_evaluator(base, FidelityRung(
            mc_samples=1, data_fraction=0.5))
        assert screened.num_mc_samples == 1
        assert screened.cache_context != base.cache_context
        assert screened.cache_context.startswith(base.cache_context)
        assert "fidelity" in screened.cache_context
        assert len(screened.val_data.images) \
            == max(1, round(0.5 * len(base.val_data.images)))

    def test_distinct_fidelities_have_distinct_contexts(
            self, trained_supernet, mnist_splits, ood_small):
        base = make_evaluator(trained_supernet, mnist_splits, ood_small)
        a = rung_evaluator(base, FidelityRung(mc_samples=1,
                                              data_fraction=0.5))
        b = rung_evaluator(base, FidelityRung(mc_samples=2,
                                              data_fraction=0.5))
        c = rung_evaluator(base, FidelityRung(mc_samples=1,
                                              data_fraction=0.25))
        assert len({a.cache_context, b.cache_context,
                    c.cache_context}) == 3

    def test_promotion_honors_per_fidelity_cache_keys(
            self, trained_supernet, mnist_splits, ood_small, tmp_path):
        """A candidate promoted through a screening rung gets a fresh
        full-fidelity evaluation — the screening score is never reused
        — and the disk cache keeps the fidelities apart."""
        cache = EvaluationCache(str(tmp_path / "cache"))
        evaluator = make_evaluator(trained_supernet, mnist_splits,
                                   ood_small, disk_cache=cache,
                                   cache_context="ctx")
        result = run_search(evaluator)
        # The winner equals an independent full-fidelity evaluation.
        fresh = make_evaluator(trained_supernet, mnist_splits, ood_small)
        assert fresh.evaluate(result.best_config).to_dict() \
            == result.best.to_dict()
        # Both fidelities of the winner live in the disk cache, under
        # different contexts, with different reported sample counts.
        search = AsyncEvolutionarySearch(
            make_evaluator(trained_supernet, mnist_splits, ood_small,
                           disk_cache=cache, cache_context="ctx"),
            AIM, config=RUNG_CONFIG, rng=42)
        screened_ctx = search.rung_evaluators[0].cache_context
        full_ctx = search.rung_evaluators[-1].cache_context
        name = result.best.config_string
        screened_payload = cache.get(screened_ctx, name)
        full_payload = cache.get(full_ctx, name)
        assert screened_payload is not None
        assert full_payload is not None
        assert screened_payload != full_payload
        assert full_payload == result.best.to_dict()

    def test_final_rung_stats_describe_full_fidelity(
            self, trained_supernet, mnist_splits, ood_small):
        result = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small))
        assert len(result.rungs) == 2
        screened, full = result.rungs
        assert screened.mc_samples == 1
        assert screened.keep_fraction == 0.5
        assert full.mc_samples == 2
        assert full.keep_fraction is None
        assert full.data_fraction == 1.0
        # Screening strictly reduces full-fidelity work relative to
        # the requests entering the ladder.
        assert full.requests == screened.promoted
        assert full.requests <= screened.requests

    def test_fidelity_subset_deterministic_and_sorted(self, mnist_splits):
        a = fidelity_subset(mnist_splits.val, 0.5, seed=7)
        b = fidelity_subset(mnist_splits.val, 0.5, seed=7)
        assert (a.images == b.images).all()
        assert len(a.images) == max(1, round(0.5 * len(
            mnist_splits.val.images)))
        # Full fraction is the identity (same object, not a copy).
        assert fidelity_subset(mnist_splits.val, 1.0, seed=7) \
            is mnist_splits.val
        # Different seeds draw different rows (overwhelmingly likely).
        c = fidelity_subset(mnist_splits.val, 0.5, seed=8)
        assert not (a.images == c.images).all()


class TestWorkerDeathRecovery:
    """A worker killed mid-queue neither drops nor double-counts."""

    @pytest.mark.parametrize("kill_at", (1, 3))
    def test_killed_worker_recovers_bit_identical(
            self, trained_supernet, mnist_splits, ood_small, kill_at):
        reference = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small), num_workers=1)

        injector = kill_plan(kill_at).injector()
        evaluator = make_evaluator(trained_supernet, mnist_splits,
                                   ood_small, num_workers=2)
        search = AsyncEvolutionarySearch(
            evaluator, AIM, config=RUNG_CONFIG, rng=42)
        with injected(injector):
            result = search.run()
        assert injector.fired == 1, "kill event never fired"
        assert result.to_dict() == reference.to_dict()

    def test_death_telemetry_stays_off_the_result(
            self, trained_supernet, mnist_splits, ood_small):
        """Recovery is an executor concern: the serialized result has
        no worker-death fields, so faulty and healthy runs stay
        byte-comparable."""
        with injected(kill_plan(2).injector()):
            result = run_search(
                make_evaluator(trained_supernet, mnist_splits, ood_small,
                               num_workers=2))
        payload = result.to_dict()
        assert "deaths" not in payload
        assert "redispatches" not in payload


class TestSteadyStateSearch:
    """Budget, coverage and result-shape properties."""

    def test_budget_and_baseline_dominance(self, trained_supernet,
                                           mnist_splits, ood_small):
        """The run consumes exactly ``population_size * generations``
        proposals (the lock-step budget), and — because the seeded
        uniform baselines are always evaluated — the incumbent can
        never fall behind any manual single-design baseline."""
        evaluator = make_evaluator(trained_supernet, mnist_splits,
                                   ood_small)
        space = trained_supernet.space
        config = AsyncEAConfig(evolution=EvolutionConfig(
            population_size=8, generations=4))
        result = run_search(evaluator, config=config)
        assert result.rungs[0].requests == 8 * 4
        assert (result.cache_hits + result.cache_misses) == 8 * 4
        for baseline in space.uniform_configs():
            assert baseline in evaluator.cache
            assert result.best_score \
                >= evaluator.cache[baseline].aim_score(AIM)

    def test_no_rungs_single_full_rung(self, trained_supernet,
                                       mnist_splits, ood_small):
        result = run_search(
            make_evaluator(trained_supernet, mnist_splits, ood_small),
            config=AsyncEAConfig(evolution=SMALL_EVOLUTION))
        assert len(result.rungs) == 1
        assert result.rungs[0].keep_fraction is None
        assert result.rungs[0].mc_samples == 2

    def test_history_tracks_full_folds(self, trained_supernet,
                                       mnist_splits, ood_small):
        result = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small))
        assert len(result.history) == result.rungs[-1].requests
        assert [h.generation for h in result.history] \
            == list(range(len(result.history)))
        best_scores = [h.best_score for h in result.history]
        assert best_scores == sorted(best_scores)
        assert result.best_score == best_scores[-1]

    def test_workers_above_one_require_eval_seed(self, trained_supernet,
                                                 mnist_splits, ood_small):
        evaluator = BatchedEvaluator(
            trained_supernet, mnist_splits.val, ood_small,
            num_mc_samples=2)
        with pytest.raises(ValueError, match="eval_seed"):
            AsyncEvolutionarySearch(evaluator, AIM, num_workers=2)

    def test_surrogate_promotion_keeps_determinism(self, trained_supernet,
                                                   mnist_splits,
                                                   ood_small):
        config = AsyncEAConfig(
            evolution=EvolutionConfig(population_size=4, generations=3),
            rungs=(FidelityRung(mc_samples=1, data_fraction=0.5,
                                keep_fraction=0.25),),
            surrogate_promotion=True)
        first = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small), config=config)
        second = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small), config=config)
        assert second.to_dict() == first.to_dict()


class TestResultSerialization:
    def test_round_trip(self, trained_supernet, mnist_splits, ood_small):
        result = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small))
        restored = AsyncSearchResult.from_dict(result.to_dict())
        assert restored.to_dict() == result.to_dict()

    def test_unknown_field_rejected(self, trained_supernet, mnist_splits,
                                    ood_small):
        payload = run_search(make_evaluator(
            trained_supernet, mnist_splits, ood_small)).to_dict()
        payload["bogus"] = 1
        with pytest.raises((KeyError, ValueError)):
            AsyncSearchResult.from_dict(payload)

    def test_rung_stats_round_trip(self):
        stats = RungStats(rung=0, mc_samples=1, val_rows=40, ood_rows=20,
                          data_fraction=0.5, keep_fraction=0.5,
                          requests=10, hits=3, misses=7, promoted=4)
        assert RungStats.from_dict(stats.to_dict()) == stats
        final = RungStats(rung=1, mc_samples=3, val_rows=80, ood_rows=40,
                          data_fraction=1.0, keep_fraction=None)
        assert RungStats.from_dict(final.to_dict()) == final


class TestSpecValidation:
    """Spec-level gating of the async-only fields."""

    def test_rungs_require_async_algorithm(self):
        with pytest.raises(SpecError, match="async_ea"):
            SearchSpec(fidelity_rungs=(FidelityRungSpec(mc_samples=1),))

    def test_surrogate_requires_async_algorithm(self):
        with pytest.raises(SpecError, match="async_ea"):
            SearchSpec(surrogate_promotion=True)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SpecError, match="algorithm"):
            SearchSpec(algorithm="simulated_annealing")

    def test_rung_fractions_validated(self):
        with pytest.raises(SpecError):
            FidelityRungSpec(data_fraction=0.0)
        with pytest.raises(SpecError):
            FidelityRungSpec(keep_fraction=1.5)
        with pytest.raises(SpecError):
            FidelityRungSpec(mc_samples=-1)

    def test_async_spec_round_trips(self):
        spec = ExperimentSpec(search=SearchSpec(
            aims=("accuracy",),
            algorithm="async_ea",
            fidelity_rungs=(FidelityRungSpec(mc_samples=1,
                                             data_fraction=0.25),),
            surrogate_promotion=True))
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.to_dict() == spec.to_dict()
        assert restored.search.fidelity_rungs[0].mc_samples == 1

    def test_algorithm_changes_resume_key_not_eval_cache_key(self):
        lockstep = ExperimentSpec()
        async_spec = ExperimentSpec(search=SearchSpec(
            algorithm="async_ea",
            fidelity_rungs=(FidelityRungSpec(mc_samples=1),)))
        assert lockstep.fingerprint() != async_spec.fingerprint()
        assert lockstep.evaluation_fingerprint() \
            == async_spec.evaluation_fingerprint()
