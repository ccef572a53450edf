"""Tests for the memoizing candidate evaluator."""

import pytest

from repro.search import BatchedEvaluator, CandidateEvaluator, get_aim


class TestCaching:
    def test_second_evaluation_is_cached(self, trained_supernet,
                                         mnist_splits, ood_small):
        ev = CandidateEvaluator(trained_supernet, mnist_splits.val,
                                ood_small, num_mc_samples=2, eval_seed=0)
        a = ev.evaluate(("B", "B", "B"))
        count = ev.num_evaluations
        b = ev.evaluate(("B", "B", "B"))
        assert ev.num_evaluations == count
        assert a is b

    def test_distinct_configs_counted(self, trained_supernet,
                                      mnist_splits, ood_small):
        ev = CandidateEvaluator(trained_supernet, mnist_splits.val,
                                ood_small, num_mc_samples=2, eval_seed=0)
        ev.evaluate(("B", "B", "B"))
        ev.evaluate(("M", "M", "M"))
        assert ev.num_evaluations == 2
        assert len(ev.cache) == 2

    def test_config_normalized_before_cache(self, trained_supernet,
                                            mnist_splits, ood_small):
        ev = CandidateEvaluator(trained_supernet, mnist_splits.val,
                                ood_small, num_mc_samples=2, eval_seed=0)
        ev.evaluate(("bernoulli", "b", "B"))
        ev.evaluate(("B", "B", "B"))
        assert ev.num_evaluations == 1


class TestHitMissAccounting:
    """Regression pins for the ISSUE-3 accounting split."""

    def test_hits_and_misses_tracked_separately(self, trained_supernet,
                                                mnist_splits, ood_small):
        ev = CandidateEvaluator(trained_supernet, mnist_splits.val,
                                ood_small, num_mc_samples=2, eval_seed=0)
        ev.evaluate(("B", "B", "B"))
        ev.evaluate(("B", "B", "B"))
        ev.evaluate(("M", "M", "M"))
        assert ev.cache_misses == 2
        assert ev.cache_hits == 1
        assert ev.num_evaluations == ev.cache_misses
        assert ev.num_requests == 3

    def test_all_hit_generation_not_counted(self, trained_supernet,
                                            mnist_splits, ood_small):
        ev = BatchedEvaluator(trained_supernet, mnist_splits.val,
                              ood_small, num_mc_samples=2, eval_seed=0)
        generation = [("B", "B", "B"), ("M", "M", "M")]
        ev.evaluate_generation(generation)
        assert ev.generations_evaluated == 1
        # Re-scoring the same generation is pure cache traffic: the
        # per-generation amortized-cost denominator must not move.
        ev.evaluate_generation(generation)
        assert ev.generations_evaluated == 1
        assert ev.cache_hits == 2
        assert ev.cache_misses == 2

    def test_within_generation_duplicates_count_as_hits(
            self, trained_supernet, mnist_splits, ood_small):
        ev = BatchedEvaluator(trained_supernet, mnist_splits.val,
                              ood_small, num_mc_samples=2, eval_seed=0)
        results = ev.evaluate_generation(
            [("B", "B", "B"), ("B", "B", "B"), ("B", "B", "B")])
        assert ev.cache_misses == 1
        assert ev.cache_hits == 2
        assert results[0] is results[1] is results[2]


class TestLatencyIntegration:
    def test_latency_fn_used(self, trained_supernet, mnist_splits,
                             ood_small):
        calls = []

        def fake_latency(config):
            calls.append(config)
            return 7.5

        ev = CandidateEvaluator(trained_supernet, mnist_splits.val,
                                ood_small, latency_fn=fake_latency,
                                num_mc_samples=2, eval_seed=0)
        result = ev.evaluate(("B", "B", "B"))
        assert result.latency_ms == 7.5
        assert calls == [("B", "B", "B")]

    def test_no_latency_fn_gives_zero(self, trained_supernet,
                                      mnist_splits, ood_small):
        ev = CandidateEvaluator(trained_supernet, mnist_splits.val,
                                ood_small, num_mc_samples=2, eval_seed=0)
        assert ev.evaluate(("M", "M", "M")).latency_ms == 0.0


class TestCandidateResult:
    def test_as_row_keys(self, trained_supernet, mnist_splits, ood_small):
        ev = CandidateEvaluator(trained_supernet, mnist_splits.val,
                                ood_small, num_mc_samples=2, eval_seed=0)
        row = ev.evaluate(("B", "M", "B")).as_row()
        for key in ("config", "latency_ms", "accuracy", "ece", "ape"):
            assert key in row
        assert row["config"] == "B-M-B"

    def test_aim_score(self, trained_supernet, mnist_splits, ood_small):
        ev = CandidateEvaluator(trained_supernet, mnist_splits.val,
                                ood_small, num_mc_samples=2, eval_seed=0)
        result = ev.evaluate(("B", "B", "B"))
        assert result.aim_score(get_aim("accuracy")) == pytest.approx(
            result.report.accuracy)
