"""Parallel/serial equivalence suite and disk-cache crash recovery.

The process-pool evaluation path must be **bit-identical** to the
serial path — same winning configs, same scores, same generation
history, same counters — for every worker count and shard boundary,
on the fused MC engine and on the looped oracle alike (selected
through :mod:`tests.oracles`; forked workers inherit the selection).
The per-candidate ``eval_seed`` determinism contract
(:mod:`repro.search.evaluator`) is what makes this possible; these
tests are its enforcement.

The second half covers the cross-run :class:`EvaluationCache`: warm
runs answer entirely from disk (``cache_misses == 0``) with unchanged
results, and torn or corrupt cache entries are ignored, never loaded.
"""

import os
import signal

import pytest

from repro.api import (
    EvaluationCache,
    EvolutionSpec,
    ExperimentSpec,
    GenerateSpec,
    Runner,
    SearchSpec,
    TrainSpec,
)
from repro.search import BatchedEvaluator, ParallelEvaluator
from tests.oracles import ENGINES, mc_engine

WORKER_COUNTS = (1, 2, 4)


def parallel_spec(num_workers, **overrides):
    """CI-scale spec differing from its siblings only in workers."""
    base = dict(
        name="parallel",
        model="lenet_slim", dataset="mnist_like", image_size=16,
        dataset_size=120, ood_size=30, seed=19,
        num_workers=num_workers,
        train=TrainSpec(epochs=1),
        search=SearchSpec(
            aims=("accuracy",),
            evolution=EvolutionSpec(population_size=4, generations=2)),
        generate=GenerateSpec(aim="accuracy"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def matrix_runs():
    """The same experiment across every (engine, worker-count) cell."""
    runs = {}
    for engine in ENGINES:
        with mc_engine(engine):
            for workers in WORKER_COUNTS:
                runs[(engine, workers)] = Runner(
                    parallel_spec(workers)).run()
    return runs


def within(seconds, fn, *args):
    """Call ``fn``, failing instead of hanging once ``seconds`` pass."""
    def expire(signum, frame):
        raise TimeoutError(f"call still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSearchResultEquivalence:
    """Identical ``SearchResult`` across worker counts and engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    def test_workers_bit_identical_to_serial(self, matrix_runs, engine,
                                             workers):
        serial = matrix_runs[(engine, 1)].best("accuracy")
        pooled = matrix_runs[(engine, workers)].best("accuracy")
        assert pooled.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_engines_agree_at_every_worker_count(self, matrix_runs,
                                                 workers):
        batched = matrix_runs[("batched", workers)].best("accuracy")
        looped = matrix_runs[("looped", workers)].best("accuracy")
        assert batched.to_dict() == looped.to_dict()

    def test_history_and_counters_preserved(self, matrix_runs):
        reference = matrix_runs[("batched", 1)].best("accuracy")
        for run in matrix_runs.values():
            result = run.best("accuracy")
            assert [h.to_dict() for h in result.history] \
                == [h.to_dict() for h in reference.history]
            assert result.cache_hits == reference.cache_hits
            assert result.cache_misses == reference.cache_misses


class TestEvaluatorLevel:
    """Direct generation-level equivalence and pool plumbing."""

    CONFIGS = [("B", "B", "B"), ("M", "M", "M"), ("B", "M", "B"),
               ("M", "B", "M"), ("B", "B", "M"), ("B", "B", "B")]

    def evaluator(self, trained_supernet, mnist_splits, ood_small, *,
                  num_workers):
        return BatchedEvaluator(
            trained_supernet, mnist_splits.val, ood_small,
            num_mc_samples=2, eval_seed=5, num_workers=num_workers)

    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    def test_generation_results_match_serial(self, trained_supernet,
                                             mnist_splits, ood_small,
                                             workers):
        serial = self.evaluator(trained_supernet, mnist_splits,
                                ood_small, num_workers=1)
        pooled = self.evaluator(trained_supernet, mnist_splits,
                                ood_small, num_workers=workers)
        expected = serial.evaluate_generation(self.CONFIGS)
        observed = pooled.evaluate_generation(self.CONFIGS)
        assert [r.to_dict() for r in observed] \
            == [r.to_dict() for r in expected]
        assert pooled.cache_hits == serial.cache_hits
        assert pooled.cache_misses == serial.cache_misses
        assert pooled.generations_evaluated == serial.generations_evaluated

    def test_shards_partition_input(self, trained_supernet, mnist_splits,
                                    ood_small):
        evaluator = self.evaluator(trained_supernet, mnist_splits,
                                   ood_small, num_workers=3)
        pool = ParallelEvaluator(evaluator, num_workers=3)
        shards = pool.shard(self.CONFIGS)
        assert len(shards) == 3
        assert [c for shard in shards for c in shard] == self.CONFIGS
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_candidates(self, trained_supernet,
                                          mnist_splits, ood_small):
        serial = self.evaluator(trained_supernet, mnist_splits,
                                ood_small, num_workers=1)
        wide = self.evaluator(trained_supernet, mnist_splits,
                              ood_small, num_workers=8)
        configs = self.CONFIGS[:2]
        assert [r.to_dict() for r in wide.evaluate_generation(configs)] \
            == [r.to_dict() for r in serial.evaluate_generation(configs)]

    def test_dead_worker_does_not_hang_the_generation(
            self, trained_supernet, mnist_splits, ood_small, monkeypatch):
        """Regression: a worker SIGKILLed mid-shard must not block the
        generation; its shard is retried, then computed inline, with
        results and counters unchanged."""
        serial = self.evaluator(trained_supernet, mnist_splits,
                                ood_small, num_workers=1)
        pooled = self.evaluator(trained_supernet, mnist_splits,
                                ood_small, num_workers=2)
        expected = serial.evaluate_generation(self.CONFIGS)
        parent = os.getpid()
        original = type(pooled).compute

        def dying_compute(self, config):
            if config == ("M", "B", "M") and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, config)

        monkeypatch.setattr(type(pooled), "compute", dying_compute)
        observed = within(60, pooled.evaluate_generation, self.CONFIGS)
        assert [r.to_dict() for r in observed] \
            == [r.to_dict() for r in expected]
        assert pooled.cache_hits == serial.cache_hits
        assert pooled.cache_misses == serial.cache_misses

    def test_single_candidate_evaluation_is_order_free(
            self, trained_supernet, mnist_splits, ood_small):
        """With eval_seed, a candidate's result cannot depend on what
        was evaluated before it — the property the pool relies on."""
        a = self.evaluator(trained_supernet, mnist_splits, ood_small,
                           num_workers=1)
        a.evaluate(("M", "M", "M"))
        first = a.evaluate(("B", "M", "B"))
        b = self.evaluator(trained_supernet, mnist_splits, ood_small,
                           num_workers=1)
        fresh = b.evaluate(("B", "M", "B"))
        assert fresh.to_dict() == first.to_dict()


class TestEvaluationCacheRobustness:
    """Crash-recovery contract: torn entries are ignored, not loaded."""

    CONTEXT = "ctx-fingerprint"

    def test_round_trip(self, tmp_path):
        cache = EvaluationCache(str(tmp_path / "cache"))
        assert cache.get(self.CONTEXT, "B-K-M") is None
        cache.put(self.CONTEXT, "B-K-M", {"x": 1})
        assert cache.get(self.CONTEXT, "B-K-M") == {"x": 1}
        assert len(cache) == 1

    def test_distinct_contexts_do_not_collide(self, tmp_path):
        cache = EvaluationCache(str(tmp_path / "cache"))
        cache.put("ctx-a", "B-B-B", {"from": "a"})
        assert cache.get("ctx-b", "B-B-B") is None
        assert cache.get("ctx-a", "B-B-B") == {"from": "a"}

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = EvaluationCache(str(tmp_path / "cache"))
        path = cache.put(self.CONTEXT, "B-K-M", {"x": 1})
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # Emulate a writer killed mid-write (pre-rename crashes leave
        # no file at all; this is the harsher torn-file case).
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[:len(text) // 2])
        assert cache.get(self.CONTEXT, "B-K-M") is None

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = EvaluationCache(str(tmp_path / "cache"))
        path = cache.put(self.CONTEXT, "B-K-M", {"x": 1})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json at all")
        assert cache.get(self.CONTEXT, "B-K-M") is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """An entry renamed onto another key (or a would-be collision)
        fails the envelope check instead of serving wrong data."""
        cache = EvaluationCache(str(tmp_path / "cache"))
        source = cache.put(self.CONTEXT, "B-K-M", {"x": 1})
        target = cache.path(self.CONTEXT, "M-M-M")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.replace(source, target)
        assert cache.get(self.CONTEXT, "M-M-M") is None

    def test_evaluator_recomputes_after_corruption(
            self, trained_supernet, mnist_splits, ood_small, tmp_path):
        cache = EvaluationCache(str(tmp_path / "cache"))
        kwargs = dict(num_mc_samples=2, eval_seed=5, disk_cache=cache,
                      cache_context=self.CONTEXT)
        first = BatchedEvaluator(trained_supernet, mnist_splits.val,
                                 ood_small, **kwargs)
        original = first.evaluate(("B", "M", "B"))
        assert first.cache_misses == 1

        warm = BatchedEvaluator(trained_supernet, mnist_splits.val,
                                ood_small, **kwargs)
        restored = warm.evaluate(("B", "M", "B"))
        assert warm.cache_misses == 0 and warm.cache_hits == 1
        assert restored.to_dict() == original.to_dict()

        path = cache.path(self.CONTEXT, "B-M-B")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"cache_version": 1, "payl')  # torn mid-write
        recovered = BatchedEvaluator(trained_supernet, mnist_splits.val,
                                     ood_small, **kwargs)
        recomputed = recovered.evaluate(("B", "M", "B"))
        assert recovered.cache_misses == 1
        # Determinism: the recomputed result matches the lost entry.
        assert recomputed.to_dict() == original.to_dict()


class TestCrossRunDiskReuse:
    """A warm disk cache eliminates every candidate re-evaluation."""

    def test_renamed_run_hits_disk_for_everything(self, tmp_path):
        root = str(tmp_path / "runs")
        cold = Runner(parallel_spec(1, name="cold"),
                      store_root=root).run()
        warm = Runner(parallel_spec(1, name="warm"),
                      store_root=root).run()
        cold_result = cold.best("accuracy")
        warm_result = warm.best("accuracy")
        # Different run directory (name changed) → the search truly
        # re-runs, but every candidate comes back from the shared
        # cross-run cache: zero fresh evaluations.
        assert warm.resumed == frozenset()
        assert warm_result.cache_misses == 0
        assert warm_result.cache_hits > 0
        # …with the identical outcome, bit for bit.
        assert warm_result.best.to_dict() == cold_result.best.to_dict()
        assert warm_result.best_score == cold_result.best_score
        assert [h.to_dict() for h in warm_result.history] \
            == [h.to_dict() for h in cold_result.history]

    def test_cache_lives_beside_run_dirs(self, tmp_path):
        root = str(tmp_path / "runs")
        Runner(parallel_spec(1, name="solo"), store_root=root).run()
        assert "eval_cache" in os.listdir(root)
        assert len(EvaluationCache(os.path.join(root, "eval_cache"))) > 0


class TestDuplicateDeduplication:
    """Regression: duplicate configs must be computed once, not once
    per occurrence, and the extra occurrences must count as hits."""

    DUPLICATED = [("B", "B", "B"), ("M", "M", "M"), ("B", "B", "B"),
                  ("M", "M", "M"), ("B", "B", "B")]

    def evaluator(self, trained_supernet, mnist_splits, ood_small, *,
                  num_workers=1):
        return BatchedEvaluator(
            trained_supernet, mnist_splits.val, ood_small,
            num_mc_samples=2, eval_seed=5, num_workers=num_workers)

    def test_inline_computes_each_unique_config_once(
            self, trained_supernet, mnist_splits, ood_small,
            monkeypatch):
        evaluator = self.evaluator(trained_supernet, mnist_splits,
                                   ood_small)
        computed = []
        original = type(evaluator).compute

        def counting_compute(self, config):
            computed.append(config)
            return original(self, config)

        monkeypatch.setattr(type(evaluator), "compute",
                            counting_compute)
        results = evaluator.evaluate_generation(self.DUPLICATED)
        assert sorted(computed) == sorted(set(self.DUPLICATED))
        assert evaluator.cache_misses == len(set(self.DUPLICATED))
        assert evaluator.cache_hits \
            == len(self.DUPLICATED) - len(set(self.DUPLICATED))
        # Results still fan back out to every occurrence, in order.
        for config, result in zip(self.DUPLICATED, results):
            assert result.config == config

    def test_pool_shards_only_unique_configs(self, trained_supernet,
                                             mnist_splits, ood_small,
                                             monkeypatch):
        evaluator = self.evaluator(trained_supernet, mnist_splits,
                                   ood_small, num_workers=2)
        sharded = []
        original_shard = ParallelEvaluator.shard

        def spying_shard(self, configs):
            sharded.append(list(configs))
            return original_shard(self, configs)

        monkeypatch.setattr(ParallelEvaluator, "shard", spying_shard)
        results = evaluator.evaluate_generation(self.DUPLICATED)
        assert sharded == [[("B", "B", "B"), ("M", "M", "M")]]
        assert [r.config for r in results] == self.DUPLICATED
        assert evaluator.cache_misses == 2
        assert evaluator.cache_hits == 3

    def test_duplicates_match_serial_results(self, trained_supernet,
                                             mnist_splits, ood_small):
        serial = self.evaluator(trained_supernet, mnist_splits,
                                ood_small)
        pooled = self.evaluator(trained_supernet, mnist_splits,
                                ood_small, num_workers=2)
        expected = serial.evaluate_generation(self.DUPLICATED)
        observed = pooled.evaluate_generation(self.DUPLICATED)
        assert [r.to_dict() for r in observed] \
            == [r.to_dict() for r in expected]
        assert pooled.cache_hits == serial.cache_hits
        assert pooled.cache_misses == serial.cache_misses


class TestDegeneratePathCaching:
    """Regression: the pool's degenerate inline path (one distinct
    candidate / one worker) must store and count exactly like the
    pooled path — it used to bypass the caches and the counters."""

    def evaluator(self, trained_supernet, mnist_splits, ood_small,
                  **kwargs):
        return BatchedEvaluator(
            trained_supernet, mnist_splits.val, ood_small,
            num_mc_samples=2, eval_seed=5, num_workers=2, **kwargs)

    def test_single_config_populates_memo_and_counters(
            self, trained_supernet, mnist_splits, ood_small):
        evaluator = self.evaluator(trained_supernet, mnist_splits,
                                   ood_small)
        first = evaluator.evaluate_generation([("B", "M", "B")])
        assert evaluator.cache_misses == 1
        assert evaluator.cache_hits == 0
        assert ("B", "M", "B") in evaluator.cache
        second = evaluator.evaluate_generation([("B", "M", "B")])
        assert evaluator.cache_misses == 1
        assert evaluator.cache_hits == 1
        assert second[0].to_dict() == first[0].to_dict()

    def test_single_config_writes_disk_cache(self, trained_supernet,
                                             mnist_splits, ood_small,
                                             tmp_path):
        cache = EvaluationCache(str(tmp_path / "cache"))
        evaluator = self.evaluator(trained_supernet, mnist_splits,
                                   ood_small, disk_cache=cache,
                                   cache_context="ctx")
        evaluator.evaluate_generation([("B", "M", "B")])
        assert cache.get("ctx", "B-M-B") is not None
        # A fresh evaluator answers from disk: zero fresh computations.
        fresh = self.evaluator(trained_supernet, mnist_splits,
                               ood_small, disk_cache=cache,
                               cache_context="ctx")
        fresh.evaluate_generation([("B", "M", "B")])
        assert fresh.cache_misses == 0
        assert fresh.cache_hits == 1
