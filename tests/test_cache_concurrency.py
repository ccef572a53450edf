"""EvaluationCache under actual concurrency: racing writers, live readers.

PR 3 claimed the disk evaluation cache is safe to share across
processes because writes are atomic (temp file + rename) and torn
entries read as misses.  This suite pins that claim under real
concurrent processes instead of trusting the os.replace documentation:

* **racing writers** — N forked children hammer ``put`` on the *same*
  key through a start barrier; afterwards exactly one entry file
  exists, it parses, and it equals one of the payloads some writer
  wrote whole (never a mix), with no temp-file litter left behind;
* **reader during writes** — a reader polling ``get`` while writers
  run never crashes and never observes a torn/mixed payload: every
  non-None result is exactly one writer's complete payload;
* **racing evaluators** — two forked processes run the real
  ``CandidateEvaluator`` disk-cache write path
  (:meth:`repro.search.evaluator.CandidateEvaluator.store`) on the
  same candidate; the surviving entry round-trips through
  ``CandidateResult.from_dict`` and, because of the per-candidate
  ``eval_seed`` purity contract, both racers computed the *same*
  result — so whichever write wins, the cache is correct.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.api.artifacts import EvaluationCache
from repro.search.evaluator import CandidateEvaluator, CandidateResult

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="concurrency suite requires the fork start method")

CONTEXT = "ctx-races"
NAME = "B-K-M"


def writer_payload(writer_id: int) -> dict:
    """Big enough that a torn write could not parse as valid JSON."""
    return {"writer": writer_id, "filler": list(range(500))}


def _hammer_put(root: str, writer_id: int, barrier, rounds: int) -> None:
    cache = EvaluationCache(root)
    barrier.wait()
    for _ in range(rounds):
        cache.put(CONTEXT, NAME, writer_payload(writer_id))


def _spawn_writers(root, num_writers, rounds):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(num_writers + 1)
    procs = [ctx.Process(target=_hammer_put,
                         args=(root, writer_id, barrier, rounds))
             for writer_id in range(num_writers)]
    for proc in procs:
        proc.start()
    return procs, barrier


def _files_under(root):
    found = []
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            found.append(os.path.join(dirpath, filename))
    return found


class TestRacingWriters:
    def test_one_valid_entry_survives(self, tmp_path):
        root = str(tmp_path / "cache")
        num_writers, rounds = 4, 30
        procs, barrier = _spawn_writers(root, num_writers, rounds)
        barrier.wait()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        cache = EvaluationCache(root)
        payload = cache.get(CONTEXT, NAME)
        assert payload is not None, "entry lost after racing writers"
        assert payload == writer_payload(payload["writer"])
        # Exactly one entry file; no temp litter from any racer.
        files = _files_under(root)
        assert files == [cache.path(CONTEXT, NAME)]
        assert len(cache) == 1

    def test_entry_file_is_well_formed_json(self, tmp_path):
        root = str(tmp_path / "cache")
        procs, barrier = _spawn_writers(root, 3, 20)
        barrier.wait()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        cache = EvaluationCache(root)
        with open(cache.path(CONTEXT, NAME), encoding="utf-8") as fh:
            document = json.load(fh)  # parses whole: never torn
        assert document["context"] == CONTEXT
        assert document["name"] == NAME


class TestReaderDuringWrites:
    def test_reader_never_sees_a_torn_entry(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = EvaluationCache(root)
        procs, barrier = _spawn_writers(root, 3, 40)
        barrier.wait()
        observed = 0
        while any(proc.is_alive() for proc in procs):
            payload = cache.get(CONTEXT, NAME)  # must never raise
            if payload is not None:
                observed += 1
                # A whole payload from exactly one writer — a torn or
                # interleaved write could not satisfy this equality.
                assert payload == writer_payload(payload["writer"])
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert cache.get(CONTEXT, NAME) is not None
        assert observed > 0, "reader never overlapped the writers"


# ----------------------------------------------------------------------
# The real evaluator write path, raced end to end
# ----------------------------------------------------------------------
def _build_evaluator(cache_root):
    from repro.data import gaussian_noise_like, make_dataset, split_dataset
    from repro.models import build_model
    from repro.search import Supernet

    dataset = make_dataset("mnist_like", 80, image_size=16,
                           rng=1).normalized()
    splits = split_dataset(dataset, rng=2)
    ood = gaussian_noise_like(splits.train, 20, rng=3)
    model = build_model("lenet_slim", image_size=16, rng=4)
    supernet = Supernet(model, p=0.15, rng=5)
    return CandidateEvaluator(
        supernet, splits.val, ood, num_mc_samples=2, eval_seed=9,
        disk_cache=EvaluationCache(cache_root), cache_context=CONTEXT)


def _evaluate_candidate(cache_root, barrier, queue) -> None:
    evaluator = _build_evaluator(cache_root)
    barrier.wait()
    result = evaluator.evaluate(("B", "K", "M"))
    queue.put(result.to_dict())


class TestRacingEvaluators:
    def test_concurrent_evaluators_share_one_sound_entry(self, tmp_path):
        cache_root = str(tmp_path / "eval_cache")
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        procs = [ctx.Process(target=_evaluate_candidate,
                             args=(cache_root, barrier, queue))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        payloads = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        # Purity contract: both racers computed identical results, so
        # the race has no wrong winner.
        assert payloads[0] == payloads[1]
        # The surviving entry round-trips and matches what they wrote.
        cache = EvaluationCache(cache_root)
        entry = cache.get(CONTEXT, NAME)
        assert entry is not None
        restored = CandidateResult.from_dict(entry)
        assert restored.config == ("B", "K", "M")
        assert entry == payloads[0]
        # A third, fresh evaluator is served entirely from the cache.
        evaluator = _build_evaluator(cache_root)
        result = evaluator.evaluate(("B", "K", "M"))
        assert evaluator.cache_hits == 1
        assert evaluator.cache_misses == 0
        assert result.to_dict() == payloads[0]
