"""Generation-evaluation throughput — process pool vs. serial.

The search phase's wall-clock cost is one generation-evaluation after
another; PR 2 made each candidate cheap (batched MC engine) and this
bench measures the remaining lever: sharding a generation's candidates
across forked worker processes
(:class:`repro.search.parallel.ParallelEvaluator` driven through
:meth:`repro.search.evaluator.BatchedEvaluator.evaluate_generation`).

Assertions:

* every worker count returns **bit-identical** results (the
  determinism contract — parallelism never buys drift);
* in full mode, 4 workers beat the serial path on the LeNet workload
  (the PR's acceptance measurement, recorded to
  ``BENCH_parallel_eval.json`` with a ``host`` stamp — git sha, usable
  CPU count and BLAS build, from :func:`perfbench.host.envelope`).

The smoke variant (CI) runs a slim workload and only gates on
bit-identity: pool startup overhead is real, and a smoke-sized
generation is deliberately too small to amortize it reliably.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np
import pytest

from repro.data import gaussian_noise_like, make_mnist_like, split_dataset
from repro.models import build_model
from repro.search import BatchedEvaluator, Supernet, TrainConfig, \
    train_supernet

#: Worker counts measured; the headline speedup reads the last entry.
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def eval_workload(request):
    """Trained LeNet supernet + datasets + a generation of candidates."""
    smoke = bool(request.config.getoption("--bench-smoke"))
    model_name = "lenet_slim" if smoke else "lenet"
    image_size = 16 if smoke else 28
    dataset_size = 220 if smoke else 700
    population = 8 if smoke else 16
    dataset = make_mnist_like(dataset_size, image_size=image_size,
                              rng=40).normalized()
    splits = split_dataset(dataset, rng=41)
    ood = gaussian_noise_like(splits.train, 60 if smoke else 150, rng=42)
    model = build_model(model_name, image_size=image_size, rng=43)
    supernet = Supernet(model, p=0.15, scale=1.7, rng=44)
    train_supernet(supernet, splits.train,
                   TrainConfig(epochs=1 if smoke else 3), rng=45)
    space = supernet.space
    rng = np.random.default_rng(46)
    configs, seen = [], set()
    while len(configs) < population:
        candidate = space.sample(rng)
        if candidate not in seen:
            seen.add(candidate)
            configs.append(candidate)
    return supernet, splits, ood, configs, smoke


def _evaluate_once(supernet, splits, ood, configs, num_workers):
    """One cold generation evaluation; returns (seconds, results)."""
    evaluator = BatchedEvaluator(
        supernet, splits.val, ood, num_mc_samples=3, eval_seed=7,
        num_workers=num_workers)
    start = time.perf_counter()
    results = evaluator.evaluate_generation(configs)
    elapsed = time.perf_counter() - start
    assert evaluator.cache_misses == len(configs)
    return elapsed, [r.to_dict() for r in results]


def test_parallel_generation_eval(eval_workload, bench_json, emit_table,
                                  host_stamp):
    supernet, splits, ood, configs, smoke = eval_workload
    repeats = 1 if smoke else 3
    records: List[Dict[str, object]] = []
    rows: List[List[object]] = []
    reference = None
    serial_s = None
    for workers in WORKER_COUNTS:
        best_s = float("inf")
        results = None
        for _ in range(repeats):
            elapsed, results = _evaluate_once(
                supernet, splits, ood, configs, workers)
            best_s = min(best_s, elapsed)
        if reference is None:
            reference = results
            serial_s = best_s
        else:
            # Bit-identity across worker counts — the hard gate.
            assert results == reference, (
                f"pool with {workers} workers diverged from serial")
        speedup = serial_s / best_s
        records.append({
            "num_workers": workers,
            "seconds": best_s,
            "per_candidate_ms": best_s / len(configs) * 1e3,
            "speedup_vs_serial": speedup,
            "bit_identical": True,
        })
        rows.append([workers, f"{best_s:.2f}",
                     f"{best_s / len(configs) * 1e3:.0f}",
                     f"{speedup:.2f}x"])

    headline = float(records[-1]["speedup_vs_serial"])
    cpu_count = os.cpu_count() or 1
    payload = {
        "workload": {
            "model": "lenet_slim" if smoke else "lenet",
            "population": len(configs),
            "val_images": len(splits.val.images),
            "ood_images": len(ood.images),
            "mc_samples": 3,
            "smoke": smoke,
            "repeats": repeats,
        },
        "host": host_stamp("bench_parallel_eval"),
        "records": records,
        "speedup_at_max_workers": headline,
    }
    bench_json("parallel_eval", payload)
    emit_table(
        "parallel_eval",
        "Generation evaluation — process pool vs. serial "
        f"(LeNet, {len(configs)} candidates, best-of-{repeats})",
        ["Workers", "Seconds", "ms/candidate", "Speedup"],
        rows)

    if not smoke and cpu_count >= max(WORKER_COUNTS):
        # Acceptance measurement: on hardware with enough cores, the
        # pool must pay for itself at 4 workers on the full-scale
        # LeNet generation.  On fewer cores the JSON record still
        # captures the honest (necessarily <= 1x) number — forked
        # workers cannot beat serial on a single CPU.
        assert headline > 1.0, (
            f"4-worker pool slower than serial: {headline:.2f}x")
