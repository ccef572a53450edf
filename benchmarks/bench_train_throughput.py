"""Supernet training throughput — fast path vs. reference trajectory.

Phase 2 (SPOS supernet training, paper Sec. 3.3) is the wall-clock
budget Table 2 reports as "search cost"; the training fast path every
trainer runs attacks it with fused in-place optimizer updates,
scatter-free pooling kernels and a per-layer buffer-reusing workspace
— the same fused-kernel discipline Fan et al.'s BNN accelerator
applies to the inference datapath.  This bench measures optimizer
steps per second for the fast path and for the reference trajectory
(the ``reference`` oracle of :mod:`tests.oracles`) on the LeNet
workload and emits a machine-readable ``BENCH_train_throughput.json``
record (including ``cpu_count``, since absolute steps/sec are
host-dependent).

Assertions:

* the modes are **bit-identical** on every measured workload — same
  epoch losses, same final weight bytes (speed never buys drift);
* fast beats reference for both optimizers (CI smoke gate, > 1x);
* at full scale, fast reaches >= 1.5x steps/sec on the LeNet workload
  (the PR's acceptance bar).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np
import pytest

from repro.data import make_dataset, split_dataset
from repro.models import build_model
from repro.search import Supernet, TrainConfig, train_supernet
from tests.oracles import train_mode

#: Optimizers measured; the acceptance gate reads both.
OPTIMIZERS = ("adam", "sgd")


def _build_supernet(image_size: int) -> Supernet:
    model = build_model("lenet", image_size=image_size, rng=0)
    return Supernet(model, p=0.15, rng=1)


@pytest.fixture(scope="module")
def workload(request):
    """LeNet SPOS training workload: (splits, image_size, epochs, smoke)."""
    smoke = bool(request.config.getoption("--bench-smoke"))
    image_size = 16 if smoke else 28
    dataset_size = 300 if smoke else 700
    epochs = 2 if smoke else 4
    dataset = make_dataset("mnist_like", dataset_size,
                           image_size=image_size, rng=0).normalized()
    splits = split_dataset(dataset, rng=1)
    return splits, image_size, epochs, smoke


def _train_once(mode: str, optimizer: str, splits, image_size: int,
                epochs: int):
    """One seeded training run; returns (log, weights, wall seconds)."""
    supernet = _build_supernet(image_size)
    config = TrainConfig(epochs=epochs, optimizer=optimizer)
    with train_mode(mode):
        start = time.perf_counter()
        log = train_supernet(supernet, splits.train, config, rng=2)
        elapsed = time.perf_counter() - start
    state = supernet.state_dict()
    return log, state, elapsed


def test_train_throughput(workload, bench_json, emit_table):
    splits, image_size, epochs, smoke = workload
    repeats = 1 if smoke else 2
    rows: List[List[object]] = []
    records: List[Dict[str, object]] = []
    for optimizer in OPTIMIZERS:
        results = {}
        for mode in ("reference", "fast"):
            best = None
            for _ in range(repeats):
                log, state, elapsed = _train_once(
                    mode, optimizer, splits, image_size, epochs)
                if best is None or elapsed < best[2]:
                    best = (log, state, elapsed)
            results[mode] = best
        ref_log, ref_state, ref_s = results["reference"]
        fast_log, fast_state, fast_s = results["fast"]
        # Bit-identity: the whole point of the fast/reference contract.
        assert fast_log.epoch_losses == ref_log.epoch_losses, (
            f"modes diverged in epoch losses for {optimizer}")
        assert fast_log.steps == ref_log.steps
        assert sorted(fast_state) == sorted(ref_state)
        for key in ref_state:
            assert ref_state[key].tobytes() == fast_state[key].tobytes(), (
                f"modes diverged in weight {key!r} for {optimizer}")
        ref_sps = ref_log.steps / ref_s
        fast_sps = fast_log.steps / fast_s
        speedup = fast_sps / ref_sps
        records.append({
            "optimizer": optimizer,
            "steps": int(ref_log.steps),
            "reference_steps_per_sec": ref_sps,
            "fast_steps_per_sec": fast_sps,
            "speedup": speedup,
            "bit_identical": True,
        })
        rows.append([optimizer, ref_log.steps, f"{ref_sps:.1f}",
                     f"{fast_sps:.1f}", f"{speedup:.2f}x"])

    headline = min(float(r["speedup"]) for r in records)
    payload = {
        "workload": {
            "model": "lenet",
            "image_size": image_size,
            "epochs": epochs,
            "batch_size": 32,
            "train_size": len(splits.train),
            "smoke": smoke,
            "repeats": repeats,
        },
        "cpu_count": os.cpu_count(),
        "records": records,
        "speedup_min": headline,
        "speedup_mean": float(np.mean([r["speedup"] for r in records])),
    }
    bench_json("train_throughput", payload)
    emit_table(
        "train_throughput",
        "Supernet training throughput — fast path vs. reference "
        "(LeNet SPOS, best-of-{} wall time)".format(repeats),
        ["Optimizer", "Steps", "Ref steps/s", "Fast steps/s", "Speedup"],
        rows)

    # CI gate: the fast path must never lose to the reference.
    assert headline > 1.0, f"fast path slower than reference: {headline:.2f}x"
    if not smoke:
        # Acceptance bar: >= 1.5x steps/sec on the full-scale workload.
        assert headline >= 1.5, (
            f"fast path below the 1.5x bar: {headline:.2f}x")
