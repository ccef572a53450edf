"""MC inference throughput — batched engine vs. looped reference.

The paper's premise is that MC-dropout BayesNN inference must run the
``T`` stochastic forward passes "as fast as the hardware allows"; Fan
et al. (arXiv:2105.09163) obtain their FPGA speedup by evaluating all
``T`` samples as one fused batch.  This bench measures the software
analogue: :func:`repro.bayes.mc.mc_predict` (shared-prefix, fused,
inference-mode) against ``mc_predict_looped`` (the sequential reference
oracle, from :mod:`tests.oracles`) on the LeNet workload, and emits a
machine-readable ``BENCH_mc_throughput.json`` speedup record.

Assertions:

* the engines are **bit-identical** on every measured workload (the
  whole point of the equivalence contract — speed never buys drift);
* batched is faster than looped at ``T = 3`` (CI smoke gate);
* at full scale, batched reaches at least 2x at ``T = 3`` on the
  LeNet workload (the PR's acceptance bar).
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np
import pytest

from repro.bayes.mc import mc_predict
from repro.models import build_model
from repro.search import Supernet
from tests.oracles import mc_predict_looped

#: Dropout configurations measured (uniform dynamic, paper-style
#: hybrid, uniform static).
CONFIGS = (("B", "B", "B"), ("B", "K", "M"), ("M", "M", "M"))

#: Monte-Carlo sample counts measured; the acceptance gate reads T=3.
SAMPLE_COUNTS = (1, 3, 7)


def _build_supernet(image_size: int) -> Supernet:
    model = build_model("lenet", image_size=image_size, rng=0)
    return Supernet(model, p=0.15, rng=1)


def _best_of(fn, repeats: int) -> float:
    fn()  # warm-up: allocator, BLAS thread pools, mask-plan code paths
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def workload(request):
    """LeNet MC workload: (supernet, images, measurement repeats)."""
    smoke = bool(request.config.getoption("--bench-smoke"))
    image_size = 16 if smoke else 28
    batch = 32 if smoke else 128
    repeats = 3 if smoke else 7
    supernet = _build_supernet(image_size)
    supernet.eval()
    images = np.random.default_rng(0).normal(
        size=(batch, 1, image_size, image_size)).astype(np.float32)
    return supernet, images, repeats, smoke


def test_mc_throughput(workload, bench_json, emit_table):
    supernet, images, repeats, smoke = workload
    rows: List[List[object]] = []
    records: List[Dict[str, object]] = []
    image_size = int(images.shape[-1])
    for config in CONFIGS:
        supernet.set_config(config)
        for num_samples in SAMPLE_COUNTS:
            # Bit-identity holds under a shared seed, i.e. identical RNG
            # state at call time — so each engine gets a freshly seeded
            # supernet for the equality check.
            preds = []
            for engine in (mc_predict_looped, mc_predict):
                fresh = _build_supernet(image_size)
                fresh.set_config(config)
                fresh.eval()
                preds.append(engine(fresh, images, num_samples))
            assert np.array_equal(preds[0].probs, preds[1].probs), (
                f"engines diverged for config {config}, T={num_samples}")
            looped_s = _best_of(
                lambda: mc_predict_looped(supernet, images, num_samples),
                repeats)
            batched_s = _best_of(
                lambda: mc_predict(supernet, images, num_samples),
                repeats)
            speedup = looped_s / batched_s
            records.append({
                "config": "-".join(config),
                "num_samples": num_samples,
                "looped_ms": looped_s * 1e3,
                "batched_ms": batched_s * 1e3,
                "speedup": speedup,
                "bit_identical": True,
            })
            rows.append(["-".join(config), num_samples,
                         f"{looped_s * 1e3:.1f}",
                         f"{batched_s * 1e3:.1f}",
                         f"{speedup:.2f}x"])
    t3 = [r for r in records if r["num_samples"] == 3]
    headline = min(float(r["speedup"]) for r in t3)
    payload = {
        "workload": {
            "model": "lenet",
            "image_size": int(images.shape[-1]),
            "batch": int(images.shape[0]),
            "smoke": smoke,
            "repeats": repeats,
        },
        "records": records,
        "speedup_t3_min": headline,
        "speedup_t3_mean": float(np.mean([r["speedup"] for r in t3])),
    }
    bench_json("mc_throughput", payload)
    emit_table(
        "mc_throughput",
        "MC inference throughput — batched engine vs. looped reference "
        "(LeNet, best-of-{} wall time)".format(repeats),
        ["Config", "T", "Looped ms", "Batched ms", "Speedup"],
        rows)

    # CI gate: the fast path must never lose to the reference.
    assert headline > 1.0, f"batched slower than looped: {headline:.2f}x"
    if not smoke:
        # Acceptance bar: >= 2x at T=3 on the full-scale LeNet workload.
        assert headline >= 2.0, (
            f"batched engine below the 2x bar at T=3: {headline:.2f}x")
