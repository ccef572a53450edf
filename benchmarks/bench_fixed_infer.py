"""Fixed-point kernel inference — throughput and fidelity vs. float.

The compiled integer kernel (:mod:`repro.hw.compile`) is the software
twin of the FPGA datapath: every multiply-accumulate is exact integer
arithmetic with saturation and round-to-nearest-even.  Its
``predict`` runs all ``T`` passes in one folded sweep (the prefix
before the first dropout slot once, the rest on ``T * rows`` rows) of
one program over the traced layer graph: integer codes pass from plan
to plan, each ReLU and max pool folds into its conv/dense/batch-norm
producer's requantize, and every step — the conv/dense GEMMs on BLAS,
and the bias, batch-norm, activation, pooling, mask multiply and
requantize around them — runs on float64 codes wherever its overflow
certificate bounds it below ``2**53``, exact there.
Its bytes therefore equal the per-pass all-``int64`` oracle
(:func:`tests.oracles.fixed_predict_looped`).  This bench measures the
kernel, that oracle and the float engine on the paper's LeNet workload
at ``T = 3``.

Emits ``BENCH_fixed_infer.json``:

* rows/s through ``Deployment.predict`` (float),
  ``CompiledKernel.predict`` (fixed) and ``fixed_predict_looped``
  (the oracle) with the same mask plans, each the median of its
  ``runs_s``;
* the float-vs-fixed :class:`FidelityReport` headline numbers;
* the per-layer resolved formats the kernel executed with;
* a ``host`` stamp — git sha, usable CPU count and BLAS build — from
  :func:`perfbench.host.envelope`, as ``bench_serve.py`` records.

The bench conftest pins one BLAS thread, as perfbench runs, so the
float engine's BLAS threading does not move the fixed-over-float
ratio.  Both timed paths repeat one shape, so after the first call
they reuse their stored mask plans; the oracle draws on every call.
The three paths are timed in alternating repeats (:data:`REPEATS`),
and every rate is the median of its path's runs, as ``bench_serve.py``
times its scenarios, so one slow stretch of a shared host cannot
decide a ratio; the record keeps each path's runs.

Gates (smoke and full):

* repeat fixed predictions are byte-identical (pure function);
* the kernel equals ``fixed_predict_looped`` byte for byte and is
  faster than it (> 1.0x rows/s), as ``bench_mc_throughput.py`` gates
  the fused float engine against its looped oracle;
* fixed accuracy within 2 percentage points of float, argmax
  agreement at least 0.9, bounded posterior/entropy drift.

Fixed rows/s against float rows/s is recorded, not gated.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.api import ExperimentSpec
from repro.hw.compile import compile_deployment, measure_fidelity
from repro.serve import Deployment
from tests.oracles import fixed_predict_looped

#: LeNet's three slots: Bernoulli, Block, Masksembles — the paper's
#: hybrid operating point.
CONFIG = ("B", "K", "M")

#: Monte-Carlo passes — the paper's serving T.
NUM_SAMPLES = 3

#: Alternating (float, fixed, oracle) repeats, by smoke flag.
REPEATS = {True: 3, False: 11}


@pytest.fixture(scope="module")
def workload(request):
    """Compiled LeNet deployment + timing/fidelity parameters."""
    smoke = bool(request.config.getoption("--bench-smoke"))
    image_size = 16 if smoke else 28
    rows = 16 if smoke else 64
    fidelity_rows = 32 if smoke else 128
    spec = ExperimentSpec(
        name="bench-fixed-infer", model="lenet", dataset="mnist_like",
        image_size=image_size, mc_samples=NUM_SAMPLES, seed=2)
    deployment = Deployment.from_spec(
        spec, (1, image_size, image_size), config=CONFIG)
    kernel = compile_deployment(deployment, calibration_rows=rows)
    rng = np.random.default_rng(0)
    images = rng.normal(
        size=(rows, 1, image_size, image_size)).astype(np.float32)
    return deployment, kernel, images, fidelity_rows, smoke


def time_paths(paths: Dict[str, Callable[[], object]],
               repeats: int) -> Dict[str, List[float]]:
    """Wall seconds of each path's call, the paths alternating within
    each of ``repeats`` rounds."""
    runs: Dict[str, List[float]] = {name: [] for name in paths}
    for _ in range(repeats):
        for name, fn in paths.items():
            started = time.perf_counter()
            fn()
            runs[name].append(time.perf_counter() - started)
    return runs


def test_fixed_inference(workload, bench_json, emit_table, host_stamp):
    deployment, kernel, images, fidelity_rows, smoke = workload
    rows = images.shape[0]
    model = deployment.instantiate()
    repeats = REPEATS[smoke]

    # Warm-up every path (allocator, mask-plan caches).
    deployment.predict(model, images[:4], num_samples=NUM_SAMPLES)
    kernel.predict(images[:4], num_samples=NUM_SAMPLES)
    fixed_predict_looped(kernel, images[:4], NUM_SAMPLES)

    runs = time_paths({
        "float": lambda: deployment.predict(model, images,
                                            num_samples=NUM_SAMPLES),
        "fixed": lambda: kernel.predict(images, num_samples=NUM_SAMPLES),
        "looped": lambda: fixed_predict_looped(kernel, images,
                                               NUM_SAMPLES),
    }, repeats)
    float_s, fixed_s, looped_s = (float(np.median(runs[name]))
                                  for name in ("float", "fixed", "looped"))

    # Gate 1: purity — repeat fixed predictions are byte-identical.
    first = kernel.predict(images, num_samples=NUM_SAMPLES)
    second = kernel.predict(images, num_samples=NUM_SAMPLES)
    assert first.probs.tobytes() == second.probs.tobytes()

    # Gate 2: the folded sweep (float64 codes where certified) equals
    # the per-pass all-int64 oracle byte for byte, and beats it.
    looped = fixed_predict_looped(kernel, images, NUM_SAMPLES)
    assert first.probs.tobytes() == looped.probs.tobytes()
    assert looped_s / fixed_s > 1.0, (
        f"kernel {rows / fixed_s:.1f} rows/s is not faster than the "
        f"looped int64 oracle {rows / looped_s:.1f} rows/s")

    # Gate 3: fidelity within the acceptance envelope.
    report = measure_fidelity(kernel, rows=fidelity_rows)
    assert abs(report.accuracy_delta) <= 0.02
    assert report.agreement >= 0.9
    assert report.mean_probs_delta_max <= 0.05
    assert report.entropy_delta_max <= 0.2

    formats = {}
    for plan in kernel.plans:
        weight = plan.weight_format or plan.mask_format
        formats[plan.name] = {
            "activation": str(plan.out_format),
            "weight": None if weight is None else str(weight)}
    payload = {
        "workload": {
            "model": "lenet",
            "config": "-".join(CONFIG),
            "image_size": int(images.shape[-1]),
            "rows": rows,
            "num_samples": NUM_SAMPLES,
            "smoke": smoke,
            "repeats": repeats,
        },
        "host": host_stamp("bench_fixed_infer"),
        "runs_s": runs,
        "throughput": {
            "float_rows_per_s": rows / float_s,
            "fixed_rows_per_s": rows / fixed_s,
            "looped_rows_per_s": rows / looped_s,
            "fixed_over_float": float_s / fixed_s,
            "fixed_over_looped": looped_s / fixed_s,
        },
        "fidelity": report.to_dict(),
        "formats": formats,
    }
    bench_json("fixed_infer", payload)

    emit_table(
        "fixed_infer",
        f"Fixed-point kernel vs float engines (LeNet {CONFIG}, "
        f"T={NUM_SAMPLES}, {rows} rows, median of {repeats} alternating "
        f"repeats)",
        ["path", "rows/s", "accuracy", "ECE", "NLL"],
        [
            ["float", f"{rows / float_s:.1f}",
             f"{report.float_accuracy:.4f}", f"{report.float_ece:.4f}",
             f"{report.float_nll:.4f}"],
            ["fixed", f"{rows / fixed_s:.1f}",
             f"{report.fixed_accuracy:.4f}", f"{report.fixed_ece:.4f}",
             f"{report.fixed_nll:.4f}"],
            ["fixed (looped int64 oracle)", f"{rows / looped_s:.1f}",
             f"{report.fixed_accuracy:.4f}", f"{report.fixed_ece:.4f}",
             f"{report.fixed_nll:.4f}"],
        ])
