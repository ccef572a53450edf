"""Ablation A2 — fidelity and speed of the GP hardware cost model.

Paper Sec. 3.5.1 replaces per-candidate synthesis with a Gaussian
process trained once on (input shape, dropout type) -> latency pairs.
This ablation quantifies that substitution on the analytic synthesis
model: prediction error of the Matérn GP (the paper's kernel) vs an
RBF GP, and the evaluation-speed advantage over running the full
accelerator build inside the EA loop.
"""

import time

import numpy as np
import pytest

from repro.hw import (
    AcceleratorBuilder,
    GPLatencyModel,
    recommended_config,
    trace_network,
)


@pytest.fixture(scope="module")
def cost_models(lenet_ctx):
    ctx = lenet_ctx
    config = ctx.accel_config
    ctx.supernet.set_config(("B", "B", "B"))
    netlist = trace_network(ctx.supernet.model, ctx.input_shape)
    builder = AcceleratorBuilder(config)
    oracle = builder.latency_oracle(ctx.supernet, ctx.input_shape)
    configs = list(ctx.space.enumerate())
    matern = GPLatencyModel(netlist, config, kernel="matern52", rng=0)
    rbf = GPLatencyModel(netlist, config, kernel="rbf", rng=0)
    noisy = GPLatencyModel(netlist, config, kernel="matern52",
                           noise_std_cycles=30.0, rng=1)
    return ctx, oracle, configs, matern, rbf, noisy


def test_ablation_gp_fidelity(cost_models, emit_table, benchmark):
    _, oracle, configs, matern, rbf, noisy = cost_models

    benchmark.pedantic(lambda: matern(("B", "K", "M")), rounds=10,
                       iterations=10)

    rows = []
    reports = {}
    for label, model in (("Matern-5/2 (paper)", matern),
                         ("RBF", rbf),
                         ("Matern + synth noise", noisy)):
        report = model.validate_against(oracle, configs)
        reports[label] = report
        rows.append([
            label,
            f"{report.mean_abs_error_ms * 1e3:.3f} us",
            f"{report.max_abs_error_ms * 1e3:.3f} us",
            str(report.num_train_points),
        ])
    emit_table(
        "ablation_gp", "Ablation A2 — GP cost-model fidelity vs the "
        "analytic synthesis model (all 32 LeNet configs)",
        ["Cost model", "MAE", "Max error", "Train points"], rows)

    base = matern.base_latency_ms
    assert reports["Matern-5/2 (paper)"].mean_abs_error_ms < 0.02 * base
    # Even with injected synthesis noise the model stays usable.
    assert reports["Matern + synth noise"].mean_abs_error_ms < 0.1 * base


def test_ablation_gp_preserves_argmin(cost_models, benchmark):
    """The GP and the oracle agree on the latency-optimal config."""
    _, oracle, configs, matern, _, _ = cost_models
    benchmark.pedantic(lambda: min(configs, key=matern), rounds=3,
                       iterations=1)
    gp_best = min(configs, key=matern)
    oracle_best_latency = min(oracle(c) for c in configs)
    assert oracle(gp_best) == pytest.approx(oracle_best_latency,
                                            rel=0.02)


def test_ablation_gp_speedup(cost_models, emit_table, benchmark):
    """GP inference is much faster than a full accelerator build."""
    _, oracle, configs, matern, _, _ = cost_models
    sample = configs[:8]

    start = time.perf_counter()
    for c in sample:
        oracle(c)
    oracle_s = time.perf_counter() - start

    start = time.perf_counter()
    for c in sample:
        matern(c)
    gp_s = time.perf_counter() - start

    benchmark.pedantic(lambda: matern(sample[0]), rounds=10,
                       iterations=10)
    speedup = oracle_s / max(gp_s, 1e-9)
    emit_table(
        "ablation_gp_speed", "Ablation A2 — evaluation cost per "
        "candidate",
        ["Evaluator", "Seconds (8 configs)", "Speedup"],
        [["Full analytic build", f"{oracle_s:.4f}", "1.0x"],
         ["GP cost model", f"{gp_s:.4f}", f"{speedup:.1f}x"]])
    assert speedup > 3.0
