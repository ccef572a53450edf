"""Shared fixtures for the benchmark harness.

Session-scoped trained pipeline contexts keep supernet training to one
pass per backbone; every bench file draws from these.  Rendered tables
are both printed to the terminal (bypassing capture) and written under
``benchmarks/out/`` so the paper-table artifacts survive the run.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

import pytest

from repro.api import ExperimentSpec, PipelineContext, TrainSpec, TrainStage
from repro.search import EvolutionConfig

#: Output directory for rendered paper tables.
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: CI-scale evolutionary budget used across benches.
EVOLUTION = EvolutionConfig(population_size=12, generations=6)


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json", default=None, metavar="DIR",
        help="directory for machine-readable BENCH_<name>.json records "
             "(default: benchmarks/out/)")
    parser.addoption(
        "--bench-smoke", action="store_true", default=False,
        help="run benches at smoke scale (small workloads, few "
             "repetitions) — used by CI to gate on relative results "
             "without paying full measurement cost")
    parser.addoption(
        "--bench-replicas", type=int, default=0, metavar="N",
        help="replica pool size for the serve SLO bench (0 = pick a "
             "default); the bench records throughput but gates only "
             "on correctness — CI hosts are single-core")


@pytest.fixture(scope="session")
def bench_smoke(request) -> bool:
    """True when the run should use smoke-scale workloads."""
    return bool(request.config.getoption("--bench-smoke"))


@pytest.fixture()
def bench_json(request):
    """Writer for machine-readable benchmark records.

    ``bench_json(name, payload)`` dumps ``payload`` (any JSON-able
    mapping) to ``BENCH_<name>.json`` under ``--bench-json`` (or
    ``benchmarks/out/``) and returns the path.  ``merge=True``
    read-merge-writes: top-level keys of ``payload`` are merged over
    the existing record, so independent benches (e.g. the serve
    throughput and replica-SLO tests) can share one file without
    clobbering each other.
    """
    out_dir = request.config.getoption("--bench-json") or OUT_DIR

    def _write(name: str, payload, *, merge: bool = False) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        if merge and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            record.update(payload)
            payload = record
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    return _write


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
              else len(h) for i, h in enumerate(headers)]
    sep = "-+-".join("-" * w for w in widths)
    lines = [title,
             " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@pytest.fixture()
def emit_table(capsys):
    """Print a table to the live terminal and persist it under out/."""

    def _emit(name: str, title: str, headers, rows) -> str:
        text = render_table(title, headers, rows)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as handle:
            handle.write(text + "\n")
        with capsys.disabled():
            print("\n" + text + "\n")
        return text

    return _emit


def trained_context(model: str, dataset: str, *, seed: int, epochs: int,
                    dataset_size: int = 700, image_size: int = 16,
                    ood_size: int = 150) -> PipelineContext:
    """An in-memory pipeline context after the specify and train stages."""
    ctx = PipelineContext(spec=ExperimentSpec(
        model=model, dataset=dataset, image_size=image_size,
        dataset_size=dataset_size, ood_size=ood_size, seed=seed,
        train=TrainSpec(epochs=epochs)))
    TrainStage().execute(ctx)  # runs the specify stage first
    return ctx


@pytest.fixture(scope="session")
def lenet_ctx() -> PipelineContext:
    """Trained full-size LeNet on the MNIST-like task (28x28).

    Table 3 compares against the paper's LeNet operating points, so
    this context runs the paper-scale model.
    """
    return trained_context("lenet", "mnist_like", seed=7, epochs=20,
                           image_size=28)


@pytest.fixture(scope="session")
def resnet_ctx() -> PipelineContext:
    """Trained slim-ResNet18 on the CIFAR-like task (Table 1)."""
    return trained_context("resnet18_slim", "cifar_like", seed=3,
                           epochs=10)


@pytest.fixture(scope="session")
def vgg_ctx() -> PipelineContext:
    """Trained slim-VGG11 on the SVHN-like task (Table 2)."""
    return trained_context("vgg11_slim", "svhn_like", seed=5, epochs=10,
                           dataset_size=500)
