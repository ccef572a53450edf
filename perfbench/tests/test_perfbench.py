"""Tests of the benchmark's own logic (no workload is run here)."""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import catalog, report, run, serving
from perfbench.measure import (
    fifo_batches,
    interquartile_mean,
    poisson_offsets,
    self_time,
    tail,
    windowed_median,
    windowed_tail,
)
from perfbench.tracing import Span, Tracer, self_time_table, span_cost
from repro.serve.scheduler import MicroBatcher

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_arrival_schedule_is_a_function_of_the_seed():
    first = poisson_offsets(7, 60.0, 500)
    assert np.array_equal(first, poisson_offsets(7, 60.0, 500))
    assert not np.array_equal(first, poisson_offsets(8, 60.0, 500))
    assert np.all(np.diff(first) > 0) and first[0] > 0
    # 500 arrivals at 60/s take about 500/60 s.
    assert 6.0 < first[-1] < 11.0


def test_serving_inputs_are_functions_of_the_seed():
    assert np.array_equal(serving.low_offsets(3, 20),
                          serving.low_offsets(3, 20))
    assert len(serving.low_offsets(3, 20)) == 600
    images = serving.request_images(3)
    assert images.shape == (serving.IMAGE_POOL,) + serving.IMAGE_SHAPE
    assert np.array_equal(images, serving.request_images(3))
    assert not np.array_equal(images, serving.request_images(4))


# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------
def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = np.random.default_rng(0).permutation(np.arange(1, 101))
    result = tail(values)
    assert (result.value, result.percentile, result.samples) == (90, 90.0,
                                                                 100)
    assert sum(v > result.value for v in values) == 10
    thousand = tail(np.arange(1000.0))
    assert thousand.percentile == 99.0 and thousand.value == 989.0
    assert tail(np.arange(11.0)).value == 0.0


def test_interquartile_mean_drops_the_outer_quarters():
    assert interquartile_mean([5.0, 1.0, 2.0, 3.0, 100.0]) == 10.0 / 3
    assert interquartile_mean([0.1] * 6 + [0.16] * 5) == pytest.approx(
        (0.1 * 4 + 0.16 * 3) / 7)
    assert interquartile_mean([2.0]) == 2.0


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail(np.arange(10.0))


def test_windowed_tail_and_median_over_windows():
    values = np.tile(np.arange(200.0), 5)
    values[200:400] += 1000.0          # one slow window
    value, first = windowed_tail(values, 200)
    assert (first.percentile, first.samples) == (95.0, 200)
    assert value == 189.0              # the slow window does not move it
    # The p50 moves with the slow window's share: (4 * 99.5 + 1099.5) / 5.
    assert windowed_median(values, 200) == pytest.approx(299.5)
    # A short phase is one window of everything.
    short = np.arange(50.0)
    assert windowed_tail(short, 200)[0] == tail(short).value
    assert windowed_median(short, 200) == 24.5


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_clipped_children():
    # Children overlap each other and one sticks out past the span.
    assert self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) \
        == pytest.approx(4.0)
    assert self_time((0.0, 10.0), []) == 10.0
    assert self_time((0.0, 10.0), [(-5.0, 20.0)]) == 0.0
    assert self_time((0.0, 10.0), [(11.0, 12.0)]) == 10.0


def test_self_time_table_links_children_to_parents():
    pid = 1
    spans = [Span((pid, 1), "outer", 0.0, 1.0),
             Span((pid, 2), "inner", 0.1, 0.4, parent=(pid, 1)),
             Span((pid, 3), "inner", 0.3, 0.5, parent=(pid, 1)),
             Span((pid, 4), "wait", 0.0, 2.0)]
    table = {row["name"]: row for row in self_time_table(spans, {"wait"})}
    assert table["outer"]["self_ms"] == pytest.approx(600.0)
    assert table["inner"]["calls"] == 2
    assert table["inner"]["self_ms"] == pytest.approx(500.0)
    assert table["wait"]["awaits"]
    assert [row["name"] for row in self_time_table(spans, {"wait"})][-1] \
        == "wait"


# ----------------------------------------------------------------------
# FIFO request-to-batch reconstruction
# ----------------------------------------------------------------------
def test_fifo_batches_splits_rows_in_order():
    assert fifo_batches([1, 2, 1, 3, 1], [3, 1, 4]) == [0, 0, 1, 2, 2]
    with pytest.raises(ValueError):
        fifo_batches([2, 2], [3, 1])      # a request split across batches
    with pytest.raises(ValueError):
        fifo_batches([1, 1, 1], [2])      # a request never batched


class _Model:
    def __init__(self):
        self.batches = []

    def predict(self, fused):
        self.batches.append([int(v) for v in fused[:, 0]])
        return fused


def test_fifo_reconstruction_matches_micro_batcher_bookkeeping(tmp_path):
    """Rebuild batch membership from spans alone on a scripted trace."""
    tracer = Tracer(str(tmp_path))
    tracer.wrap(_Model, "predict", "serve.service.predict_fused",
                rows=lambda _self, fused: len(fused))
    tracer.wrap(MicroBatcher, "submit", "serve.scheduler.submit",
                rows=lambda _self, payload, **kw: len(payload))
    model = _Model()
    rows = [1, 2, 1, 3, 1, 1, 2, 4, 1, 2, 3, 1]
    gaps_ms = [0, 0, 0, 5, 0, 0, 5, 0, 0, 0, 5, 0]

    async def script():
        batcher = MicroBatcher(model.predict, max_batch_rows=4,
                               max_wait_ms=1.0, max_queue_rows=64)
        await batcher.start()
        tasks = []
        for rid, (n, gap) in enumerate(zip(rows, gaps_ms)):
            if gap:
                await asyncio.sleep(gap / 1e3)
            tasks.append(asyncio.ensure_future(batcher.submit(
                np.full((n, 1), rid, dtype=np.float32))))
        await asyncio.gather(*tasks)
        await batcher.stop()

    start = time.perf_counter()
    try:
        asyncio.run(script())
    finally:
        tracer.restore()
    end = time.perf_counter()

    spans = tracer.collect()
    submits = sorted((s for s in spans if s.name == "serve.scheduler.submit"),
                     key=lambda s: s.sid[1])
    fused = sorted((s for s in spans
                    if s.name == "serve.service.predict_fused"),
                   key=lambda s: s.sid[1])
    owners = fifo_batches([s.rows for s in submits], [s.rows for s in fused])
    actual = {rid: index for index, batch in enumerate(model.batches)
              for rid in batch}
    assert len(model.batches) > 3
    assert owners == [actual[rid] for rid in range(len(rows))]
    waits = serving.queue_waits(spans, (start, end), os.getpid())
    assert len(waits) == len(rows) and min(waits) >= 0.0


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class _Base:
    def step(self, x):
        return x + 1


class _Child(_Base):
    @classmethod
    def make(cls):
        return cls()


def _call_in_child(queue):
    queue.put(_Child().step(1))


def test_tracer_wraps_restores_and_merges_worker_spans(tmp_path):
    step, make = _Base.__dict__["step"], _Child.__dict__["make"]
    tracer = Tracer(str(tmp_path))
    tracer.wrap(_Child, "step", "child.step")        # inherited method
    tracer.wrap(_Child, "make", "child.make")        # class method
    try:
        assert _Child.make().step(1) == 2
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        worker = context.Process(target=_call_in_child, args=(queue,))
        worker.start()
        assert queue.get(timeout=30) == 2
        worker.join(timeout=30)
        assert not worker.is_alive()
    finally:
        tracer.restore()
    assert "step" not in _Child.__dict__ and _Base.__dict__["step"] is step
    assert _Child.__dict__["make"] is make
    spans = tracer.collect()
    assert sorted(s.name for s in spans) == ["child.make", "child.step",
                                             "child.step"]
    remote = [s for s in spans if s.pid != os.getpid()]
    assert len(remote) == 1 and remote[0].parent is None


def test_tracing_overhead_is_span_counts_times_calibrated_costs(tmp_path):
    in_memory, spilled = span_cost(str(tmp_path), calls=500, rounds=2)
    assert 0.0 < in_memory < spilled
    spans = [Span((1, 1), "a", 0.0, 1.0), Span((1, 2), "a", 1.0, 2.0),
             Span((2, 1), "b", 0.0, 1.0)]
    # Two local spans at 1 s and one spilled at 2 s of a 14 s traced run:
    # 4 s of tracing against a 10 s untraced run.
    assert report.overhead_pct(spans, 1, (1.0, 2.0), 14.0) == 40.0


# ----------------------------------------------------------------------
# BENCHMARK.json and the entry point
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == catalog.PER_LAYER


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(tmp_path, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_fixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert done.returncode != 0
    assert done.stdout == ""
