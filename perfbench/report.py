"""Measure one workload run and print its result."""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Dict, List, Tuple

from perfbench import host, searching, serving
from perfbench.catalog import END_TO_END, PER_LAYER, Outcome
from perfbench.tracing import Span, Tracer, self_time_table, span_cost

#: Rows of the self-time table printed by a traced run.
SELF_TIME_ROWS = 25


def _pass(workload: str, seed: int, seconds: int, workdir: str,
          tracer) -> Outcome:
    os.makedirs(workdir)
    if workload == "search_resnet":
        return searching.run(seed, seconds, workdir, tracer)
    return serving.run(workload, seed, seconds, workdir, tracer)


def overhead_pct(spans: List[Span], root_pid: int,
                 costs: Tuple[float, float], wall: float) -> float:
    """The tracer's estimated cost as a share of the untraced run, in %.

    Each span of the benchmark process costs ``costs[0]`` seconds and
    each span a worker spilled costs ``costs[1]``; the untraced run is
    taken to last ``wall`` minus that cost.  Worker spans are charged as
    if they ran one after another, which overstates their share when
    workers run in parallel.
    """
    local = sum(span.pid == root_pid for span in spans)
    cost = local * costs[0] + (len(spans) - local) * costs[1]
    return 100.0 * cost / (wall - cost)


def measure(workload: str, seed: int, seconds: int, trace: bool,
            scratch: str, root: str) -> dict:
    """Run ``workload`` once, traced when ``trace`` is set."""
    envelope = host.envelope(root, workload=workload, seed=seed,
                             seconds=seconds, trace=trace)
    health = host.HostHealth().start()
    tracer = None
    if trace:
        costs = span_cost(os.path.join(scratch, "calibration"))
        tracer = Tracer(os.path.join(scratch, "spans"))
    start = time.perf_counter()
    outcome = _pass(workload, seed, seconds, os.path.join(scratch, "run"),
                    tracer)
    wall = time.perf_counter() - start
    metrics: Dict[str, Tuple[float, str]]
    if trace:
        unknown = sorted(set(outcome.layers) - set(PER_LAYER))
        if unknown:
            raise KeyError(f"layer metrics missing from the catalog: "
                           f"{unknown}")
        spans = tracer.collect()
        # A layer this workload never calls reads 0.
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(outcome.layers)
        layers["trace.spans"] = len(spans)
        layers["trace.overhead_pct"] = overhead_pct(spans, tracer.root_pid,
                                                    costs, wall)
        outcome.layers = layers
        outcome.self_times = self_time_table(spans, tracer.awaited)
        outcome.health["span_cost_us"] = {"in_memory": costs[0] * 1e6,
                                          "spilled": costs[1] * 1e6}
        metrics = {name: (layers[name], unit)
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        outcome.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        outcome.notes["peak_rss_mb"] = ("benchmark process; forked "
                                        "workers are not counted")
        metrics = {name: (outcome.metrics[name], unit)
                   for name, (unit, _, _) in END_TO_END.items()}
    envelope["health"] = {**health.stop(), **outcome.health}
    return {"envelope": envelope, "outcome": outcome, "metrics": metrics}


def emit(record: dict, results_dir: str) -> None:
    """Print the human-readable report, save the record, end with the JSON line."""
    envelope, outcome = record["envelope"], record["outcome"]
    workload, trace = envelope["workload"], envelope["trace"]
    print(f"perfbench {workload} seed={envelope['seed']} "
          f"seconds={envelope['seconds']} trace={int(trace)}")
    print("end-to-end" + (" (of the traced pass):" if trace else ":"))
    for name, (unit, _, _) in END_TO_END.items():
        if name in outcome.metrics:
            print(f"  {name:<18} {outcome.metrics[name]:>12.6g} {unit:<4} "
                  f"{outcome.notes.get(name, '')}")
    for name, (value, unit, how) in outcome.ungated.items():
        print(f"  {name:<18} {value:>12.6g} {unit:<4} {how} (not gated)")
    print(f"  operations: {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    if trace:
        print("per-layer metrics:")
        for name, (value, unit) in record["metrics"].items():
            print(f"  {name:<40} {value:>12.6g} {unit}")
        print(f"self time (top {SELF_TIME_ROWS} span names, ms; "
              f"'awaits' spans include time waiting for other tasks):")
        print(f"  {'span':<34} {'calls':>7} {'total':>11} {'self':>11}")
        for row in outcome.self_times[:SELF_TIME_ROWS]:
            print(f"  {row['name']:<34} {row['calls']:>7} "
                  f"{row['total_ms']:>11.1f} {row['self_ms']:>11.1f}"
                  + ("  awaits" if row["awaits"] else ""))
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")

    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{workload}-seed{envelope['seed']}-"
                                     f"trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"envelope": envelope, "result": result,
                   "notes": outcome.notes, "ungated": outcome.ungated,
                   "problems": outcome.problems,
                   "self_times": outcome.self_times}, handle, indent=1,
                  default=float)
    print("envelope " + json.dumps(envelope, sort_keys=True, default=float))
    print(json.dumps(result))
