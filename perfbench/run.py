"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_fixed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the gated end-to-end metrics; ``--trace 1`` runs
the workload traced and reports the per-layer metrics, the self-time
table and the tracing overhead.  ``--workload all`` runs
every workload, each in its own process.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, envelope included, is also
written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Spelled out rather than imported: importing the workload modules loads
#: numpy, which must wait until BLAS threads are pinned.
WORKLOADS = ("serve_fixed", "serve_float_pool", "search_resnet")

#: A run that is still going after this many seconds is stopped: a
#: single run must end within 180 s.
WATCHDOG_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark the repro serve and search stacks.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _run_all(args) -> int:
    """Run every workload in its own process; combine their last lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            status = done.returncode or 1
            combined["correct"] = False
            continue
        last = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def _watchdog(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro package under {src}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    # The script's own directory must not shadow other modules; the
    # checkout root makes ``perfbench`` importable as a package.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [ROOT, src] + [
        entry for entry in sys.path
        if os.path.abspath(entry or os.curdir) != here]
    import perfbench
    for name in perfbench.BLAS_THREAD_VARS:
        os.environ[name] = "1"
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)

    from perfbench import report
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        record = report.measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), scratch, ROOT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    signal.alarm(0)
    report.emit(record, os.path.join(work, "results"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
