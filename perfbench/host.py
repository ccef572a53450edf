"""The run envelope: what was measured, on what, and how healthy the host was.

Every result carries the envelope so that records can be compared across
commits and an outlier run can be explained.  Host-health fields are
reported, never gated.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import time
from typing import Dict, List, Optional

import numpy as np

from perfbench import BLAS_THREAD_VARS


def _cpu_times() -> Optional[List[int]]:
    """Aggregate jiffies from the ``cpu`` line of ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:]] if fields[:1] == ["cpu"] else None


def _load_average() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


class HostHealth:
    """CPU steal share and load average between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self._cpu: Optional[List[int]] = None
        self._load: Optional[float] = None
        self._wall = 0.0

    def start(self) -> "HostHealth":
        self._cpu = _cpu_times()
        self._load = _load_average()
        self._wall = time.perf_counter()
        return self

    def stop(self) -> Dict[str, Optional[float]]:
        end = _cpu_times()
        steal = None
        if self._cpu is not None and end is not None:
            delta = [b - a for a, b in zip(self._cpu, end)]
            total = sum(delta)
            # Field 8 of the cpu line (index 7 here) is steal time.
            steal = delta[7] / total if total > 0 and len(delta) > 7 else None
        return {
            "seconds": time.perf_counter() - self._wall,
            "cpu_steal_share": steal,
            "load_avg_1m_start": self._load,
            "load_avg_1m_end": _load_average(),
        }


def _git_sha(root: str) -> Optional[str]:
    """HEAD of ``root`` when it is a git checkout (never of a parent)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"),
                          recursive=True):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def _blas() -> Dict[str, object]:
    """BLAS build and the thread count it runs with."""
    info: Dict[str, object] = {"build": None, "version": None,
                               "runtime_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"], info["version"] = deps.get("name"), deps.get("version")
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            query = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.argtypes = []
        query.restype = ctypes.c_int
        info["runtime_threads"] = int(query())
        break
    info["thread_env"] = {name: os.environ.get(name)
                          for name in BLAS_THREAD_VARS}
    return info


def envelope(root: str, *, workload: str, seed: int, seconds: int,
             trace: bool) -> Dict[str, object]:
    """The static part of a result's envelope."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(root),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": _src_lines(root),
    }
