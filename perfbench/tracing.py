"""Spans recorded around the program's public calls, from outside it.

A :class:`Tracer` replaces chosen functions and methods of the
``repro`` package with wrappers that time each call as a span (name,
start, end, parent span, request id, process id, row count, error flag)
and restores the originals afterwards.  Nothing under ``src/`` knows it
is being traced.

* Spans of the benchmark process stay in memory.  Forked workers
  (replica pools, search evaluation pools) inherit the wrappers and
  append each span as one JSON line to ``spans-<pid>.jsonl`` in the
  spill directory; :meth:`Tracer.collect` merges those files at the end.
  Lines are written whole before a worker replies, so a worker that is
  terminated after replying loses nothing.
* Parent links come from a context variable, so concurrent asyncio
  tasks each keep their own stack.  Links never cross a process
  boundary: a worker's outermost spans are roots.
* :meth:`Tracer.selector` gives an event-loop selector that records the
  time the loop spends waiting for work, from which the benchmark
  derives loop busy and idle time.
"""

from __future__ import annotations

import contextvars
import functools
import glob
import inspect
import itertools
import json
import os
import selectors
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from perfbench.measure import Interval, self_time

SpanId = Tuple[int, int]


@dataclass
class Span:
    """One timed call: ``sid`` and ``parent`` are ``(pid, counter)``."""

    sid: SpanId
    name: str
    start: float
    end: float = 0.0
    parent: Optional[SpanId] = None
    rid: Optional[int] = None
    rows: Optional[int] = None
    err: bool = False

    @property
    def pid(self) -> int:
        return self.sid[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [list(self.sid), self.name, self.start, self.end,
                None if self.parent is None else list(self.parent),
                self.rid, self.rows, self.err]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        sid, name, start, end, parent, rid, rows, err = row
        return cls(sid=tuple(sid), name=name, start=start, end=end,
                   parent=None if parent is None else tuple(parent),
                   rid=rid, rows=rows, err=err)


class Tracer:
    """Records spans around wrapped calls; see the module docstring.

    Args:
        spill_dir: directory for the per-process span files of forked
            workers (created if missing).
    """

    def __init__(self, spill_dir: str) -> None:
        os.makedirs(spill_dir, exist_ok=True)
        self.spill_dir = spill_dir
        self.root_pid = os.getpid()
        self.spans: List[Span] = []
        #: Benchmark-defined windows (phases, set-ups): name -> intervals.
        self.marks: Dict[str, List[Interval]] = defaultdict(list)
        #: Intervals the event loop spent waiting in its selector.
        self.idle: List[Interval] = []
        #: Names of spans around coroutines: their time includes awaiting.
        self.awaited = set()
        #: Request id the benchmark's client sets before each call.
        self.request_id: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request_id", default=None)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._counter = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._spill_pid: Optional[int] = None
        self._spill_file = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str, rows: Optional[int]):
        pid = os.getpid()
        current = self._current.get()
        parent = current if current is not None and current[0] == pid else None
        span = Span(sid=(pid, next(self._counter)), name=name,
                    start=time.perf_counter(), parent=parent,
                    rid=self.request_id.get(), rows=rows)
        return span, self._current.set(span.sid)

    def _close(self, span: Span, token, err: bool) -> None:
        span.end = time.perf_counter()
        span.err = err
        self._current.reset(token)
        if os.getpid() == self.root_pid:
            self.spans.append(span)
        else:
            self._spill(span)

    def _spill(self, span: Span) -> None:
        pid = os.getpid()
        if self._spill_pid != pid:
            # First span in a freshly forked worker: the inherited handle
            # (if any) belongs to another process.
            self._spill_file = open(
                os.path.join(self.spill_dir, f"spans-{pid}.jsonl"), "a",
                buffering=1, encoding="utf-8")
            self._spill_pid = pid
        self._spill_file.write(json.dumps(span.to_json()) + "\n")

    def mark(self, name: str, start: float, end: float) -> None:
        """Record a benchmark window; marks never parent a span."""
        self.marks[name].append((start, end))

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *,
             rows: Optional[Callable[..., int]] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a class or a module; plain functions, methods,
        class methods and coroutine functions are supported.  ``rows``
        maps the call's arguments to the row count stored on the span.
        """
        own = attr in vars(owner)
        # An inherited method is wrapped on ``owner`` only, and removed
        # again on restore.
        raw = vars(owner)[attr] if own else inspect.getattr_static(owner,
                                                                   attr)
        if isinstance(raw, classmethod):
            patched = classmethod(self._instrument(raw.__func__, name, rows))
        else:
            patched = self._instrument(raw, name, rows)
        self._patches.append((owner, attr, raw if own else None))
        setattr(owner, attr, patched)

    def _instrument(self, func, name: str, rows):
        tracer = self
        if inspect.iscoroutinefunction(func):
            self.awaited.add(name)

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                span, token = tracer._open(
                    name, rows(*args, **kwargs) if rows else None)
                failed = True
                try:
                    result = await func(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    tracer._close(span, token, failed)
            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span, token = tracer._open(
                name, rows(*args, **kwargs) if rows else None)
            failed = True
            try:
                result = func(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._close(span, token, failed)
        return traced

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def selector(self) -> selectors.BaseSelector:
        """A default selector that records its waits into :attr:`idle`."""
        tracer = self

        class IdleTimedSelector(selectors.DefaultSelector):
            def select(self, timeout=None):
                start = time.perf_counter()
                try:
                    return super().select(timeout)
                finally:
                    tracer.idle.append((start, time.perf_counter()))

        return IdleTimedSelector()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self) -> List[Span]:
        """This process's spans plus every worker's spilled spans."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spill_dir,
                                                  "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.endswith("\n"):
                        spans.append(Span.from_json(json.loads(line)))
        spans.sort(key=lambda span: (span.start, span.sid))
        return spans


class _Probe:
    def noop(self):
        return None


def span_cost(spill_dir: str, calls: int = 5000,
              rounds: int = 5) -> Tuple[float, float]:
    """Seconds one span adds to a call: (kept in memory, spilled to a file).

    Times ``calls`` calls of a no-op method, bare and wrapped, and takes
    the fastest of ``rounds`` rounds of each.  The spilled cost is taken
    with the tracer believing it runs in a forked worker.  ``spill_dir``
    must not be a traced run's spill directory.
    """
    probe = _Probe()

    def fastest() -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                probe.noop()
            best = min(best, time.perf_counter() - start)
        return best / calls

    bare = fastest()
    tracer = Tracer(spill_dir)
    tracer.wrap(_Probe, "noop", "probe")
    try:
        in_memory = fastest() - bare
        tracer.root_pid = -1
        spilled = fastest() - bare
    finally:
        tracer.restore()
        if tracer._spill_file is not None:
            tracer._spill_file.close()
    return in_memory, spilled


def mean_ms(spans: List[Span]) -> float:
    """Mean span duration in ms (0.0 for no spans)."""
    return sum(s.duration for s in spans) / len(spans) * 1e3 if spans else 0.0


def self_time_table(spans: Iterable[Span],
                    awaited: Iterable[str] = ()) -> List[dict]:
    """Per span name: calls, total and self time in ms, by self time.

    A span's self time is its duration minus the part of it covered by
    its child spans (same process, linked by ``parent``).  Spans named in
    ``awaited`` wrap coroutines: their self time is mostly time spent
    waiting for other tasks, so they are listed after the rest.
    """
    awaited = set(awaited)
    spans = list(spans)
    children: Dict[SpanId, List[Interval]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    rows: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span.name]
        row[0] += 1
        row[1] += span.duration
        row[2] += self_time((span.start, span.end), children.get(span.sid, ()))
    table = [{"name": name, "calls": int(calls), "total_ms": total * 1e3,
              "self_ms": own * 1e3, "awaits": name in awaited}
             for name, (calls, total, own) in rows.items()]
    table.sort(key=lambda row: (row["awaits"], -row["self_ms"]))
    return table
