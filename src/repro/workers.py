"""One worker substrate: forked processes, task ids, recovery, faults.

Three parts of the system spread Monte-Carlo work over processes: the
replica pool behind the serving batcher (:mod:`repro.serve.replicas`),
the lock-step generation evaluator (:mod:`repro.search.parallel`) and
the asynchronous EA (:mod:`repro.search.async_ea`).  All three run on
:class:`WorkerPool`, which owns the worker lifecycle:

* **Start-up and transport.**  Workers are forked, so they inherit the
  caller's ``handler`` and everything it reaches (supernet weights,
  datasets, shared-memory views) without pickling.  Each worker talks
  to the parent over one duplex pipe, and every task message and reply
  carries the task id.  The parent blocks in
  :func:`multiprocessing.connection.wait`; there are no helper threads.
* **Failure detection.**  A worker fails on pipe EOF, on a liveness
  sweep that finds it dead, or when its task outlives ``deadline_s``.
  A failed worker is killed, reaped and respawned in its slot; its task
  is sent again to the first idle worker, and if that attempt fails
  too, it is computed inline in the parent.  A task whose handler
  raises is computed inline as well: handlers are pure, so the retry is
  bit-identical, and a deterministic error surfaces in the parent with
  its own type.
* **Fault injection.**  Planned faults are applied parent-side in one
  place (:meth:`WorkerPool._inject`): ``kill`` SIGKILLs the target,
  ``wedge`` and ``slow`` put a sleep message ahead of the task (its
  reply lands past the deadline, or within it), and ``error`` makes the
  worker raise instead of running the handler.  Which dispatches count
  as visits of a fault site is the caller's choice: with ``site`` set,
  every send of a task (a re-send too) is a visit; otherwise the caller
  fires its own site and hands the event to :meth:`WorkerPool.submit`.
* **Zero workers.**  With ``workers=0``, or where ``fork`` does not
  exist, tasks run inline in the parent, in submission order, when they
  are collected.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.runtime import fire

#: Default per-task deadline: a worker silent this long after a send is
#: presumed wedged, killed and respawned.
DEADLINE_S = 30.0

#: Longest single wait for replies; each timeout sweeps worker liveness.
POLL_S = 0.2

#: How long :meth:`WorkerPool.stop` lets a worker exit on its own.
STOP_GRACE_S = 2.0


def available() -> bool:
    """Whether this platform can fork workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def split_spans(total: int, lanes: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``[start, stop)`` spans covering ``total``.

    At most ``lanes`` spans, never an empty one unless ``total`` is 0;
    earlier spans take the remainder.  Both the replica router and the
    lock-step shard rule split work this way.
    """
    lanes = max(1, min(int(lanes), int(total)))
    base, extra = divmod(int(total), lanes)
    spans = []
    start = 0
    for lane in range(lanes):
        stop = start + base + (1 if lane < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def _serve(conn, handler) -> None:
    """Worker loop: answer task messages until told to stop.

    Purely synchronous; an event loop the parent had at fork time is
    never touched here.  Any exit (stop message, EOF from a closed
    parent, unwritable pipe) just returns; the parent owns lifecycle.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        if message[0] == "sleep":
            time.sleep(message[1])
            continue
        _, task_id, payload, inject_error = message
        try:
            if inject_error:
                raise RuntimeError("injected transient error")
            reply = (task_id, True, handler(payload))
        except Exception as exc:  # repro: allow[broad-except] — reported; the parent recomputes inline
            reply = (task_id, False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            return


@dataclass
class _Task:
    id: int
    payload: object
    #: Slot the first attempt must go to; ``None`` takes any idle worker.
    slot: Optional[int] = None
    #: Fault event the caller fired for this task, applied at first send.
    fault: object = None
    retried: bool = False


class _Slot:
    """One worker position; its counters survive respawns."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.task: Optional[_Task] = None
        self.sent_at = 0.0
        self.tasks = 0
        self.failures = 0
        self.restarts = 0
        self.latency_last_s = 0.0
        self.latency_total_s = 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "pid": None if self.process is None else self.process.pid,
            "alive": self.process is not None,
            "tasks": self.tasks,
            "failures": self.failures,
            "restarts": self.restarts,
            "latency_last_ms": self.latency_last_s * 1e3,
            "latency_mean_ms": (self.latency_total_s / self.tasks * 1e3
                                if self.tasks else 0.0),
        }


class WorkerPool:
    """Persistent forked workers that run ``handler`` on task payloads.

    Args:
        handler: ``payload -> result``; runs in the workers (inherited
            through fork, never pickled) and in the parent for inline
            tasks and fallbacks, so it must be a pure function of the
            payload.  Payloads and results travel pickled.
        workers: worker processes; ``0`` runs every task inline.
        deadline_s: per-send bound on a task's reply; ``None`` waits
            for as long as the worker stays alive.
        site: fault site fired on every send of a task to a worker (and
            on every inline task); ``None`` leaves firing to the caller.

    One task is in flight per worker; further submissions queue in the
    parent and go out as workers free up.
    """

    def __init__(self, handler, *, workers: int,
                 deadline_s: Optional[float] = DEADLINE_S,
                 site: Optional[str] = None) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._handler = handler
        self.deadline_s = deadline_s
        self._site = site
        self._context = (multiprocessing.get_context("fork")
                         if workers and available() else None)
        self._slots = ([_Slot(index) for index in range(workers)]
                       if self._context is not None else [])
        self._backlog: deque = deque()
        self._done: Dict[int, object] = {}
        self._next_id = 0
        self._running = False
        self.dispatches = 0
        self.redispatches = 0
        self.fallbacks = 0
        self.injected = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "WorkerPool":
        """Fork the workers (idempotent)."""
        if not self._running:
            self._running = True
            for slot in self._slots:
                self._spawn(slot)
        return self

    def stop(self) -> None:
        """Ask idle workers to exit, then kill and reap the rest."""
        if not self._running:
            return
        self._running = False
        for slot in self._slots:
            if slot.process is not None and slot.task is None:
                try:
                    slot.conn.send(("stop",))
                except OSError:
                    pass
        for slot in self._slots:
            self._reap(slot, STOP_GRACE_S if slot.task is None else 0.0)
        self._backlog.clear()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _spawn(self, slot: _Slot) -> None:
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_serve, args=(child_end, self._handler), daemon=True)
        process.start()
        # Drop the parent's copy of the child end, so a dead worker
        # surfaces as EOF on the parent end instead of a silent hang.
        child_end.close()
        slot.process, slot.conn = process, parent_end

    def _reap(self, slot: _Slot, grace_s: float) -> None:
        if slot.process is None:
            return
        slot.process.join(grace_s)
        if slot.process.is_alive():
            slot.process.kill()
            slot.process.join(STOP_GRACE_S)
        slot.conn.close()
        slot.process = slot.conn = slot.task = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pid(self, index: int) -> Optional[int]:
        process = self._slots[index].process
        return None if process is None else process.pid

    @property
    def failures(self) -> int:
        """Worker failures so far, summed over slots."""
        return sum(slot.failures for slot in self._slots)

    def stats(self) -> Dict[str, object]:
        """Pool counters plus one record per slot."""
        return {
            "dispatches": self.dispatches,
            "redispatches": self.redispatches,
            "fallbacks": self.fallbacks,
            "injected": self.injected,
            "workers": [slot.stats() for slot in self._slots],
        }

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def submit(self, payload, *, slot: Optional[int] = None,
               fault=None) -> int:
        """Queue one task and return its id.

        ``slot`` pins the first attempt to one worker; ``fault`` is an
        event the caller fired at its own site for this task.
        """
        if not self._running:
            raise RuntimeError("worker pool is not running")
        task = _Task(self._next_id, payload, slot, fault)
        self._next_id += 1
        self._backlog.append(task)
        self._dispatch()
        return task.id

    def next_result(self) -> Tuple[int, object]:
        """Block until some task completes; return ``(task_id, result)``."""
        while not self._done:
            self._pump()
        task_id = next(iter(self._done))
        return task_id, self._done.pop(task_id)

    def map(self, payloads: Sequence, *,
            slots: Optional[Sequence[Optional[int]]] = None,
            faults: Optional[Sequence] = None) -> List[object]:
        """Run one task per payload; results in payload order."""
        count = len(payloads)
        ids = [self.submit(payload, slot=slot, fault=fault)
               for payload, slot, fault in zip(
                   payloads, slots or [None] * count,
                   faults or [None] * count)]
        while any(task_id not in self._done for task_id in ids):
            self._pump()
        return [self._done.pop(task_id) for task_id in ids]

    def wedge(self, index: int, seconds: float) -> None:
        """Make one worker sleep ``seconds`` before its next message."""
        self._slots[index].conn.send(("sleep", float(seconds)))

    # ------------------------------------------------------------------
    # Dispatch and collection (parent side)
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Send queued tasks to idle workers, oldest first."""
        if not self._slots:
            return
        waiting: deque = deque()
        while self._backlog:
            task = self._backlog.popleft()
            slot = next((s for s in self._slots if s.task is None
                         and task.slot in (None, s.index)), None)
            if slot is None:
                waiting.append(task)
            else:
                self._send(task, slot)
        self._backlog = waiting

    def _send(self, task: _Task, slot: _Slot) -> None:
        if self._site is not None:
            event = fire(self._site)
        else:
            event, task.fault = task.fault, None
        if task.retried:
            self.redispatches += 1
        else:
            self.dispatches += 1
        slot.task, slot.sent_at = task, time.monotonic()
        try:
            if event is not None:
                self._inject(event, slot)
            slot.conn.send(("task", task.id, task.payload,
                            event is not None and event.kind == "error"))
        except OSError:
            self._fail(slot)

    def _inject(self, event, slot: _Slot) -> None:
        """Apply one planned fault to the worker about to get a task.

        ``kill`` SIGKILLs it (the task fails over); ``wedge``/``slow``
        delay its reply by ``param`` seconds, past the deadline or
        within it; ``error`` rides on the task message itself.
        """
        self.injected += 1
        if event.kind == "kill":
            slot.process.kill()
        elif event.kind in ("wedge", "slow"):
            self.wedge(slot.index, event.param)

    def _pump(self) -> None:
        """One round: collect replies, fail dead or overdue workers."""
        if not self._slots:
            task = self._backlog.popleft()
            if self._site is not None:
                fire(self._site)  # no worker to kill, wedge or fail
            self._done[task.id] = self._handler(task.payload)
            return
        busy = [slot for slot in self._slots if slot.task is not None]
        if not busy:
            raise RuntimeError("no task in flight")
        timeout = POLL_S
        if self.deadline_s is not None:
            due = min(slot.sent_at for slot in busy) + self.deadline_s
            timeout = min(timeout, max(0.0, due - time.monotonic()))
        ready = wait([slot.conn for slot in busy], timeout)
        now = time.monotonic()
        for slot in busy:
            if slot.conn in ready:
                self._receive(slot, now)
            elif ((self.deadline_s is not None
                   and now - slot.sent_at > self.deadline_s)
                  or (not ready and not slot.process.is_alive())):
                self._fail(slot)
        self._dispatch()

    def _receive(self, slot: _Slot, now: float) -> None:
        try:
            task_id, ok, value = slot.conn.recv()
        except (EOFError, OSError):
            self._fail(slot)
            return
        task = slot.task
        if task_id != task.id:
            return  # not this task's reply; keep waiting for it
        slot.task = None
        elapsed = now - slot.sent_at
        slot.tasks += 1
        slot.latency_last_s = elapsed
        slot.latency_total_s += elapsed
        self._done[task.id] = value if ok else self._fallback(task)

    def _fail(self, slot: _Slot) -> None:
        """Kill, reap and respawn a worker; retry its task elsewhere."""
        task = slot.task
        slot.failures += 1
        self._reap(slot, 0.0)
        if self._running:
            self._spawn(slot)
            slot.restarts += 1
        if task is None:
            return
        if task.retried:
            self._done[task.id] = self._fallback(task)
        else:
            task.retried, task.slot = True, None
            self._backlog.appendleft(task)

    def _fallback(self, task: _Task):
        self.fallbacks += 1
        return self._handler(task.payload)


__all__ = [
    "DEADLINE_S",
    "WorkerPool",
    "available",
    "split_spans",
]
