"""Process-global fault-injection runtime: named sites, one injector.

Production code never imports fault *plans* — it only calls
:func:`fire` at named hook points (the ``SITE_*`` constants below).
With no injector installed (the default, and the only state production
ever sees) :func:`fire` is a dictionary miss and returns ``None``; the
hook costs nothing and injects nothing.  Tests, the ``repro chaos``
soak and ``repro serve --fault-plan`` install a
:class:`~repro.faults.plan.FaultInjector` for the duration of a run.

This module is dependency-free (stdlib only) so every subsystem —
``serve``, ``search``, ``api`` — can hook into it without import
cycles.  The injector is deliberately a single process-global slot:
faults are injected *parent-side* (the dispatching process decides to
kill/wedge/delay a worker or tear a write), which keeps the fired-event
log in one process and makes the sequence reproducible from the fault
seed alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

# The three worker sites below all sit on one substrate,
# :class:`repro.workers.WorkerPool`, which applies their events to the
# target worker: ``kill`` SIGKILLs it, ``wedge``/``slow`` make it sleep
# ``param`` seconds before the task (a wedge outlasts the pool's
# deadline, a slow reply does not), ``error`` makes the task raise in
# the worker so the parent recomputes it inline.  The sites differ only
# in which dispatches count as a visit.

#: Replica-pool shard dispatch (``serve/replicas.py``): one visit per
#: planned shard; re-sends after a failure are not visits.  Kinds:
#: ``kill``, ``wedge``, ``slow``.
SITE_REPLICA_DISPATCH = "serve.replicas.dispatch"

#: Async-EA task dispatch (``search/async_ea.py``): one visit per send
#: of a task to a worker, re-sends included, and per task run inline
#: (where the event is a no-op).  Kinds: ``kill``, ``wedge``, ``error``.
SITE_ASYNC_DISPATCH = "search.async_ea.dispatch"

#: Lock-step candidate evaluation (``search/parallel.py``): one visit
#: per distinct candidate that ``ParallelEvaluator.compute`` gets.
#: Kinds: ``error`` (fails the candidate's shard in its worker).
SITE_PARALLEL_EVAL = "search.parallel.evaluate"

#: Atomic artifact publication (``api/artifacts.py``).  Kinds:
#: ``torn_write`` (the published file is truncated to ``param`` of its
#: bytes, simulating a torn write that beat the rename).
SITE_ARTIFACT_WRITE = "api.artifacts.write"

#: Evaluation-cache entry publication (``EvaluationCache.put``).
#: Kinds: ``torn_write`` (as above).
SITE_CACHE_WRITE = "api.cache.put"

#: Every named hook point, for plan validation and plan generation.
SITES = (
    SITE_REPLICA_DISPATCH,
    SITE_ASYNC_DISPATCH,
    SITE_PARALLEL_EVAL,
    SITE_ARTIFACT_WRITE,
    SITE_CACHE_WRITE,
)

_active = None


def install(injector) -> None:
    """Activate ``injector`` for this process (replacing any other)."""
    global _active
    _active = injector


def deactivate() -> None:
    """Remove the active injector; all :func:`fire` calls become no-ops."""
    global _active
    _active = None


def active():
    """The installed injector, or ``None``."""
    return _active


def fire(site: str):
    """Record one visit to ``site``; return the fault due at it, if any.

    Returns ``None`` (the overwhelmingly common case — always, with no
    injector installed) or the :class:`~repro.faults.plan.FaultEvent`
    scheduled for exactly this visit.  Visit counters are per-site, so
    the decision is a pure function of (plan, call sequence) — never of
    the clock.
    """
    if _active is None:
        return None
    return _active.fire(site)


@contextmanager
def injected(injector) -> Iterator[None]:
    """Install ``injector`` for the duration of a ``with`` block."""
    previous = _active
    install(injector)
    try:
        yield
    finally:
        install(previous)


__all__ = [
    "SITES",
    "SITE_REPLICA_DISPATCH",
    "SITE_ASYNC_DISPATCH",
    "SITE_PARALLEL_EVAL",
    "SITE_ARTIFACT_WRITE",
    "SITE_CACHE_WRITE",
    "active",
    "deactivate",
    "fire",
    "injected",
    "install",
]
