"""Seeded fault plans: deterministic chaos as data.

A :class:`FaultPlan` is a finite list of :class:`FaultEvent` records —
*"on the 7th shard dispatch, SIGKILL the target replica; on the 3rd
cache put, tear the write at 40% of its bytes"*.  Plans are a pure
function of a fault seed (:meth:`FaultPlan.generate` draws every event
from :func:`repro.utils.rng.new_rng` over a derived seed — no wall
clock, no OS entropy), round-trip through JSON for pinning in CI, and
execute through a :class:`FaultInjector` whose firing decisions depend
only on per-site visit counters.  Replaying the same plan against the
same workload therefore reproduces the identical fault sequence, which
is what lets the ``repro chaos`` soak assert byte-identity instead of
merely "it didn't crash".

Sites and their admissible fault kinds are declared in
:data:`SITE_KINDS`; the hook points themselves live next to the code
they perturb (see :mod:`repro.faults.runtime`).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults.runtime import (
    SITES,
    SITE_ARTIFACT_WRITE,
    SITE_ASYNC_DISPATCH,
    SITE_CACHE_WRITE,
    SITE_PARALLEL_EVAL,
    SITE_REPLICA_DISPATCH,
)
from repro.utils.fields import (
    INT,
    NUMBER,
    Choice,
    Declared,
    Field,
    Int,
    ListOf,
    Record,
    check_fields,
    declare,
    read_fields,
    table_of,
    write_fields,
)
from repro.utils.rng import derive_seed, new_rng

#: Fault kinds the injector understands.
FAULT_KINDS = ("kill", "wedge", "slow", "torn_write", "error")

#: Admissible kinds per hook site.  ``param`` semantics by kind:
#: ``slow``/``wedge`` — seconds of delay/unresponsiveness;
#: ``torn_write`` — fraction of bytes that survive (``0 <= p < 1``);
#: ``kill``/``error`` — unused (0.0).
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    SITE_REPLICA_DISPATCH: ("kill", "wedge", "slow"),
    SITE_ASYNC_DISPATCH: ("kill", "wedge", "error"),
    SITE_PARALLEL_EVAL: ("error",),
    SITE_ARTIFACT_WRITE: ("torn_write",),
    SITE_CACHE_WRITE: ("torn_write",),
}

FAULT_PLAN_VERSION = 1


class FaultPlanError(ValueError):
    """A fault plan is malformed (unknown site/kind, bad event)."""


@dataclass(frozen=True)
class FaultEvent(Declared):
    """One scheduled fault: *at visit ``visit`` of ``site``, do ``kind``*.

    ``visit`` is the 0-based index of the :func:`repro.faults.runtime.fire`
    call at which the event triggers (the 0th visit is the first).
    """

    site: str = declare(Choice(*sorted(SITE_KINDS)))
    visit: int = declare(Int(least=0))
    kind: str = declare(Choice(*FAULT_KINDS))
    param: float = declare(NUMBER, 0.0)

    def validate(self) -> None:
        check_fields(self, FaultPlanError, "fault event")
        if self.kind not in SITE_KINDS[self.site]:
            raise FaultPlanError(
                f"fault kind {self.kind!r} is not admissible at "
                f"{self.site!r} (allowed: {SITE_KINDS[self.site]})")
        if self.kind == "torn_write" and not 0.0 <= self.param < 1.0:
            raise FaultPlanError(
                f"torn_write param must be in [0, 1), got {self.param}")
        if self.kind in ("slow", "wedge") and self.param < 0:
            raise FaultPlanError(
                f"{self.kind} param must be >= 0 seconds, got {self.param}")

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "FaultEvent":
        """Parse one JSON event by :mod:`repro.utils.fields`' rule:
        values are checked, never coerced."""
        event = Record(cls).read(record, FaultPlanError, "fault event")
        event.validate()
        return event


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated set of :class:`FaultEvent` records.

    At most one event per ``(site, visit)`` — the injector's firing
    rule is a dictionary lookup, so duplicates would be ambiguous and
    are rejected at construction.
    """

    events: Tuple[FaultEvent, ...] = declare(ListOf(Record(FaultEvent)))
    seed: int = declare(INT, 0)

    def __post_init__(self) -> None:
        seen = set()
        for event in self.events:
            event.validate()
            key = (event.site, event.visit)
            if key in seen:
                raise FaultPlanError(
                    f"duplicate fault event for site={event.site!r} "
                    f"visit={event.visit}")
            seen.add(key)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, seed: int, *,
                 sites: Optional[Sequence[str]] = None,
                 events_per_site: int = 2,
                 max_visit: int = 24,
                 slow_s: float = 0.02,
                 wedge_s: float = 30.0) -> "FaultPlan":
        """Draw a plan as a pure function of ``seed``.

        For each site, ``events_per_site`` distinct visit indices in
        ``[0, max_visit)`` are drawn along with an admissible kind.
        ``slow_s`` bounds injected reply delays (drawn uniformly in
        ``(0, slow_s]``) and ``wedge_s`` is the unresponsive period for
        wedge faults — callers tune both against their timeout budget.
        """
        if events_per_site < 0:
            raise FaultPlanError(
                f"events_per_site must be >= 0, got {events_per_site}")
        if max_visit < events_per_site:
            raise FaultPlanError(
                f"max_visit ({max_visit}) must be >= events_per_site "
                f"({events_per_site})")
        chosen = tuple(sites) if sites is not None else SITES
        events: List[FaultEvent] = []
        for site in chosen:
            if site not in SITE_KINDS:
                raise FaultPlanError(
                    f"unknown fault site {site!r}; known sites: "
                    f"{sorted(SITE_KINDS)}")
            rng = new_rng(derive_seed(seed, zlib.crc32(b"fault-plan"),
                                      zlib.crc32(site.encode("utf-8"))))
            visits = sorted(
                int(v) for v in rng.choice(
                    max_visit, size=min(events_per_site, max_visit),
                    replace=False))
            kinds = SITE_KINDS[site]
            for visit in visits:
                kind = kinds[int(rng.integers(len(kinds)))]
                if kind == "slow":
                    param = float(rng.uniform(slow_s * 0.25, slow_s))
                elif kind == "wedge":
                    param = float(wedge_s)
                elif kind == "torn_write":
                    param = float(rng.uniform(0.0, 0.9))
                else:
                    param = 0.0
                events.append(FaultEvent(site, visit, kind, param))
        return cls(events=tuple(events), seed=int(seed))

    @classmethod
    def standard_plan(cls, seed: int = 0) -> "FaultPlan":
        """The pinned soak plan used by CI and ``bench_resilience``.

        Covers every serve-stack fault kind at small visit indices so a
        smoke-scale request stream reaches all of them.
        """
        events = (
            FaultEvent(SITE_REPLICA_DISPATCH, 2, "slow", 0.01),
            FaultEvent(SITE_REPLICA_DISPATCH, 5, "kill"),
            FaultEvent(SITE_REPLICA_DISPATCH, 9, "wedge", 30.0),
            FaultEvent(SITE_REPLICA_DISPATCH, 14, "kill"),
            FaultEvent(SITE_ARTIFACT_WRITE, 0, "torn_write", 0.5),
            FaultEvent(SITE_CACHE_WRITE, 1, "torn_write", 0.25),
        )
        base = cls(events=events, seed=0)
        if seed == 0:
            return base
        # A non-zero seed perturbs the visit schedule deterministically
        # while keeping the kind coverage of the standard plan.
        rng = new_rng(derive_seed(seed, zlib.crc32(b"fault-plan-standard")))
        shifted = []
        used = set()
        for event in base.events:
            visit = event.visit
            while True:
                candidate = visit + int(rng.integers(0, 4))
                if (event.site, candidate) not in used:
                    break
                visit += 1
            used.add((event.site, candidate))
            shifted.append(FaultEvent(event.site, candidate, event.kind,
                                      event.param))
        return cls(events=tuple(shifted), seed=int(seed))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        record = dict(vars(self), version=FAULT_PLAN_VERSION)
        return json.dumps(write_fields(record, _PLAN), indent=2,
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse :meth:`to_json`'s form by :mod:`repro.utils.fields`'
        rule; :meth:`__post_init__` then validates every event."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}")
        values = read_fields(payload, _PLAN, FaultPlanError, "fault plan")
        del values["version"]
        return cls(**values)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path!r}: {exc}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


#: The fields of a fault plan's JSON form (:meth:`FaultPlan.to_json`).
_PLAN = table_of(FaultPlan) + (Field("version", Choice(FAULT_PLAN_VERSION)),)


class FaultInjector:
    """Replays a :class:`FaultPlan` against per-site visit counters.

    The injector is the only mutable piece of the fault subsystem: it
    counts :meth:`fire` calls per site and hands back the event (if
    any) scheduled for that exact visit.  ``log`` accumulates fired
    events in firing order — two runs of the same workload under the
    same plan produce equal logs, and the chaos soak asserts exactly
    that.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._schedule: Dict[str, Dict[int, FaultEvent]] = {}
        for event in plan.events:
            self._schedule.setdefault(event.site, {})[event.visit] = event
        self._visits: Dict[str, int] = {}
        self.log: List[FaultEvent] = []

    def fire(self, site: str) -> Optional[FaultEvent]:
        """Count one visit to ``site``; return the fault due, if any."""
        visit = self._visits.get(site, 0)
        self._visits[site] = visit + 1
        event = self._schedule.get(site, {}).get(visit)
        if event is not None:
            self.log.append(event)
        return event

    def visits(self, site: str) -> int:
        """How many times ``site`` has been visited."""
        return self._visits.get(site, 0)

    @property
    def fired(self) -> int:
        return len(self.log)

    @property
    def pending(self) -> int:
        """Scheduled events whose visit has not been reached yet."""
        return sum(
            1
            for site, by_visit in self._schedule.items()
            for visit in by_visit
            if visit >= self._visits.get(site, 0))

    def event_log(self) -> Tuple[Tuple[str, int, str, float], ...]:
        """The fired sequence as plain tuples (order-preserving)."""
        return tuple((e.site, e.visit, e.kind, e.param) for e in self.log)

    def reset(self) -> None:
        """Forget all visits and fired events (fresh replay)."""
        self._visits.clear()
        self.log.clear()


def events_from_dicts(records: Iterable[Dict[str, object]]
                      ) -> Tuple[FaultEvent, ...]:
    """Validate a list of plain dicts into events (CLI helper)."""
    return tuple(FaultEvent.from_dict(record) for record in records)


__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_VERSION",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "SITE_KINDS",
    "events_from_dicts",
]
