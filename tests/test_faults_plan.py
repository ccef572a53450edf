"""Fault plans and the injector: purity, validation, replay.

The contract (:mod:`repro.faults.plan`): a plan is a pure function of
its seed, round-trips through JSON unchanged, rejects malformed events
at construction, and executes through an injector whose firing
decisions depend only on per-site visit counters — so replaying the
same visit sequence reproduces the identical fired-event log.
"""

import pytest

from repro.faults.plan import (
    FAULT_PLAN_VERSION,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    SITE_KINDS,
    events_from_dicts,
)
from repro.faults.runtime import (
    SITE_ARTIFACT_WRITE,
    SITE_ASYNC_DISPATCH,
    SITE_CACHE_WRITE,
    SITE_PARALLEL_EVAL,
    SITE_REPLICA_DISPATCH,
    SITES,
    active,
    deactivate,
    fire,
    injected,
    install,
)


class TestFaultEventValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError,
                           match=r"fault event\.site must be one of"):
            FaultEvent("serve.nowhere", 0, "kill").validate()

    def test_inadmissible_kind_rejected(self):
        # torn_write only makes sense at write sites.
        with pytest.raises(FaultPlanError, match="not admissible"):
            FaultEvent(SITE_REPLICA_DISPATCH, 0, "torn_write").validate()

    def test_negative_visit_rejected(self):
        with pytest.raises(FaultPlanError, match="visit"):
            FaultEvent(SITE_REPLICA_DISPATCH, -1, "kill").validate()

    def test_torn_write_param_range(self):
        with pytest.raises(FaultPlanError, match="torn_write param"):
            FaultEvent(SITE_CACHE_WRITE, 0, "torn_write", 1.0).validate()
        FaultEvent(SITE_CACHE_WRITE, 0, "torn_write", 0.0).validate()

    def test_negative_delay_rejected(self):
        with pytest.raises(FaultPlanError, match="slow param"):
            FaultEvent(SITE_REPLICA_DISPATCH, 0, "slow", -0.5).validate()

    def test_every_site_has_admissible_kinds(self):
        assert set(SITE_KINDS) == set(SITES)
        for kinds in SITE_KINDS.values():
            assert kinds

    def test_events_from_dicts_validates(self):
        events = events_from_dicts([
            {"site": SITE_REPLICA_DISPATCH, "visit": 3, "kind": "kill"}])
        assert events[0].visit == 3
        with pytest.raises(FaultPlanError,
                           match=r"fault event\.site is required"):
            events_from_dicts([{"visit": 3, "kind": "kill"}])


class TestFaultPlanConstruction:
    def test_duplicate_site_visit_rejected(self):
        events = (FaultEvent(SITE_REPLICA_DISPATCH, 2, "kill"),
                  FaultEvent(SITE_REPLICA_DISPATCH, 2, "slow", 0.01))
        with pytest.raises(FaultPlanError, match="duplicate"):
            FaultPlan(events=events)

    def test_generate_is_pure_in_seed(self):
        assert FaultPlan.generate(7) == FaultPlan.generate(7)
        assert FaultPlan.generate(7) != FaultPlan.generate(8)

    def test_generate_respects_site_kinds(self):
        plan = FaultPlan.generate(3, events_per_site=4, max_visit=16)
        for event in plan.events:
            assert event.kind in SITE_KINDS[event.site]

    def test_generate_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultPlan.generate(0, sites=["bogus.site"])

    def test_standard_plan_is_pinned(self):
        plan = FaultPlan.standard_plan()
        assert plan == FaultPlan.standard_plan(0)
        sites = {event.site for event in plan.events}
        assert SITE_REPLICA_DISPATCH in sites
        assert SITE_ARTIFACT_WRITE in sites
        assert SITE_CACHE_WRITE in sites
        kinds = {event.kind for event in plan.events}
        assert {"kill", "wedge", "slow", "torn_write"} <= kinds

    def test_standard_plan_seed_perturbs_deterministically(self):
        assert FaultPlan.standard_plan(5) == FaultPlan.standard_plan(5)
        assert FaultPlan.standard_plan(5) != FaultPlan.standard_plan(0)
        # Kind coverage survives the perturbation.
        kinds = {e.kind for e in FaultPlan.standard_plan(5).events}
        assert kinds == {e.kind for e in FaultPlan.standard_plan(0).events}


class TestFaultPlanSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan.generate(11)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_load_round_trip(self, tmp_path):
        plan = FaultPlan.standard_plan(2)
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_version_checked(self):
        text = FaultPlan.generate(0).to_json().replace(
            f'"version": {FAULT_PLAN_VERSION}', '"version": 999')
        with pytest.raises(FaultPlanError, match="version"):
            FaultPlan.from_json(text)

    def test_corrupt_json_rejected(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{torn")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.load(str(tmp_path / "absent.json"))

    def test_plan_error_is_value_error(self):
        # The CLI's generic error rendering catches ValueError.
        assert issubclass(FaultPlanError, ValueError)

    @pytest.mark.parametrize("plan", [
        FaultPlan.standard_plan(), FaultPlan.standard_plan(3),
        FaultPlan.generate(0), FaultPlan.generate(7)])
    def test_pinned_and_generated_plans_round_trip(self, plan):
        assert FaultPlan.from_json(plan.to_json()) == plan


def plan_text(event=None, seed="0"):
    """A one-event plan's JSON, with raw JSON fragments substituted."""
    fields = {"site": f'"{SITE_REPLICA_DISPATCH}"', "visit": "1",
              "kind": '"slow"', "param": "0.01"}
    fields.update(event or {})
    body = ", ".join(f'"{key}": {value}' for key, value in fields.items())
    return (f'{{"version": {FAULT_PLAN_VERSION}, "seed": {seed}, '
            f'"events": [{{{body}}}]}}')


class TestFaultPlanNumbers:
    """An int field takes a JSON int, a float field a finite number."""

    def test_well_typed_plan_loads(self):
        plan = FaultPlan.from_json(plan_text({"param": "1"}, seed="7"))
        assert plan.seed == 7
        assert plan.events == (
            FaultEvent(SITE_REPLICA_DISPATCH, 1, "slow", 1.0),)

    @pytest.mark.parametrize("visit", ['"1"', "1.7", "1.0", "true"])
    def test_visit_must_be_an_int(self, visit):
        with pytest.raises(FaultPlanError, match="visit must be"):
            FaultPlan.from_json(plan_text({"visit": visit}))

    @pytest.mark.parametrize("seed", ['"7"', "7.9", "false"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(FaultPlanError,
                           match=r"fault plan\.seed must be an int"):
            FaultPlan.from_json(plan_text(seed=seed))

    @pytest.mark.parametrize("param", ['"0.5"', "NaN", "Infinity",
                                       "-Infinity", "true"])
    def test_param_must_be_a_finite_number(self, param):
        # A slow event with a NaN or infinite delay used to load and
        # then crash the replica it fired on (time.sleep refuses it).
        with pytest.raises(FaultPlanError, match="finite number"):
            FaultPlan.from_json(plan_text({"param": param}))

    def test_param_beyond_float_range_is_refused(self):
        # A JSON int past float range used to escape as OverflowError.
        with pytest.raises(FaultPlanError, match="finite number"):
            FaultPlan.from_json(plan_text({"param": "1" + "0" * 400}))

    def test_events_from_dicts_refuses_coercible_values(self):
        for record in ({"visit": "3"}, {"visit": True},
                       {"param": float("nan")}, {"param": "0.1"}):
            with pytest.raises(FaultPlanError):
                events_from_dicts([{"site": SITE_REPLICA_DISPATCH,
                                    "visit": 3, "kind": "slow",
                                    "param": 0.01, **record}])


class TestFaultInjector:
    def plan(self):
        return FaultPlan(events=(
            FaultEvent(SITE_ASYNC_DISPATCH, 1, "error"),
            FaultEvent(SITE_ASYNC_DISPATCH, 3, "kill"),
            FaultEvent(SITE_PARALLEL_EVAL, 0, "error"),
        ))

    def test_fires_at_exact_visits_only(self):
        injector = FaultInjector(self.plan())
        hits = [injector.fire(SITE_ASYNC_DISPATCH) for _ in range(5)]
        assert [event.kind if event else None for event in hits] == [
            None, "error", None, "kill", None]

    def test_sites_count_independently(self):
        injector = FaultInjector(self.plan())
        assert injector.fire(SITE_PARALLEL_EVAL).kind == "error"
        assert injector.fire(SITE_ASYNC_DISPATCH) is None
        assert injector.visits(SITE_PARALLEL_EVAL) == 1
        assert injector.visits(SITE_ASYNC_DISPATCH) == 1

    def test_replay_reproduces_event_log(self):
        first = FaultInjector(self.plan())
        second = FaultInjector(self.plan())
        for injector in (first, second):
            for _ in range(6):
                injector.fire(SITE_ASYNC_DISPATCH)
            injector.fire(SITE_PARALLEL_EVAL)
        assert first.event_log() == second.event_log()
        assert first.fired == 3
        assert first.pending == 0

    def test_pending_counts_unreached_events(self):
        injector = FaultInjector(self.plan())
        assert injector.pending == 3
        injector.fire(SITE_ASYNC_DISPATCH)
        injector.fire(SITE_ASYNC_DISPATCH)  # fires visit 1
        assert injector.fired == 1
        assert injector.pending == 2

    def test_reset_forgets_visits_and_log(self):
        injector = FaultInjector(self.plan())
        for _ in range(4):
            injector.fire(SITE_ASYNC_DISPATCH)
        assert injector.fired == 2
        injector.reset()
        assert injector.fired == 0
        assert injector.pending == 3
        assert injector.fire(SITE_ASYNC_DISPATCH) is None


class TestRuntimeHooks:
    def test_fire_is_noop_without_injector(self):
        assert active() is None
        assert fire(SITE_REPLICA_DISPATCH) is None

    def test_install_and_deactivate(self):
        injector = FaultInjector(FaultPlan(events=(
            FaultEvent(SITE_CACHE_WRITE, 0, "torn_write", 0.5),)))
        install(injector)
        try:
            assert active() is injector
            event = fire(SITE_CACHE_WRITE)
            assert event is not None and event.kind == "torn_write"
        finally:
            deactivate()
        assert active() is None
        assert fire(SITE_CACHE_WRITE) is None

    def test_injected_context_restores_previous(self):
        outer = FaultInjector(FaultPlan(events=()))
        inner = FaultInjector(FaultPlan(events=()))
        install(outer)
        try:
            with injected(inner):
                assert active() is inner
            assert active() is outer
        finally:
            deactivate()
