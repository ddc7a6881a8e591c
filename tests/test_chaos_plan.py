"""Determinism of the fault planner and injector (the replay guarantee).

The chaos layer's whole value rests on one property: a seed *is* the
schedule.  ``FaultPlan.generate(seed)`` must be a pure function of its
arguments, and a ``FaultInjector`` fed the same plan and the same call
sequence must trigger the identical fault log — that is what lets a CI
chaos failure be replayed exactly.  Both halves are pinned here with
hypothesis properties, and the CI drill's three schedules by digest.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import drills
from repro.serving.chaos import (
    FLEET_ACTIONS,
    SITE_ACTIONS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)

COMMON_SETTINGS = settings(max_examples=30, deadline=None)


# ---------------------------------------------------------------------------
# plan generation
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1))
@COMMON_SETTINGS
def test_same_seed_same_schedule(seed):
    first = FaultPlan.generate(seed, n_replicas=3)
    second = FaultPlan.generate(seed, n_replicas=3)
    assert first.digest() == second.digest()
    assert first.events == second.events
    assert first.fleet == second.fleet


@given(seed=st.integers(0, 2**16), horizon=st.integers(1, 500),
       n_events=st.integers(0, 64), n_replicas=st.integers(0, 5))
@COMMON_SETTINGS
def test_generated_plans_are_well_formed(seed, horizon, n_events,
                                         n_replicas):
    plan = FaultPlan.generate(seed, n_events=n_events, horizon=horizon,
                              n_replicas=n_replicas)
    seen = set()
    for event in plan.events:
        assert event.site in SITE_ACTIONS
        assert event.action in SITE_ACTIONS[event.site]
        assert 1 <= event.step <= horizon
        assert (event.site, event.step) not in seen  # one fault per call
        seen.add((event.site, event.step))
    assert plan.events == sorted(plan.events,
                                 key=lambda e: (e.site, e.step))
    for event in plan.fleet:
        assert event.action in FLEET_ACTIONS
        assert 0 <= event.replica < max(n_replicas, 1)
        assert event.at >= 0.3 and event.arg > 0
    if n_replicas == 0:
        assert plan.fleet == []


def test_seed_changes_the_schedule():
    digests = {FaultPlan.generate(seed, n_replicas=2).digest()
               for seed in range(20)}
    assert len(digests) == 20  # astronomically unlikely to collide


#: ``plan_digest`` of the CI chaos drill (``python -m repro.serving
#: chaos-smoke --seed N``) for seeds 1, 2 and 3: moving one means the
#: drill schedule constants or the planner changed.
CI_PLAN_DIGESTS = {
    1: "75459f189d04591615cd2b6a36f00936e59177808e23a178cd2458b15dc5d40c",
    2: "db948a0de8b92e71551a9313f7e7a136c198be0ef1dd27def0274029328b3a69",
    3: "77e576c03cda97a65b1e54672ba4db00c1cd54c038952e1cea34642c1c3bd2c7",
}


@pytest.mark.parametrize("seed", sorted(CI_PLAN_DIGESTS))
def test_ci_chaos_schedules_are_pinned(seed):
    plan = FaultPlan.generate(
        seed=seed, n_events=drills.CHAOS_FAULTS,
        horizon=drills.CHAOS_HORIZON, n_replicas=drills.CHAOS_REPLICAS,
        n_fleet_events=drills.CHAOS_FLEET_EVENTS,
        fleet_span=drills.CHAOS_FLEET_SPAN)
    assert plan.digest() == CI_PLAN_DIGESTS[seed]


def test_site_restriction_is_honoured():
    plan = FaultPlan.generate(3, n_events=40, sites=("wal.append",))
    assert plan.events  # the site has actions, so events were drawn
    assert {event.site for event in plan.events} == {"wal.append"}


# ---------------------------------------------------------------------------
# the injector's replay guarantee
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**16),
       calls=st.lists(st.sampled_from(sorted(SITE_ACTIONS)),
                      min_size=0, max_size=400))
@COMMON_SETTINGS
def test_same_seed_same_calls_same_fault_log(seed, calls):
    """The acceptance pin: identical seeds (and identical traffic)
    trigger the byte-identical fault-event log."""
    plan = FaultPlan.generate(seed, n_events=24, horizon=100)
    first, second = FaultInjector(plan), FaultInjector(plan)
    for site in calls:
        first.check(site)
    for site in calls:
        second.check(site)
    assert first.log == second.log
    assert first.counts() == second.counts()
    # Every triggered event is one the plan scheduled, at its exact step.
    scheduled = {(e.site, e.step): e for e in plan.events}
    for entry in first.log:
        event = scheduled[(entry["site"], entry["step"])]
        assert entry["action"] == event.action
        assert entry["arg"] == event.arg


def test_injector_fires_each_event_exactly_once():
    plan = FaultPlan(seed=0, events=[
        FaultEvent("net.send", 2, "drop"),
        FaultEvent("net.send", 4, "reset"),
    ])
    injector = FaultInjector(plan)
    fired = [injector.check("net.send") for _ in range(6)]
    assert [e.action if e else None for e in fired] == \
        [None, "drop", None, "reset", None, None]
    assert [entry["seq"] for entry in injector.log] == [0, 1]
    assert injector.stats()["triggered"] == 2


def test_disabled_injector_is_inert():
    injector = FaultInjector(None)
    for _ in range(100):
        assert injector.check("net.send") is None
    assert injector.log == []
    assert injector.counts() == {}


def test_plan_json_round_trip_is_canonical():
    plan = FaultPlan.generate(11, n_replicas=2)
    payload = plan.to_json()
    assert payload["seed"] == 11
    assert len(payload["events"]) == len(plan.events)
    assert plan.digest() == FaultPlan.generate(11, n_replicas=2).digest()


def test_unknown_scheduled_site_never_fires():
    plan = FaultPlan(seed=0, events=[FaultEvent("net.send", 1, "drop")])
    injector = FaultInjector(plan)
    assert injector.check("net.recv") is None  # different site, step 1
    assert injector.log == []


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
