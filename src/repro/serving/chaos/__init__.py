"""Deterministic fault injection for the serving stack.

* :mod:`repro.serving.chaos.plan` — :class:`FaultPlan` (a seeded,
  replayable fault schedule) and :class:`FaultInjector` (its thread-safe
  runtime, whose triggered-event log is deterministic per call order);
* :mod:`repro.serving.chaos.shims` — the hooks a plan drives: the
  serving client's :class:`ChaosShim`, the MPI links' :class:`ChaosSocket`,
  the WAL's filesystem faults and :class:`FleetConductor` (replica kill
  and pause).

``python -m repro.serving chaos-smoke --seed N`` runs a replica fleet
under a seeded schedule while a read/write storm asserts the invariants:
no acked write lost, reads bit-exact or retryable in their deadline, no
hangs, convergence after the schedule.
"""

from repro.serving.chaos.plan import (
    FLEET_ACTIONS,
    SITE_ACTIONS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FleetEvent,
)
from repro.serving.chaos.shims import (
    ChaosShim,
    ChaosSocket,
    FleetConductor,
    InjectedConnectError,
)

__all__ = [
    "FaultEvent",
    "FleetEvent",
    "FaultPlan",
    "FaultInjector",
    "SITE_ACTIONS",
    "FLEET_ACTIONS",
    "ChaosShim",
    "ChaosSocket",
    "FleetConductor",
    "InjectedConnectError",
]
