"""Deterministic fault injection for the serving stack.

* :mod:`repro.serving.chaos.plan` — :class:`FaultPlan` (a seeded,
  replayable schedule of fault events) and :class:`FaultInjector` (the
  thread-safe runtime dispatcher whose triggered-event log is
  deterministic given the same call sequence).
* :mod:`repro.serving.chaos.shims` — the hooks a plan drives:
  :class:`ChaosStream` on the serving client's connections and
  :class:`ChaosSocket` on socket-world MPI links
  (delay / drop / reset / slow-read on scheduled frames), the WAL
  filesystem faults (driven through
  :meth:`~repro.serving.wal.log.WriteAheadLog.append`), and
  :class:`FleetConductor` (scheduled replica kill / pause against a
  :class:`~repro.serving.net.replica.ReplicaSet`).

``python -m repro.serving chaos-smoke --seed N`` runs the whole layer
end to end: a replica fleet under a seeded schedule while a read/write
storm asserts the standing invariants (no acked write lost, reads
bit-exact or retryable within their deadline, no hangs, post-schedule
convergence).
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
    ChaosSocket,
    ChaosStream,
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
    "ChaosSocket",
    "ChaosStream",
    "FleetConductor",
    "InjectedConnectError",
]
