"""Deterministic, seedable fault schedules for the serving stack.

Every robustness claim in this repo used to rest on hand-written drills
(kill replica 0 at one hard-coded moment).  This module turns fault
injection into a *seeded, replayable schedule*:

* :class:`FaultEvent` — one planned fault: at the ``step``-th operation
  on an injection ``site`` (or at a wall-clock offset, for fleet
  events), perform ``action`` with parameter ``arg``.
* :class:`FaultPlan` — a complete schedule, generated deterministically
  from an integer seed: per-call-site events (socket sends/recvs, WAL
  appends/fsyncs) plus a timeline of fleet events (kill / pause a
  replica, then recover).  ``FaultPlan.generate(seed)`` is a pure
  function of its arguments — the same seed always yields the
  byte-identical schedule, which is what lets a CI failure replay
  exactly.
* :class:`FaultInjector` — the runtime half: shims in the stack call
  :meth:`FaultInjector.check` with their site name, the injector counts
  calls per site and hands back the event scheduled for exactly that
  call (or ``None``).  Every *triggered* event is appended to
  :attr:`FaultInjector.log` with its sequence position, so two runs
  that make the same calls trigger the identical log (pinned by a
  hypothesis property in ``tests/test_chaos_plan.py``).

Injection is strictly opt-in: no plan, no injector, no behaviour change
anywhere — every shim's fast path is ``if injector is None``.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import annotate_active

__all__ = ["FaultEvent", "FleetEvent", "FaultPlan", "FaultInjector",
           "SITE_ACTIONS", "FLEET_ACTIONS"]

#: Injection sites and the fault actions each supports.  ``arg`` units
#: depend on the action: seconds for delays/pauses, unused otherwise.
SITE_ACTIONS: Dict[str, Tuple[str, ...]] = {
    # Socket shims: ChaosShim (client), ChaosSocket (MPI links).
    "net.connect": ("fail", "delay"),
    "net.send": ("delay", "drop", "reset"),
    "net.recv": ("delay", "slow", "drop", "reset"),
    # Filesystem shim inside WriteAheadLog.append.
    "wal.append": ("enospc", "torn"),
    "wal.fsync": ("fail",),
}

#: Fleet-level actions applied by a conductor at wall-clock offsets.
FLEET_ACTIONS: Tuple[str, ...] = ("kill", "pause")

#: Bounds for generated ``arg`` values, per action (seconds).
_ARG_RANGES = {
    "delay": (0.002, 0.03),
    "kill": (0.2, 0.8),    # downtime before the conductor restarts it
    "pause": (0.1, 0.5),   # gateway stall length
}


@dataclass(frozen=True)
class FaultEvent:
    """One planned per-site fault: fire on the ``step``-th call."""

    site: str
    step: int          # 1-based call index at this site
    action: str
    arg: float = 0.0


@dataclass(frozen=True)
class FleetEvent:
    """One planned fleet fault at a wall-clock offset from storm start."""

    at: float          # seconds after the conductor starts
    action: str        # "kill" (arg = downtime) or "pause" (arg = stall)
    replica: int
    arg: float


@dataclass
class FaultPlan:
    """A deterministic fault schedule (see module docstring).

    Build one with :meth:`generate`; construct directly only in tests
    that need a hand-written schedule.
    """

    seed: int
    events: List[FaultEvent] = field(default_factory=list)
    fleet: List[FleetEvent] = field(default_factory=list)

    @classmethod
    def generate(cls, seed: int, n_events: int = 24, horizon: int = 200,
                 n_replicas: int = 0, n_fleet_events: int = 3,
                 fleet_span: float = 6.0,
                 sites: Optional[Sequence[str]] = None) -> "FaultPlan":
        """Draw a schedule from ``seed`` — a pure function of its inputs.

        ``n_events`` per-site faults are spread over call steps
        ``1..horizon``; with ``n_replicas > 0``, ``n_fleet_events``
        kill/pause events land at offsets within ``fleet_span`` seconds.
        Replica 0 (the write leader) is eligible like any other — the
        invariants must hold through leader loss too.
        """
        rng = random.Random(int(seed))
        site_names = tuple(sites) if sites is not None \
            else tuple(sorted(SITE_ACTIONS))
        taken = set()
        events: List[FaultEvent] = []
        for _ in range(int(n_events)):
            site = rng.choice(site_names)
            action = rng.choice(SITE_ACTIONS[site])
            step = rng.randint(1, int(horizon))
            if (site, step) in taken:
                continue  # one event per (site, step); skip, stay seeded
            taken.add((site, step))
            low, high = _ARG_RANGES.get(action, (0.0, 0.0))
            arg = round(rng.uniform(low, high), 6) if high else 0.0
            events.append(FaultEvent(site=site, step=step,
                                     action=action, arg=arg))
        events.sort(key=lambda event: (event.site, event.step))
        fleet: List[FleetEvent] = []
        if n_replicas > 0:
            offsets = sorted(round(rng.uniform(0.3, float(fleet_span)), 3)
                             for _ in range(int(n_fleet_events)))
            for at in offsets:
                action = rng.choice(FLEET_ACTIONS)
                low, high = _ARG_RANGES[action]
                fleet.append(FleetEvent(
                    at=at, action=action,
                    replica=rng.randrange(int(n_replicas)),
                    arg=round(rng.uniform(low, high), 6)))
        return cls(seed=int(seed), events=events, fleet=fleet)

    def to_json(self) -> Dict[str, object]:
        """The schedule as a JSON-able dict (the drill's report artifact)."""
        return {
            "seed": self.seed,
            "events": [asdict(event) for event in self.events],
            "fleet": [asdict(event) for event in self.fleet],
        }

    def digest(self) -> str:
        """SHA-256 over the canonical schedule (reproducibility pin)."""
        canonical = json.dumps(self.to_json(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class FaultInjector:
    """Runtime dispatcher of a :class:`FaultPlan` (thread-safe).

    Shims call :meth:`check` once per operation; the injector counts
    calls per site and returns the event scheduled for exactly that
    call, recording it in :attr:`log`.  With ``plan=None`` every check
    answers ``None`` — the disabled injector is safe to thread through
    unconditionally.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._scheduled: Dict[Tuple[str, int], FaultEvent] = {}
        if plan is not None:
            for event in plan.events:
                self._scheduled[(event.site, event.step)] = event
        #: Every event that actually fired, in firing order, as dicts
        #: ``{seq, site, step, action, arg}`` — JSON-able for reports.
        self.log: List[Dict[str, object]] = []

    def check(self, site: str) -> Optional[FaultEvent]:
        """Count one call at ``site``; the event due now, or ``None``."""
        if self.plan is None:
            return None
        with self._lock:
            step = self._counts.get(site, 0) + 1
            self._counts[site] = step
            event = self._scheduled.get((site, step))
            if event is not None:
                fired = {"seq": len(self.log), "site": site,
                         "step": step, "action": event.action,
                         "arg": event.arg}
                self.log.append(fired)
                # A fault landing inside a traced request annotates the
                # live span, so the trace shows exactly which request
                # the fault hit (no-op when nothing is active).
                annotate_active("fault", dict(fired))
            return event

    def counts(self) -> Dict[str, int]:
        """Calls observed per site (how much traffic crossed each shim)."""
        with self._lock:
            return dict(self._counts)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {"triggered": len(self.log),
                    "scheduled": len(self._scheduled),
                    "sites": dict(self._counts)}
