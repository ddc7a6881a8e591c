"""Simulated message-passing substrate (the stand-in for MPI-3).

The execution environment has no MPI runtime and a single core, so the
distributed experiments run on an in-process substrate with two layers:

* **Functional layer** (:mod:`repro.mpi.simmpi`) — ``SimCommWorld`` gives
  every simulated rank its own mailbox and the familiar ``Isend`` /
  ``Irecv`` / ``Allreduce`` / ``Barrier`` verbs.  Ranks keep *separate
  copies* of the factor matrices; an item only becomes visible on another
  rank when a message carrying it is delivered, and
  ``SimCommWorld.run`` executes one blocking rank program on every rank
  under a deterministic turn-taking scheduler.  This is what makes the
  distributed sampler's correctness checkable: forget to send an item and
  the run raises (stray row, would-deadlock) or diverges from the
  sequential reference.
* **Performance layer** (:mod:`repro.mpi.network`,
  :mod:`repro.mpi.trace`) — a cluster/network model (per-message overhead,
  link latency and bandwidth, rack topology with a shared inter-rack
  uplink, per-node cache capacity) and a per-rank time-line accounting of
  compute / communicate / overlap, used by the strong-scaling driver to
  regenerate Figures 4 and 5.
"""

from repro.mpi.network import ClusterSpec, NetworkModel
from repro.mpi.simmpi import SimCommWorld, SimComm, SimRequest, MessageRecord
from repro.mpi.trace import RankTimeline, PhaseBreakdown, combine_breakdowns

__all__ = [
    "ClusterSpec",
    "NetworkModel",
    "SimCommWorld",
    "SimComm",
    "SimRequest",
    "MessageRecord",
    "RankTimeline",
    "PhaseBreakdown",
    "combine_breakdowns",
]
