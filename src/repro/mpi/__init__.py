"""Message passing (the stand-in for MPI-3).

The execution environment has no MPI runtime, so the distributed sampler
runs on one world (:mod:`repro.mpi.world`: the five verbs, one FIFO per
``(source, tag)``, the audit log, collectives from tagged messages) over
one of two links:

* :mod:`repro.mpi.simmpi` — ``SimCommWorld`` runs every rank in one
  process under a deterministic turn-taking scheduler.  An item becomes
  visible on another rank only through a message, so a forgotten send
  raises (a frame off the plan, would-deadlock) or diverges from the
  sequential reference: the distributed sampler is checkable.
* :mod:`repro.mpi.net` — one rank per process over TCP.

The cluster and network *performance* model behind Figures 4 and 5 is
:mod:`repro.distributed.scaling`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Comm",
    "MessageRecord",
    "SimCommWorld",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.mpi.world": ("Comm", "MessageRecord"),
    "repro.mpi.simmpi": ("SimCommWorld",),
})
