"""Message passing (the stand-in for MPI-3).

The execution environment has no MPI runtime, so the distributed sampler
runs on one of two worlds with the same verb surface:

* :mod:`repro.mpi.simmpi` — ``SimCommWorld`` gives every simulated rank
  its own mailbox and the familiar ``Isend`` / ``Irecv`` / ``Allreduce``
  / ``Barrier`` verbs inside one process.  Ranks keep *separate copies*
  of the factor matrices; an item only becomes visible on another rank
  when a message carrying it is delivered, and ``SimCommWorld.run``
  executes one blocking rank program on every rank under a deterministic
  turn-taking scheduler.  This is what makes the distributed sampler's
  correctness checkable: forget to send an item and the run raises
  (stray row, would-deadlock) or diverges from the sequential reference.
* :mod:`repro.mpi.net` — the same verbs over localhost TCP, one process
  per rank.

The cluster and network *performance* model behind Figures 4 and 5 is
:mod:`repro.distributed.scaling`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SimCommWorld",
    "SimComm",
    "SimRequest",
    "MessageRecord",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.mpi.simmpi": ("SimCommWorld", "SimComm", "SimRequest",
                         "MessageRecord"),
})
