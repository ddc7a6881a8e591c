"""Distributed BPMF (Section IV of the paper).

Built on the message-passing substrate (:mod:`repro.mpi`): one rank
program that runs unchanged on the simulated in-process world and on the
socket world (:mod:`repro.mpi.net`):

* :mod:`repro.distributed.partition` — distributes the rows of ``U`` and
  ``V`` over the ranks using the paper's workload model
  (:class:`WorkloadModel`: fixed cost plus a cost per rating) after a
  locality-improving reordering of ``R``.
* :mod:`repro.distributed.comm_plan` — derives, from the sparsity pattern
  and the partition, exactly which updated items each rank must send to
  which other ranks ("the rating matrix R determines to what nodes this
  item needs to be sent").
* :mod:`repro.distributed.sampler` — the core chain loop on every rank:
  each rank's layout and the message-passing world seams; bit-identical
  to the sequential sampler with gathered hyperparameters.
* :mod:`repro.distributed.spmd` — ``run_local_socket_world``: an N-rank
  socket world driven from one thread per rank.
* :mod:`repro.distributed.scaling` — the strong-scaling performance model
  (nodes, racks, cache effects, message overheads) that regenerates
  Figures 4 and 5.

Exports are lazy (PEP 562): a training or socket process that imports the
sampler loads no module of the performance model.
"""

from repro._lazy import lazy_exports

__all__ = [
    "WorkloadModel",
    "Partition",
    "partition_ratings",
    "CommunicationPlan",
    "build_comm_plan",
    "DistributedGibbsSampler",
    "DistributedOptions",
    "ClusterSpec",
    "NetworkModel",
    "ScalingConfig",
    "ScalingPoint",
    "StrongScalingResult",
    "strong_scaling_study",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.distributed.partition": ("WorkloadModel", "Partition",
                                    "partition_ratings"),
    "repro.distributed.comm_plan": ("CommunicationPlan", "build_comm_plan"),
    "repro.distributed.sampler": ("DistributedGibbsSampler",
                                  "DistributedOptions"),
    "repro.distributed.scaling": ("ClusterSpec", "NetworkModel",
                                  "ScalingConfig", "ScalingPoint",
                                  "StrongScalingResult",
                                  "strong_scaling_study"),
})
