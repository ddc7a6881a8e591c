"""Distributed BPMF (Section IV of the paper).

Built on the message-passing substrate (:mod:`repro.mpi`): one rank
program that runs unchanged on the simulated in-process world and on the
socket world (:mod:`repro.mpi.net`):

* :mod:`repro.distributed.partition` — distributes the rows of ``U`` and
  ``V`` over the ranks using the paper's workload model (fixed cost plus a
  cost per rating) after a locality-improving reordering of ``R``.
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
"""

from repro.distributed.partition import Partition, partition_ratings
from repro.distributed.comm_plan import CommunicationPlan, build_comm_plan
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions
from repro.distributed.scaling import (
    ScalingConfig,
    ScalingPoint,
    StrongScalingResult,
    strong_scaling_study,
)

__all__ = [
    "Partition",
    "partition_ratings",
    "CommunicationPlan",
    "build_comm_plan",
    "DistributedGibbsSampler",
    "DistributedOptions",
    "ScalingConfig",
    "ScalingPoint",
    "StrongScalingResult",
    "strong_scaling_study",
]
