"""Ablation: send-buffer aggregation versus per-item messages (DESIGN.md §5).

Section IV-C of the paper argues that sending every updated item in its own
message is too expensive ("the overhead of calling these routines is too
much") and aggregates items into buffers.  This ablation quantifies the
claim twice:

* functionally — the distributed sampler posts one exchange frame per
  communicating (owner, reader) pair and phase, against one message per
  exchanged item without aggregation;
* in the performance model — sweeping the buffer capacity in the
  strong-scaling model and comparing modelled throughput.
"""

from __future__ import annotations

import numpy as np

from repro.core.priors import BPMFConfig
from repro.datasets import make_low_rank_dataset
from repro.distributed.sampler import (
    DistributedGibbsSampler,
    DistributedOptions,
    Tag,
)
from repro.distributed.scaling import (
    ClusterSpec,
    NetworkModel,
    ScalingConfig,
    strong_scaling_study,
)
from repro.mpi.simmpi import SimCommWorld
from repro.utils.tables import Table

CAPACITIES = (1, 8, 64, 512)
NODES = 32


def test_buffer_aggregation_ablation(benchmark, movielens_scaling_workload):
    def run_ablation():
        # -- functional message counts on a small dataset -------------------
        data = make_low_rank_dataset(n_users=120, n_movies=80, rank=4,
                                     density=0.15, seed=5)
        config = BPMFConfig(num_latent=4, burn_in=2, n_samples=3)
        world = SimCommWorld(4)
        _, info = DistributedGibbsSampler(
            config, DistributedOptions(n_ranks=4, hyper_mode="stats")
        ).run(data.split.train, data.split, seed=1, comm_world=world)
        frames = sum(record.tag in (Tag.MOVIES, Tag.USERS)
                     for record in world.message_log)
        pairs = sum(int(np.count_nonzero(info.plan.items_between(phase)))
                    for phase in ("movies", "users"))
        sweeps = config.total_iterations
        message_counts = {
            "per item": info.items_exchanged_per_iteration * sweeps,
            "per pair and phase": frames}
        assert frames == pairs * sweeps

        # -- modelled throughput at scale -----------------------------------
        throughput = {}
        for capacity in CAPACITIES:
            scaling = strong_scaling_study(
                movielens_scaling_workload, node_counts=(NODES,),
                config=ScalingConfig(
                    num_latent=64, buffer_capacity=capacity,
                    cluster=ClusterSpec(rack_size=32),
                    network=NetworkModel(per_message_overhead=8.0e-6,
                                         intra_bandwidth=1.8e9,
                                         inter_bandwidth=0.7e9)))
            throughput[capacity] = scaling.point(NODES).throughput
        return message_counts, throughput

    message_counts, throughput = benchmark.pedantic(run_ablation, rounds=1,
                                                    iterations=1)

    table = Table(["buffer capacity (items)", f"modelled items/s on {NODES} nodes"],
                  title="Send-buffer aggregation ablation")
    for capacity in CAPACITIES:
        table.add_row(capacity, throughput[capacity])
    print()
    print(table.render())
    print(f"functional run: {message_counts['per item']} messages unbuffered "
          f"vs {message_counts['per pair and phase']} exchange frames")

    # Buffering reduces the number of messages by a large factor...
    assert message_counts["per item"] > 5 * message_counts["per pair and phase"]
    # ...and the modelled throughput benefits from amortising the overhead.
    assert throughput[64] > throughput[1]
    assert throughput[512] >= 0.95 * throughput[64]
