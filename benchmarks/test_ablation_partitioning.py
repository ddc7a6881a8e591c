"""Ablation: workload-aware, locality-reordered partitioning (DESIGN.md §5).

Section IV-B of the paper reorders the rows/columns of ``R`` and balances a
fixed-plus-per-rating workload model when distributing ``U`` and ``V``.
This ablation compares that data distribution against a naive split
(natural order, equal item counts) on a community-structured workload and
reports both the amount of data exchanged per iteration and the resulting
modelled throughput, plus the asynchronous-versus-bulk-synchronous
communication comparison that motivates the paper's design.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import make_scaling_workload
from repro.distributed.comm_plan import build_comm_plan
from repro.distributed.partition import (
    Partition,
    WorkloadModel,
    partition_ratings,
)
from repro.distributed.scaling import (
    ClusterSpec,
    NetworkModel,
    ScalingConfig,
    strong_scaling_study,
)
from repro.utils.tables import Table

NODES = 16


def _naive_partition(ratings, n_ranks: int) -> Partition:
    """Natural order, equal item counts, no workload model."""
    user_owner = (np.arange(ratings.n_users) * n_ranks // ratings.n_users)
    movie_owner = (np.arange(ratings.n_movies) * n_ranks // ratings.n_movies)
    return Partition(n_ranks=n_ranks, user_owner=user_owner.astype(np.int64),
                     movie_owner=movie_owner.astype(np.int64))


def test_partitioning_ablation(benchmark):
    def run_ablation():
        # A clustered workload whose natural order has been shuffled, so the
        # reordering actually has something to recover.
        ratings = make_scaling_workload(n_users=20_000, n_movies=4_000,
                                        n_ratings=600_000, n_communities=NODES,
                                        community_bias=0.85, seed=21)
        rng = np.random.default_rng(3)
        shuffled = ratings.permute(rng.permutation(ratings.n_users),
                                   rng.permutation(ratings.n_movies))

        workload = WorkloadModel()
        smart = partition_ratings(shuffled, NODES, workload=workload, reorder=True)
        naive = _naive_partition(shuffled, NODES)
        smart_plan = build_comm_plan(shuffled, smart)
        naive_plan = build_comm_plan(shuffled, naive)

        config = ScalingConfig(num_latent=64,
                               cluster=ClusterSpec(rack_size=32),
                               network=NetworkModel(intra_bandwidth=1.8e9,
                                                    inter_bandwidth=0.7e9))
        smart_study = strong_scaling_study(shuffled, node_counts=(NODES,),
                                           config=config)
        naive_config = ScalingConfig(**{**config.__dict__, "reorder": False})
        naive_study = strong_scaling_study(shuffled, node_counts=(NODES,),
                                           config=naive_config)
        sync_config = ScalingConfig(**{**config.__dict__,
                                       "overlap_communication": False})
        sync_study = strong_scaling_study(shuffled, node_counts=(NODES,),
                                          config=sync_config)
        return {
            "smart_items": smart_plan.total_items_exchanged(),
            "naive_items": naive_plan.total_items_exchanged(),
            "smart_imbalance": smart.imbalance(shuffled, workload),
            "naive_imbalance": naive.imbalance(shuffled, workload),
            "smart_throughput": smart_study.point(NODES).throughput,
            "naive_throughput": naive_study.point(NODES).throughput,
            "sync_throughput": sync_study.point(NODES).throughput,
        }

    metrics = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    table = Table(["data distribution", "items exchanged / iter",
                   "work imbalance", f"modelled items/s on {NODES} nodes"],
                  title="Partitioning ablation")
    table.add_row("workload-aware + reordered", metrics["smart_items"],
                  metrics["smart_imbalance"], metrics["smart_throughput"])
    table.add_row("naive natural-order split", metrics["naive_items"],
                  metrics["naive_imbalance"], metrics["naive_throughput"])
    print()
    print(table.render())
    print(f"asynchronous overlap: {metrics['smart_throughput']:.0f} items/s vs "
          f"bulk-synchronous {metrics['sync_throughput']:.0f} items/s")

    # The paper's data distribution exchanges no more data and is at least as
    # balanced as the naive split...
    assert metrics["smart_items"] <= metrics["naive_items"]
    assert metrics["smart_imbalance"] <= metrics["naive_imbalance"] + 0.05
    # ...and asynchronous overlap never loses to the synchronous exchange.
    assert metrics["smart_throughput"] >= metrics["sync_throughput"]
