"""Figures 4 and 5 — distributed strong scaling on a MovieLens-scale workload.

The paper runs the MPI implementation on a BlueGene/Q (16-core nodes,
32-node racks) over 1–1024 nodes of the ml-20m workload and reports item
updates per second together with the parallel efficiency.  The headline
shape: scaling is good — even super-linear, because per-node working sets
shrink into cache — up to one rack (32 nodes), and degrades significantly
once the allocation spans racks.

This driver builds a structural workload with the full ml-20m user/movie
counts (ratings count configurable; the default keeps the sweep to a couple
of minutes), configures a BlueGene/Q-like cluster and network model, and
runs :func:`repro.distributed.scaling.strong_scaling_study`.

Figure 5 is the same study over the 1–128 node range the paper plots
(:data:`FIG5_NODE_COUNTS`), tabulated as the per-node-count breakdown into
compute-only, overlap ("both") and communicate-only shares
(:meth:`Fig4Result.breakdown_table`).  The paper's observations: at small
node counts asynchronous MPI overlaps a meaningful share of the
communication with computation; at large node counts the overlap no
longer helps and communication (and the MPI library overhead) dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.datasets.scaling_workload import ScalingWorkloadConfig, make_scaling_workload
from repro.distributed.scaling import (
    ClusterSpec,
    NetworkModel,
    ScalingConfig,
    StrongScalingResult,
    strong_scaling_study,
)
from repro.sparse.csr import RatingMatrix
from repro.utils.tables import Table

__all__ = ["Fig4Result", "run_fig4", "bluegene_like_config", "DEFAULT_NODE_COUNTS",
           "FIG5_NODE_COUNTS"]

#: Node counts on the x-axis (1 node = 16 cores, as in the paper).
DEFAULT_NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
#: The paper's Figure 5 x-axis stops at 128 nodes / 2048 cores.
FIG5_NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)


def bluegene_like_config(num_latent: int = 64,
                         rack_size: int = 32,
                         buffer_capacity: int = 256) -> ScalingConfig:
    """A BlueGene/Q-flavoured cluster + network configuration.

    The parameters are order-of-magnitude estimates of the machine the
    paper used (16-core 1.6 GHz nodes, 32 MB L2, ~2 GB/s links, 32-node
    racks with a shared optical uplink); they are inputs to the model, not
    quantities fitted to the paper's curves.
    """
    return ScalingConfig(
        num_latent=num_latent,
        buffer_capacity=buffer_capacity,
        cluster=ClusterSpec(
            cores_per_node=16,
            rack_size=rack_size,
            cache_bytes=32 * 1024 * 1024,
            cache_speedup=1.35,
            node_compute_efficiency=0.9,
        ),
        network=NetworkModel(
            per_message_overhead=4.0e-6,
            intra_latency=2.0e-6,
            inter_latency=1.2e-5,
            intra_bandwidth=1.8e9,
            inter_bandwidth=0.7e9,
            uplink_bandwidth=4.0e9,
        ),
    )


@dataclass
class Fig4Result:
    """The scaling study plus the workload description."""

    scaling: StrongScalingResult
    workload_shape: tuple
    workload_nnz: int

    @property
    def node_counts(self) -> List[int]:
        return [point.n_nodes for point in self.scaling.points]

    def throughput_series(self) -> List[float]:
        return self.scaling.throughput_series()

    def efficiency_series(self) -> List[float]:
        return self.scaling.efficiency_series()

    def to_table(self) -> Table:
        return self.scaling.to_table()

    def breakdown_table(self) -> Table:
        """Figure 5: compute / both / communicate shares per node count."""
        return self.scaling.breakdown_table()


def run_fig4(
    ratings: RatingMatrix | None = None,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    config: Optional[ScalingConfig] = None,
    n_ratings: int = 10_000_000,
    seed: int = 13,
) -> Fig4Result:
    """Regenerate Figure 4's data.

    ``n_ratings`` is the *requested* number of structural ratings; after
    duplicate removal the realised count is roughly half, which is the
    quantity reported in ``workload_nnz``.
    """
    if ratings is None:
        ratings = make_scaling_workload(ScalingWorkloadConfig(
            n_ratings=n_ratings, seed=seed))
    config = config or bluegene_like_config()
    scaling = strong_scaling_study(ratings, node_counts=node_counts, config=config)
    return Fig4Result(scaling=scaling, workload_shape=ratings.shape,
                      workload_nnz=ratings.nnz)
